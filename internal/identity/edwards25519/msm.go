// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"encoding/binary"
	"sync"

	"bcrdb/internal/identity/edwards25519/field"
)

// basepointNafTable is the nafLookupTable8 for the basepoint.
// It is precomputed the first time it's used.
func basepointNafTable() *nafLookupTable8 {
	basepointNafTablePrecomp.initOnce.Do(func() {
		basepointNafTablePrecomp.table.FromP3(generator)
	})
	return &basepointNafTablePrecomp.table
}

var basepointNafTablePrecomp struct {
	table    nafLookupTable8
	initOnce sync.Once
}

// CofactoredCheck reports whether [8]([b]B − Σ [scalars[i]]points[i]) is
// the identity, where B is the canonical generator. Scalars are 32-byte
// little-endian values below 2^255; points and scalars pair up by index.
//
// It is Straus' method: one chain of doublings shared by every term, a
// width-5 NAF table built per point and the precomputed width-8 table of
// B, so n terms cost about 256 doublings plus n·(8 + 256/6) additions
// instead of n·256 doublings. The three doublings of the cofactor come
// last. It runs in variable time.
func CofactoredCheck(b *[32]byte, scalars [][32]byte, points []*Point) bool {
	tables := make([]nafLookupTable5, len(points))
	nafs := make([][256]int8, len(points))
	top := -1
	for i, p := range points {
		nafs[i] = nonAdjacentForm(&scalars[i], 5)
		top = max(top, highestDigit(&nafs[i]))
		if isUnit(&scalars[i]) {
			tables[i].points[0].FromP3(p) // ±1 is the only digit
		} else {
			tables[i].FromP3(p)
		}
	}
	bNaf := nonAdjacentForm(b, 8)
	top = max(top, highestDigit(&bNaf))
	bTable := basepointNafTable()

	var v Point
	var multP projCached
	var multB affineCached
	var tmp1 projP1xP1
	var tmp2 projP2
	tmp2.Zero()
	for i := top; i >= 0; i-- {
		tmp1.Double(&tmp2)
		for j := range nafs {
			// The terms are subtracted: a positive digit subtracts.
			if c := nafs[j][i]; c > 0 {
				v.fromP1xP1(&tmp1)
				tables[j].SelectInto(&multP, c)
				tmp1.Sub(&v, &multP)
			} else if c < 0 {
				v.fromP1xP1(&tmp1)
				tables[j].SelectInto(&multP, -c)
				tmp1.Add(&v, &multP)
			}
		}
		if c := bNaf[i]; c > 0 {
			v.fromP1xP1(&tmp1)
			bTable.SelectInto(&multB, c)
			tmp1.AddAffine(&v, &multB)
		} else if c < 0 {
			v.fromP1xP1(&tmp1)
			bTable.SelectInto(&multB, -c)
			tmp1.SubAffine(&v, &multB)
		}
		tmp2.FromP1xP1(&tmp1)
	}
	for i := 0; i < 3; i++ {
		tmp1.Double(&tmp2)
		tmp2.FromP1xP1(&tmp1)
	}
	// The identity is (0 : Z : Z).
	var zero field.Element
	return tmp2.X.Equal(&zero) == 1 && tmp2.Y.Equal(&tmp2.Z) == 1
}

// isUnit reports whether s is 1, a scalar whose NAF is the one digit 1.
func isUnit(s *[32]byte) bool {
	return *s == [32]byte{1}
}

// highestDigit is the index of the highest nonzero digit, or -1.
func highestDigit(naf *[256]int8) int {
	for i := 255; i >= 0; i-- {
		if naf[i] != 0 {
			return i
		}
	}
	return -1
}

// nonAdjacentForm computes a width-w non-adjacent form of the 32-byte
// little-endian scalar s, which must be below 2^255.
//
// w must be between 2 and 8, or nonAdjacentForm will panic.
func nonAdjacentForm(s *[32]byte, w uint) [256]int8 {
	// This implementation is adapted from the one
	// in curve25519-dalek and is documented there:
	// https://github.com/dalek-cryptography/curve25519-dalek/blob/f630041af28e9a405255f98a8a93adca18e4315b/src/scalar.rs#L800-L871
	if s[31] > 127 {
		panic("scalar has high bit set illegally")
	}
	if w < 2 {
		panic("w must be at least 2 by the definition of NAF")
	} else if w > 8 {
		panic("NAF digits must fit in int8")
	}

	var naf [256]int8
	var digits [5]uint64

	for i := 0; i < 4; i++ {
		digits[i] = binary.LittleEndian.Uint64(s[i*8:])
	}

	width := uint64(1 << w)
	windowMask := uint64(width - 1)

	pos := uint(0)
	carry := uint64(0)
	for pos < 256 {
		indexU64 := pos / 64
		indexBit := pos % 64
		var bitBuf uint64
		if indexBit < 64-w {
			// This window's bits are contained in a single u64
			bitBuf = digits[indexU64] >> indexBit
		} else {
			// Combine the current 64 bits with bits from the next 64
			bitBuf = (digits[indexU64] >> indexBit) | (digits[1+indexU64] << (64 - indexBit))
		}

		// Add carry into the current window
		window := carry + (bitBuf & windowMask)

		if window&1 == 0 {
			// If the window value is even, preserve the carry and continue.
			// Why is the carry preserved?
			// If carry == 0 and window & 1 == 0,
			//    then the next carry should be 0
			// If carry == 1 and window & 1 == 0,
			//    then bit_buf & 1 == 1 so the next carry should be 1
			pos += 1
			continue
		}

		if window < width/2 {
			carry = 0
			naf[pos] = int8(window)
		} else {
			carry = 1
			naf[pos] = int8(window) - int8(width)
		}

		pos += w
	}
	return naf
}
