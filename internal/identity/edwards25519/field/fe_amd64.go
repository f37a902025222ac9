// Code generated by the avo program in crypto/internal/fips140/edwards25519/field/_asm of the go1.24.0 source tree. DO NOT EDIT.

//go:build !purego

package field

// feMul sets out = a * b. It works like feMulGeneric.
//
//go:noescape
func feMul(out *Element, a *Element, b *Element)

// feSquare sets out = a * a. It works like feSquareGeneric.
//
//go:noescape
func feSquare(out *Element, a *Element)
