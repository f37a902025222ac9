// Package codec implements the canonical binary encoding used everywhere a
// byte representation feeds a hash or a signature: transaction envelopes,
// blocks, write-set digests and checkpoint messages.
//
// The encoding must be identical on every node and across releases, so we
// do not use encoding/gob (stream-stateful) or encoding/json (map order,
// float formatting). The format is deliberately tiny:
//
//	uvarint / varint   little-endian base-128, as encoding/binary
//	bytes / string     uvarint length prefix + raw bytes
//	float64            IEEE-754 bits as fixed 8-byte big-endian
//	value              1 tag byte (types.Kind) + payload
//	row / key          uvarint count + values
//
// Decoding is strict: trailing garbage and truncated input are errors.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"bcrdb/internal/types"
)

// ErrCorrupt is returned when decoding encounters malformed input.
var ErrCorrupt = errors.New("codec: corrupt input")

// Buf is an append-only encoder.
type Buf struct {
	b []byte
}

// NewBuf returns an encoder with the given initial capacity.
func NewBuf(capacity int) *Buf { return &Buf{b: make([]byte, 0, capacity)} }

// Bytes returns the encoded bytes. The slice aliases the buffer.
func (e *Buf) Bytes() []byte { return e.b }

// Uvarint appends an unsigned varint.
func (e *Buf) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Varint appends a signed varint (zig-zag).
func (e *Buf) Varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Uint64 appends a fixed-width big-endian uint64.
func (e *Buf) Uint64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }

// Byte appends a single byte.
func (e *Buf) Byte(v byte) { e.b = append(e.b, v) }

// Bool appends a boolean as one byte.
func (e *Buf) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Bytes2 appends length-prefixed bytes.
func (e *Buf) Bytes2(v []byte) {
	e.Uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

// String appends a length-prefixed string.
func (e *Buf) String(v string) {
	e.Uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

// Float appends a float64 as its IEEE-754 bit pattern.
func (e *Buf) Float(v float64) { e.Uint64(math.Float64bits(v)) }

// Value appends a tagged scalar value.
func (e *Buf) Value(v types.Value) {
	e.Byte(byte(v.Kind()))
	switch v.Kind() {
	case types.KindNull:
	case types.KindBool:
		e.Bool(v.Bool())
	case types.KindInt:
		e.Varint(v.Int())
	case types.KindFloat:
		e.Float(v.Float())
	case types.KindString, types.KindBytes:
		e.String(v.Str())
	default:
		panic(fmt.Sprintf("codec: unknown kind %d", v.Kind()))
	}
}

// Row appends a count-prefixed tuple of values.
func (e *Buf) Row(r types.Row) {
	e.Uvarint(uint64(len(r)))
	for _, v := range r {
		e.Value(v)
	}
}

// Dec is a strict decoder over a byte slice.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first error encountered, if any.
func (d *Dec) Err() error { return d.err }

// Done returns an error unless the input was fully consumed without error.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b)-d.off)
	}
	return nil
}

func (d *Dec) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Uint64 reads a fixed-width big-endian uint64.
func (d *Dec) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// Byte reads a single byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool reads a boolean.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// Bytes2 reads length-prefixed bytes. The result is a copy.
func (d *Dec) Bytes2() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:])
	d.off += int(n)
	return out
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Float reads a float64.
func (d *Dec) Float() float64 { return math.Float64frombits(d.Uint64()) }

// Value reads a tagged scalar value.
func (d *Dec) Value() types.Value {
	k := types.Kind(d.Byte())
	if d.err != nil {
		return types.Null()
	}
	switch k {
	case types.KindNull:
		return types.Null()
	case types.KindBool:
		return types.NewBool(d.Bool())
	case types.KindInt:
		return types.NewInt(d.Varint())
	case types.KindFloat:
		return types.NewFloat(d.Float())
	case types.KindString:
		return types.NewString(d.String())
	case types.KindBytes:
		return types.NewBytes(d.Bytes2())
	default:
		d.fail()
		return types.Null()
	}
}

// Row reads a count-prefixed tuple.
func (d *Dec) Row() types.Row {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) { // each value needs ≥1 byte
		d.fail()
		return nil
	}
	out := make(types.Row, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.Value())
		if d.err != nil {
			return nil
		}
	}
	return out
}
