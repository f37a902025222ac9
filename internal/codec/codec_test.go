package codec

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"bcrdb/internal/types"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewBuf(64)
	e.Uvarint(300)
	e.Varint(-77)
	e.Uint64(1 << 60)
	e.Byte(0xAB)
	e.Bool(true)
	e.Bytes2([]byte{1, 2, 3})
	e.String("hello")
	e.Float(3.14159)

	d := NewDec(e.Bytes())
	if got := d.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Varint(); got != -77 {
		t.Errorf("Varint = %d", got)
	}
	if got := d.Uint64(); got != 1<<60 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := d.Byte(); got != 0xAB {
		t.Errorf("Byte = %x", got)
	}
	if got := d.Bool(); !got {
		t.Error("Bool = false")
	}
	if got := d.Bytes2(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes2 = %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := d.Float(); got != 3.14159 {
		t.Errorf("Float = %v", got)
	}
	if err := d.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.Null(),
		types.NewBool(true),
		types.NewBool(false),
		types.NewInt(0),
		types.NewInt(-1 << 62),
		types.NewFloat(math.Inf(1)),
		types.NewFloat(-0.0),
		types.NewString(""),
		types.NewString("héllo\x00world"),
		types.NewBytes([]byte{0, 255, 128}),
	}
	e := NewBuf(128)
	for _, v := range vals {
		e.Value(v)
	}
	d := NewDec(e.Bytes())
	for i, want := range vals {
		got := d.Value()
		if d.Err() != nil {
			t.Fatalf("decode error at %d: %v", i, d.Err())
		}
		if types.Compare(got, want) != 0 || got.Kind() != want.Kind() {
			t.Errorf("value %d: got %v (%s), want %v (%s)", i, got, got.Kind(), want, want.Kind())
		}
	}
	if err := d.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

func TestNaNRoundTripPreservesBits(t *testing.T) {
	e := NewBuf(16)
	e.Value(types.NewFloat(math.NaN()))
	d := NewDec(e.Bytes())
	got := d.Value()
	if !math.IsNaN(got.Float()) {
		t.Error("NaN did not survive round trip")
	}
}

func TestRowRoundTrip(t *testing.T) {
	row := types.Row{types.NewInt(1), types.NewString("x"), types.Null()}
	e := NewBuf(32)
	e.Row(row)
	d := NewDec(e.Bytes())
	got := d.Row()
	if len(got) != 3 || types.Compare(got[0], row[0]) != 0 ||
		types.Compare(got[1], row[1]) != 0 || !got[2].IsNull() {
		t.Errorf("row round trip = %v", got)
	}
	if err := d.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

func TestTruncatedInputFails(t *testing.T) {
	e := NewBuf(32)
	e.String("hello world")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDec(full[:cut])
		_ = d.String()
		if d.Err() == nil && cut < len(full) {
			// A cut inside the length prefix of a shorter string could
			// decode, but then Done must complain about framing.
			_ = d.Done()
		}
	}
	// Truncated value tag payload.
	e2 := NewBuf(16)
	e2.Value(types.NewInt(123456789))
	b := e2.Bytes()
	d := NewDec(b[:1])
	d.Value()
	if d.Err() == nil {
		t.Error("expected error decoding truncated value")
	}
}

func TestTrailingGarbageFails(t *testing.T) {
	e := NewBuf(8)
	e.Uvarint(5)
	b := append(e.Bytes(), 0xFF)
	d := NewDec(b)
	d.Uvarint()
	if err := d.Done(); err == nil {
		t.Error("expected trailing-bytes error")
	}
}

func TestBadKindTagFails(t *testing.T) {
	d := NewDec([]byte{0xEE})
	d.Value()
	if d.Err() == nil {
		t.Error("expected error on unknown kind tag")
	}
}

func TestOversizedLengthFails(t *testing.T) {
	e := NewBuf(8)
	e.Uvarint(1 << 40) // huge claimed length
	d := NewDec(e.Bytes())
	if got := d.Bytes2(); got != nil || d.Err() == nil {
		t.Error("expected error on oversized length prefix")
	}
	d2 := NewDec(e.Bytes())
	if got := d2.String(); got != "" || d2.Err() == nil {
		t.Error("expected error on oversized string length")
	}
	d3 := NewDec(e.Bytes())
	if got := d3.Row(); got != nil || d3.Err() == nil {
		t.Error("expected error on oversized row count")
	}
}

func TestEncodingIsDeterministicProperty(t *testing.T) {
	f := func(i int64, s string, fl float64, b bool) bool {
		enc := func() []byte {
			e := NewBuf(64)
			e.Row(types.Row{types.NewInt(i), types.NewString(s), types.NewFloat(fl), types.NewBool(b)})
			return e.Bytes()
		}
		return bytes.Equal(enc(), enc())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarintRoundTripProperty(t *testing.T) {
	f := func(v int64, u uint64) bool {
		e := NewBuf(24)
		e.Varint(v)
		e.Uvarint(u)
		d := NewDec(e.Bytes())
		return d.Varint() == v && d.Uvarint() == u && d.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowRoundTripProperty(t *testing.T) {
	f := func(ints []int64, strs []string) bool {
		row := make(types.Row, 0, len(ints)+len(strs))
		for _, i := range ints {
			row = append(row, types.NewInt(i))
		}
		for _, s := range strs {
			row = append(row, types.NewString(s))
		}
		e := NewBuf(256)
		e.Row(row)
		d := NewDec(e.Bytes())
		got := d.Row()
		if d.Done() != nil || len(got) != len(row) {
			return false
		}
		for i := range row {
			if types.Compare(got[i], row[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
