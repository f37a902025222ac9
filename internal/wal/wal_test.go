package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// writeLog writes a log holding the given payloads and returns its path.
func writeLog(t *testing.T, payloads ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := l.AppendRaw([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func readAll(t *testing.T, path string) []string {
	t.Helper()
	frames, err := ReadAllRaw(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range frames {
		out = append(out, string(f))
	}
	return out
}

func TestAppendAndReadAll(t *testing.T) {
	path := writeLog(t, "one", "", "three")
	if got := readAll(t, path); fmt.Sprint(got) != fmt.Sprint([]string{"one", "", "three"}) {
		t.Fatalf("frames = %q", got)
	}
}

func TestReadMissingFile(t *testing.T) {
	frames, err := ReadAllRaw(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(frames) != 0 {
		t.Fatalf("frames=%v err=%v", frames, err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := writeLog(t, "a")
	// A crash mid-write: a header that checks, announcing 50 bytes, and 5
	// of them.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.Write(frame(bytes.Repeat([]byte{7}, 50))[:frameHeader+5])
	f.Close()

	if got := readAll(t, path); len(got) != 1 {
		t.Fatalf("frames = %q", got)
	}
	// The file must be clean for further appends.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.AppendRaw([]byte("b")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if got := readAll(t, path); len(got) != 2 || got[1] != "b" {
		t.Fatalf("after repair: frames = %q", got)
	}
}

func TestCRCDetectsBitRotAtTail(t *testing.T) {
	path := writeLog(t, "a", "b")
	// Flip one bit in the last frame's payload.
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	if got := readAll(t, path); len(got) != 1 || got[0] != "a" {
		t.Fatalf("frames = %q", got)
	}
}

func TestAppendAfterReopen(t *testing.T) {
	path := writeLog(t, "a")
	l2, _ := Open(path)
	_ = l2.AppendRaw([]byte("b"))
	_ = l2.Sync()
	l2.Close()
	if got := readAll(t, path); len(got) != 2 || got[1] != "b" {
		t.Fatalf("frames = %q", got)
	}
}

// TestDamagedLengthMidFileRefused: a damaged length in a frame that is not
// the last is damage, not a torn tail. Reading reports it with its
// offset, allocates no more than the file's size, and leaves the file as
// found — whichever byte of the length was hit.
func TestDamagedLengthMidFileRefused(t *testing.T) {
	path := writeLog(t, "frame one", "frame two", "frame three", "frame four", "frame five")
	frames, _, err := Scan(path)
	if err != nil || len(frames) != 5 {
		t.Fatalf("scan: %d frames, %v", len(frames), err)
	}
	second := frames[1].Off
	for pos := second; pos < second+4; pos++ {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			orig, _ := os.ReadFile(path)
			data := append([]byte(nil), orig...)
			data[pos] ^= flip
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			got, err := ReadAllRaw(path)
			runtime.ReadMemStats(&m1)
			if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 1<<20 {
				t.Errorf("byte %d ^ %#x: reading a %d-byte log allocated %d bytes", pos, flip, len(data), alloc)
			}
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("offset %d ", second)) ||
				!strings.Contains(err.Error(), path) {
				t.Errorf("byte %d ^ %#x: %d frames, err = %v; want damage at offset %d of %s", pos, flip, len(got), err, second, path)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatalf("byte %d ^ %#x: the damaged log was modified (%d bytes, was %d)", pos, flip, len(after), len(data))
			}
			os.WriteFile(path, orig, 0o644)
		}
	}
}

// TestOldFormatRefused: a file that does not start with the log header —
// one written before frame headers carried a checksum — is refused by
// name and left as found, by readers and by Open alike.
func TestOldFormatRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.wal")
	old := []byte{0, 0, 0, 3, 1, 2, 3, 4, 'a', 'b', 'c', 0, 0, 0, 0}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "predates checksummed frame headers"
	if _, err := ReadAllRaw(path); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), want) {
		t.Errorf("ReadAllRaw: err = %v, want it to name the file and say it %s", err, want)
	}
	if l, err := Open(path); err == nil || !strings.Contains(err.Error(), want) {
		if l != nil {
			l.Close()
		}
		t.Errorf("Open: err = %v, want it to say it %s", err, want)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, old) {
		t.Error("the refused file was modified")
	}
}

// TestAppendOffsetsReadBack: Append returns the offset Scan reports for
// the frame, ReadPayload reads that frame's payload back (or its start),
// a read past the end of the file fails, and so does any read once the
// log is closed.
func TestAppendOffsetsReadBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := []string{"one", "", "three", "four"}
	var offs []int64
	for _, p := range payloads {
		off, err := l.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	frames, _, err := Scan(path)
	if err != nil || len(frames) != len(payloads) {
		t.Fatalf("scan: %d frames, %v", len(frames), err)
	}
	for i, p := range payloads {
		if frames[i].Off != offs[i] {
			t.Errorf("frame %d: Append returned offset %d, Scan reports %d", i, offs[i], frames[i].Off)
		}
		got := make([]byte, len(p))
		if err := l.ReadPayload(got, offs[i]); err != nil || string(got) != p {
			t.Errorf("frame %d: ReadPayload = %q, %v; want %q", i, got, err, p)
		}
	}
	head := make([]byte, 2)
	if err := l.ReadPayload(head, offs[2]); err != nil || string(head) != "th" {
		t.Errorf("the start of frame 2 = %q, %v", head, err)
	}
	if err := l.ReadPayload(make([]byte, 5), offs[3]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a read past the end of the log: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.ReadPayload(make([]byte, 3), offs[0]); err == nil {
		t.Error("ReadPayload on a closed log succeeded")
	}
}
