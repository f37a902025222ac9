package ledger

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// tenBlockFile writes a ten-block chain to a fresh store file and returns
// its path, the blocks and the file offset at which each block's frame
// starts (offsets[10] is the file size).
func tenBlockFile(t *testing.T) (string, []*Block, []int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.blocks")
	bs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*Block
	offsets := []int64{0}
	var prev Hash
	for n := uint64(1); n <= 10; n++ {
		b := sampleBlock(n, prev, sampleTx("t"+string(rune('a'+n))))
		if err := bs.Append(b); err != nil {
			t.Fatal(err)
		}
		prev = b.Hash
		blocks = append(blocks, b)
		offsets = append(offsets, offsets[n-1]+4+int64(len(b.Encode())))
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	return path, blocks, offsets
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestFileStoreTornWriteRecovery: the tail of the file may be torn by a
// crash and is cut away; damage anywhere before it is reported, never
// healed by dropping the rest of the chain.
func TestFileStoreTornWriteRecovery(t *testing.T) {
	appendBytes := func(tail ...byte) func(*testing.T, string, []int64) {
		return func(t *testing.T, path string, _ []int64) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name       string
		damage     func(t *testing.T, path string, offsets []int64)
		wantHeight uint64 // blocks loaded; 0 = OpenFileStore must fail
		wantErr    string
	}{
		{name: "torn tail: cut inside block 10's frame", wantHeight: 9,
			damage: func(t *testing.T, path string, off []int64) {
				if err := os.Truncate(path, (off[9]+off[10])/2); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "torn tail: two bytes of a length prefix", wantHeight: 10, damage: appendBytes(0, 0)},
		{name: "torn tail: 99 bytes announced, 3 written", wantHeight: 10, damage: appendBytes(0, 0, 0, 99, 1, 2, 3)},
		{name: "torn tail: length prefix larger than the rest of the file", wantHeight: 10,
			damage: appendBytes(0xFF, 0xFF, 0xFF, 0xF0, 1, 2, 3)},
		{name: "torn tail: whole final frame that does not decode", wantHeight: 10,
			damage: appendBytes(0, 0, 0, 5, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)},
		{name: "a frame that does not decode, followed by a block", wantErr: "block 4 ",
			damage: func(t *testing.T, path string, off []int64) {
				f, err := os.OpenFile(path, os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				// Block 4's transaction count becomes a varint that never ends.
				garbage := bytes.Repeat([]byte{0xFF}, int(off[4]-off[3])-4)
				if _, err := f.WriteAt(garbage, off[3]+4); err != nil {
					t.Fatal(err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, blocks, off := tenBlockFile(t)
			tc.damage(t, path, off)
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			bs, err := OpenFileStore(path)
			runtime.ReadMemStats(&m1)
			if got := m1.TotalAlloc - m0.TotalAlloc; got > 1<<20 {
				t.Errorf("loading a %d-byte file allocated %d bytes", len(before), got)
			}
			if tc.wantHeight == 0 {
				if err == nil {
					bs.Close()
					t.Fatal("a damaged file opened")
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("err = %v, want it to name %q", err, tc.wantErr)
				}
				if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
					t.Error("the refused file was modified")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if bs.Height() != tc.wantHeight {
				t.Fatalf("height = %d, want %d", bs.Height(), tc.wantHeight)
			}
			if got := fileSize(t, path); got != off[tc.wantHeight] {
				t.Errorf("file is %d bytes after loading, want the good prefix %d", got, off[tc.wantHeight])
			}
			// The next block lands where the torn one was.
			next := blocks[9]
			if tc.wantHeight == 10 {
				next = sampleBlock(11, blocks[9].Hash)
			}
			if err := bs.Append(next); err != nil {
				t.Fatal(err)
			}
			bs.Close()
			re, err := OpenFileStore(path)
			if err != nil || re.Height() != tc.wantHeight+1 {
				t.Fatalf("reopened: height %d, err %v", re.Height(), err)
			}
			re.Close()
		})
	}
}

// TestFileStoreFlippedByte flips each byte of block 4's frame body in
// turn: whatever the byte belonged to — the number, a hash, a transaction,
// a length inside the encoding — the file is refused, the error names
// block 4 and the bytes stay as found.
func TestFileStoreFlippedByte(t *testing.T) {
	path, _, off := tenBlockFile(t)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := off[3] + 4; pos < off[4]; pos++ {
		flipped := append([]byte(nil), orig...)
		flipped[pos] ^= 0x01
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		bs, err := OpenFileStore(path)
		if err == nil {
			bs.Close()
			t.Fatalf("byte %d of block 4's frame flipped: the file opened with %d blocks", pos-off[3], bs.Height())
		}
		if !strings.Contains(err.Error(), "block 4 ") {
			t.Fatalf("byte %d flipped: err = %v, want it to name block 4", pos-off[3], err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, flipped) {
			t.Fatalf("byte %d flipped: the refused file was modified", pos-off[3])
		}
	}
}

// TestFileStoreAppendFailure: a write that fails leaves the store where
// it was — same height, file at the good prefix.
func TestFileStoreAppendFailure(t *testing.T) {
	path, blocks, off := tenBlockFile(t)
	bs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	if err := bs.file.Close(); err != nil { // closed underneath the store
		t.Fatal(err)
	}
	if err := bs.Append(sampleBlock(11, blocks[9].Hash)); err == nil {
		t.Fatal("Append on a closed file reported success")
	}
	if bs.Height() != 10 {
		t.Errorf("height = %d after a failed Append, want 10", bs.Height())
	}
	if got := fileSize(t, path); got != off[10] {
		t.Errorf("file is %d bytes after a failed Append, want %d", got, off[10])
	}
}
