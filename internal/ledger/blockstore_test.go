package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bcrdb/internal/types"
	"bcrdb/internal/wal"
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
	var prev Hash
	for n := uint64(1); n <= 10; n++ {
		b := sampleBlock(n, prev, sampleTx("t"+string(rune('a'+n))))
		if err := bs.Append(b); err != nil {
			t.Fatal(err)
		}
		prev = b.Hash
		blocks = append(blocks, b)
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	frames, end, err := wal.Scan(path)
	if err != nil || len(frames) != 10 || end != fileSize(t, path) {
		t.Fatalf("scan: %d frames to %d, err %v", len(frames), end, err)
	}
	var offsets []int64
	for _, f := range frames {
		offsets = append(offsets, f.Off)
	}
	return path, blocks, append(offsets, end)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// frameHeader is a frame header that checks, announcing n bytes of
// payload whose checksum is crc.
func frameHeader(n, crc uint32) []byte {
	h := binary.BigEndian.AppendUint32(nil, n)
	h = binary.BigEndian.AppendUint32(h, crc)
	return binary.BigEndian.AppendUint32(h, crc32.ChecksumIEEE(h))
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
	writeAt := func(t *testing.T, path string, off int64, data []byte) {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(data, off); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name       string
		damage     func(t *testing.T, path string, offsets []int64)
		wantHeight uint64 // blocks loaded; 0 = OpenFileStore must fail
		wantErr    string
		wantOff    int // the error names offsets[wantOff]
	}{
		{name: "torn tail: cut inside block 10's frame", wantHeight: 9,
			damage: func(t *testing.T, path string, off []int64) {
				if err := os.Truncate(path, (off[9]+off[10])/2); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "torn tail: two bytes of a length prefix", wantHeight: 10, damage: appendBytes(0, 0)},
		{name: "torn tail: 99 bytes announced, 3 written", wantHeight: 10,
			damage: appendBytes(append(frameHeader(99, 0), 1, 2, 3)...)},
		{name: "torn tail: length prefix larger than the rest of the file", wantHeight: 10,
			damage: appendBytes(append(frameHeader(0xFFFFFFF0, 0), 1, 2, 3)...)},
		{name: "torn tail: whole final frame that does not decode", wantHeight: 10,
			// The header checks, the payload does not: its write never landed.
			damage: appendBytes(append(frameHeader(5, 0), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)...)},
		{name: "a frame that does not decode, followed by a block", wantErr: "block 4 ", wantOff: 3,
			damage: func(t *testing.T, path string, off []int64) {
				// Block 4's frame still checks, but its transaction count
				// becomes a varint that never ends.
				garbage := bytes.Repeat([]byte{0xFF}, int(off[4]-off[3])-12)
				garbage[0] = frameBlock
				writeAt(t, path, off[3], append(frameHeader(uint32(len(garbage)), crc32.ChecksumIEEE(garbage)), garbage...))
			}},
		{name: "damaged length prefix mid-file", wantErr: "after block 4: ", wantOff: 4,
			damage: func(t *testing.T, path string, off []int64) {
				// Block 5's length now points far past end-of-file.
				writeAt(t, path, off[4], []byte{0x80})
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
				for _, want := range []string{tc.wantErr, fmt.Sprintf("offset %d", off[tc.wantOff]), path} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("err = %v, want it to name %q", err, want)
					}
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

// TestFileStoreFlippedByte flips each byte of block 4's frame in turn,
// header and body: whatever the byte belonged to — the length, a
// checksum, the number, a hash, a transaction — the file is refused, the
// error names the last intact block and the frame's offset, and the bytes
// stay as found.
func TestFileStoreFlippedByte(t *testing.T) {
	path, _, off := tenBlockFile(t)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := off[3]; pos < off[4]; pos++ {
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
		for _, want := range []string{"after block 3: ", fmt.Sprintf("offset %d ", off[3])} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("byte %d flipped: err = %v, want it to name %q", pos-off[3], err, want)
			}
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, flipped) {
			t.Fatalf("byte %d flipped: the refused file was modified", pos-off[3])
		}
	}
}

// TestFileStoreOutcomes: outcomes follow their blocks in order, carry one
// committed bit per transaction, and come back with the chain.
func TestFileStoreOutcomes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.blocks")
	bs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	b1 := sampleBlock(1, Hash{}, sampleTx("a"), sampleTx("b"))
	b2 := sampleBlock(2, b1.Hash, sampleTx("c"))
	o1 := Outcome{Committed: []byte{0b01}, WriteHash: Hash{1}}
	if err := bs.AppendOutcome(1, o1); !errors.Is(err, ErrOutOfSequence) {
		t.Fatalf("the outcome of a block not in the chain: err = %v", err)
	}
	if err := bs.Append(b1); err != nil {
		t.Fatal(err)
	}
	if err := bs.AppendOutcome(1, Outcome{Committed: []byte{1, 0}}); err == nil {
		t.Fatal("an outcome with a committed bit per byte was accepted")
	}
	if err := bs.AppendOutcome(1, o1); err != nil {
		t.Fatal(err)
	}
	if err := bs.Append(b2); err != nil {
		t.Fatal(err)
	}
	if err := bs.Sync(); err != nil {
		t.Fatal(err)
	}
	bs.Close()

	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, ok := re.Outcome(1); !ok || !bytes.Equal(got.Committed, o1.Committed) || got.WriteHash != o1.WriteHash {
		t.Fatalf("outcome 1 reloaded as %+v, %v", got, ok)
	}
	if _, ok := re.Outcome(2); ok || re.Height() != 2 {
		t.Fatalf("reloaded: height %d, outcome 2 present %v", re.Height(), ok)
	}
	if err := re.AppendOutcome(2, Outcome{Committed: []byte{0}}); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreConcurrentIntakeAndSeal: intake appends blocks while the
// sealer appends each one's outcome and syncs, and readers look both up,
// as a node does. The frames interleave in the file however the two
// writers raced, and the chain reopens whole.
func TestFileStoreConcurrentIntakeAndSeal(t *testing.T) {
	const n = 200
	path := filepath.Join(t.TempDir(), "db.blocks")
	bs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	intakeDone := make(chan struct{})
	wg.Add(4)
	go func() { // intake
		defer wg.Done()
		defer close(intakeDone)
		var prev Hash
		for k := uint64(1); k <= n; k++ {
			b := sampleBlock(k, prev, sampleTx(fmt.Sprint("t", k)))
			if err := bs.Append(b); err != nil {
				t.Error(err)
				return
			}
			prev = b.Hash
		}
	}()
	go func() { // sealer
		defer wg.Done()
		for k := uint64(1); k <= n; runtime.Gosched() {
			if bs.Height() < k {
				continue
			}
			if err := bs.AppendOutcome(k, Outcome{Committed: []byte{byte(k % 2)}, WriteHash: Hash{byte(k)}}); err != nil {
				t.Error(err)
				return
			}
			if err := bs.Sync(); err != nil {
				t.Error(err)
				return
			}
			k++
		}
	}()
	go func() { // queries
		defer wg.Done()
		for k := uint64(1); k <= n; runtime.Gosched() {
			o, ok := bs.Outcome(k)
			if !ok {
				continue
			}
			if b, err := bs.Get(k); err != nil || b.Number != k || o.WriteHash != (Hash{byte(k)}) {
				t.Errorf("block %d: %v, %v", k, b, err)
				return
			}
			k++
		}
	}()
	go func() { // catch-up: earlier blocks read back while intake appends
		defer wg.Done()
		for k := uint64(1); ; k++ {
			select {
			case <-intakeDone:
				return
			default:
			}
			h := bs.Height()
			if h == 0 {
				runtime.Gosched()
				continue
			}
			k = 1 + k%h
			enc, err := bs.Encoded(k)
			if err != nil {
				t.Errorf("Encoded(%d) beside Append: %v", k, err)
				return
			}
			if b, err := DecodeBlock(enc); err != nil || b.Number != k || !bytes.Equal(b.Encode(), enc) {
				t.Errorf("Encoded(%d) beside Append read back %d bytes that are not its encoding (%v)", k, len(enc), err)
				return
			}
		}
	}()
	wg.Wait()
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if o, ok := re.Outcome(n); re.Height() != n || !ok || o.WriteHash != (Hash{byte(n)}) {
		t.Fatalf("reopened at %d blocks, outcome %d: %v %v", re.Height(), n, o, ok)
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
	if err := bs.log.Close(); err != nil { // closed underneath the store
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

// TestFileStoreOutcomeWriteFailure: an outcome whose frame cannot be
// written is still the store's outcome of the block, since the chain's
// readers take it from the store, and the error is returned. Every later
// outcome returns it too and stays out of the log, even once the file
// takes writes again: the log never holds an outcome past a gap.
func TestFileStoreOutcomeWriteFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.blocks")
	bs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	prev := Hash{}
	for n := uint64(1); n <= 3; n++ {
		b := sampleBlock(n, prev, sampleTx(fmt.Sprint(n)))
		if err := bs.Append(b); err != nil {
			t.Fatal(err)
		}
		prev = b.Hash
	}
	if err := bs.AppendOutcome(1, Outcome{Committed: []byte{1}, WriteHash: Hash{1}}); err != nil {
		t.Fatal(err)
	}
	if err := bs.log.Close(); err != nil { // closed underneath the store
		t.Fatal(err)
	}
	if err := bs.AppendOutcome(2, Outcome{Committed: []byte{1}, WriteHash: Hash{2}}); err == nil {
		t.Fatal("an outcome written to a closed file reported success")
	}
	if o, ok := bs.Outcome(2); !ok || o.WriteHash != (Hash{2}) {
		t.Fatalf("outcome 2 after its failed write: %+v, %v", o, ok)
	}
	if bs.log, err = wal.Open(path); err != nil { // the file takes writes again
		t.Fatal(err)
	}
	if err := bs.AppendOutcome(3, Outcome{Committed: []byte{0}, WriteHash: Hash{3}}); err == nil {
		t.Fatal("the outcome after a failed one reported success")
	}
	if _, ok := bs.Outcome(3); !ok {
		t.Fatal("outcome 3 not kept in memory")
	}
	bs.Close()
	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Outcome(1); !ok || re.Height() != 3 {
		t.Fatalf("reopened at %d blocks, outcome 1 present %v", re.Height(), ok)
	}
	if _, ok := re.Outcome(2); ok {
		t.Fatal("the outcome whose write failed is in the log")
	}
}

// TestBlockStoreGetIsolated: Get hands out a decoded copy. A caller that
// mutates it changes neither what a later Get returns nor the chain that
// VerifyChain checks.
func TestBlockStoreGetIsolated(t *testing.T) {
	bs := NewBlockStore()
	b1 := sampleBlock(1, Hash{}, sampleTx("a"), sampleTx("b"))
	if err := bs.Append(b1); err != nil {
		t.Fatal(err)
	}
	if err := bs.Append(sampleBlock(2, b1.Hash, sampleTx("c"))); err != nil {
		t.Fatal(err)
	}
	want := b1.Encode()
	got, err := bs.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	got.Txs[0].Args[0] = types.NewInt(999)
	got.Txs[1].ID = "mallory"
	got.Checkpoints[0].WriteHash[0] ^= 1
	got.Hash[0] ^= 1
	again, err := bs.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Encode(), want) {
		t.Fatal("a mutation of the block Get returned reached the store")
	}
	if n, err := bs.VerifyChain(); n != 0 || err != nil {
		t.Fatalf("VerifyChain after a caller mutated its copy = %d, %v", n, err)
	}
}

// The chain the heap and canonical-bytes tests build: chainBlocks
// blocks of chainTxs transactions each.
const chainBlocks, chainTxs = 200, 100

// chainBlock returns block n of that chain.
func chainBlock(n uint64, prev Hash) *Block {
	txs := make([]*Transaction, chainTxs)
	for i := range txs {
		txs[i] = sampleTx(fmt.Sprintf("tx-%d-%d", n, i))
	}
	return sampleBlock(n, prev, txs...)
}

// chainHeapPerTx appends the chain to bs and returns the heap the store
// retained and the encoded bytes, each per transaction.
func chainHeapPerTx(t *testing.T, bs *BlockStore) (heap, encoded float64) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC() // the second frees what the first left in sync.Pool victim caches
	runtime.ReadMemStats(&m0)
	var prev Hash
	enc := 0
	for n := uint64(1); n <= chainBlocks; n++ {
		b := chainBlock(n, prev)
		if err := bs.Append(b); err != nil {
			t.Fatal(err)
		}
		enc += len(b.Encode())
		prev = b.Hash
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(bs)
	const txs = chainBlocks * chainTxs
	return float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / txs, float64(enc) / txs
}

// TestBlockStoreHeapPerTx: a block costs the store about its encoded
// bytes, not a decoded transaction per entry.
func TestBlockStoreHeapPerTx(t *testing.T) {
	heap, perTx := chainHeapPerTx(t, NewBlockStore())
	t.Logf("retained %.1f B per transaction, encoded %.1f B", heap, perTx)
	if heap > 1.25*perTx {
		t.Fatalf("the store retains %.1f B per transaction, over 1.25 × its %.1f encoded bytes", heap, perTx)
	}
}

// TestBlockStoreFileHeapPerTx: a file-backed store keeps where each block
// lies in its file, not the block's bytes: the chain costs it a few words
// per block, under 2 B per transaction.
func TestBlockStoreFileHeapPerTx(t *testing.T) {
	bs, err := OpenFileStore(filepath.Join(t.TempDir(), "db.blocks"))
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	heap, perTx := chainHeapPerTx(t, bs)
	t.Logf("retained %.2f B per transaction, encoded %.1f B (in the file)", heap, perTx)
	if heap > 2 {
		t.Fatalf("the file-backed store retains %.2f B per transaction, want at most 2", heap)
	}
}

// TestBlockStoreRetainsCanonicalBytes: what catch-up sends is the
// appended block's canonical encoding at its exact length — kept by an
// in-memory store, and read back from its file by a file-backed one as
// appended, after a reopen, and after a torn tail was cut and the lost
// block appended again.
func TestBlockStoreRetainsCanonicalBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.blocks")
	file, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewBlockStore()
	var blocks []*Block
	var prev Hash
	for n := uint64(1); n <= chainBlocks; n++ {
		b := chainBlock(n, prev)
		if err := mem.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := file.Append(b); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		prev = b.Hash
	}
	canonical := func(stage string, bs *BlockStore, height uint64) {
		t.Helper()
		if bs.Height() != height {
			t.Fatalf("%s: height %d, want %d", stage, bs.Height(), height)
		}
		for _, b := range blocks[:height] {
			want := b.Encode()
			enc, err := bs.Encoded(b.Number)
			if err != nil || !bytes.Equal(enc, want) || len(enc) != cap(enc) {
				t.Fatalf("%s: block %d: Encoded = %d bytes (capacity %d), %v; its encoding is %d bytes",
					stage, b.Number, len(enc), cap(enc), err, len(want))
			}
			got, err := bs.Get(b.Number)
			if err != nil || !bytes.Equal(got.Encode(), want) {
				t.Fatalf("%s: block %d: Get = %v, %v", stage, b.Number, got, err)
			}
		}
		if _, err := bs.Encoded(height + 1); !errors.Is(err, ErrNoBlock) {
			t.Fatalf("%s: Encoded past the tip: err = %v", stage, err)
		}
	}
	canonical("memory", mem, chainBlocks)
	canonical("file, as appended", file, chainBlocks)
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	canonical("file, reopened", re, chainBlocks)
	re.Close()

	frames, end, err := wal.Scan(path)
	if err != nil || len(frames) != chainBlocks {
		t.Fatalf("scan: %d frames, %v", len(frames), err)
	}
	if err := os.Truncate(path, (frames[chainBlocks-1].Off+end)/2); err != nil {
		t.Fatal(err)
	}
	torn, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer torn.Close()
	canonical("file, torn tail cut", torn, chainBlocks-1)
	if err := torn.Append(blocks[chainBlocks-1]); err != nil {
		t.Fatal(err)
	}
	canonical("file, cut block appended again", torn, chainBlocks)
}

// TestBlockStoreEncodedAfterClose: a closed file-backed store has no
// bytes to serve; reading a block back fails instead of panicking or
// answering from stale memory.
func TestBlockStoreEncodedAfterClose(t *testing.T) {
	path, _, _ := tenBlockFile(t)
	bs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	if enc, err := bs.Encoded(3); err == nil {
		t.Fatalf("Encoded after Close returned %d bytes and no error", len(enc))
	}
	if b, err := bs.Get(3); err == nil {
		t.Fatalf("Get after Close returned block %d and no error", b.Number)
	}
}

// BenchmarkBlockStoreGet is the cost of reading an old block back: one
// decode of a 100-transaction block, and on a file-backed store the
// pread of its encoding before that.
func BenchmarkBlockStoreGet(b *testing.B) {
	file, err := OpenFileStore(filepath.Join(b.TempDir(), "db.blocks"))
	if err != nil {
		b.Fatal(err)
	}
	defer file.Close()
	txs := make([]*Transaction, 100)
	for i := range txs {
		txs[i] = sampleTx(fmt.Sprint("tx-", i))
	}
	for _, bc := range []struct {
		name string
		bs   *BlockStore
	}{{"memory", NewBlockStore()}, {"file", file}} {
		if err := bc.bs.Append(sampleBlock(1, Hash{}, txs...)); err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := bc.bs.Get(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
