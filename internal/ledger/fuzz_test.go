package ledger

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bcrdb/internal/types"
	"bcrdb/internal/wal"
)

// twoBlockLog is a real block log: two blocks and the first one's outcome.
func twoBlockLog(f *testing.F) []byte {
	path := filepath.Join(f.TempDir(), "seed.blocks")
	bs, err := OpenFileStore(path)
	if err != nil {
		f.Fatal(err)
	}
	b1 := sampleBlock(1, Hash{}, sampleTx("a"), sampleTx("b"))
	b2 := sampleBlock(2, b1.Hash, sampleTx("c"))
	if err := bs.Append(b1); err != nil {
		f.Fatal(err)
	}
	if err := bs.AppendOutcome(1, Outcome{Committed: []byte{0b10}, WriteHash: Hash{7}}); err != nil {
		f.Fatal(err)
	}
	if err := bs.Append(b2); err != nil {
		f.Fatal(err)
	}
	bs.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzOpenChainLog opens arbitrary bytes as a block log — the bytes a
// restart trusts. It must never panic, and never allocate more than a
// small multiple of the bytes it was given (decoding turns a byte into at
// most a few dozen bytes of structs; no length field is trusted beyond
// the file). Either it refuses and leaves the file as found, or it loads
// a prefix of the file — or a fresh log, when that prefix is empty — that
// reopens to the same chain without further change.
//
// Mutated bytes rarely pass a checksum, so with framed set the input is a
// list of uvarint-prefixed payloads, written as frames that check: that
// is what reaches the block and outcome decoders.
func FuzzOpenChainLog(f *testing.F) {
	log := twoBlockLog(f)
	f.Add(log, false)
	f.Add(log[:len(log)/2], false)
	block := sampleBlock(1, Hash{}, sampleTx("a")).Encode()
	f.Add(block, false) // what DecodeBlock reads: no log header
	frames, _, err := wal.Scan(writeSeed(f, log))
	if err != nil {
		f.Fatal(err)
	}
	var payloads []byte
	for _, fr := range frames {
		payloads = binary.AppendUvarint(payloads, uint64(len(fr.Payload)))
		payloads = append(payloads, fr.Payload...)
	}
	f.Add(payloads, true)
	f.Add(append(binary.AppendUvarint(nil, uint64(len(block))), block...), true) // a frame without its kind
	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		path := writeSeed(t, data)
		if framed {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			lg, err := wal.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			for d := data; len(d) > 0; {
				n, k := binary.Uvarint(d)
				if k <= 0 || n > uint64(len(d)-k) {
					break
				}
				if err := lg.AppendRaw(d[k : k+int(n)]); err != nil {
					t.Fatal(err)
				}
				d = d[k+int(n):]
			}
			lg.Close()
			if data, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		var bs *BlockStore
		var err error
		if alloc := allocated(func() { bs, err = OpenFileStore(path) }); alloc > allocBound(len(data)) {
			t.Fatalf("opening %d bytes allocated %d", len(data), alloc)
		}
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, data) {
				t.Fatalf("refused (%v), but the file changed from %d to %d bytes", err, len(data), len(after))
			}
			return
		}
		bs.Close()
		if !bytes.HasPrefix(data, after) && (bs.Height() != 0 || len(after) <= len(data)) {
			t.Fatalf("loaded %d blocks from %d bytes, leaving %d bytes that are not a prefix of them", bs.Height(), len(data), len(after))
		}
		re, err := OpenFileStore(path)
		if err != nil {
			t.Fatalf("the loaded prefix does not reopen: %v", err)
		}
		defer re.Close()
		if re.Height() != bs.Height() || re.last != bs.last {
			t.Fatalf("reopened at %d blocks, loaded %d", re.Height(), bs.Height())
		}
		for n := uint64(1); n <= bs.Height(); n++ {
			o1, ok1 := bs.Outcome(n)
			o2, ok2 := re.Outcome(n)
			if ok1 != ok2 || !bytes.Equal(o1.Committed, o2.Committed) || o1.WriteHash != o2.WriteHash {
				t.Fatalf("block %d: outcome %+v (%v) reopened as %+v (%v)", n, o1, ok1, o2, ok2)
			}
		}
		if again, _ := os.ReadFile(path); !bytes.Equal(again, after) {
			t.Fatal("reopening changed the file")
		}
	})
}

func writeSeed(tb testing.TB, data []byte) string {
	path := filepath.Join(tb.TempDir(), "db.blocks")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// allocBound is what decoding n untrusted bytes may allocate: a byte
// becomes at most a few dozen bytes of structs, and no length field is
// trusted beyond the input.
func allocBound(n int) uint64 { return 64<<10 + 128*uint64(n) }

// allocated runs f and returns the bytes it allocated.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// FuzzDecodeBlock decodes arbitrary bytes as a block — what a peer's
// block delivery or catch-up response carries. It must never panic nor
// allocate beyond allocBound, and a block it accepts encodes to bytes
// that decode to the same block and encode to themselves again.
func FuzzDecodeBlock(f *testing.F) {
	b := sampleBlock(2, Hash{1}, sampleTx("a"), sampleTx("b"))
	b.Sigs = []BlockSig{{Orderer: "ord1", Signature: []byte{7, 8}}}
	f.Add(b.Encode())
	f.Add(sampleBlock(1, Hash{}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		var b *Block
		var err error
		if alloc := allocated(func() { b, err = DecodeBlock(data) }); alloc > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		enc := b.Encode()
		again, err := DecodeBlock(enc)
		if err != nil {
			t.Fatalf("an accepted block's encoding does not decode: %v", err)
		}
		if !sameBlock(b, again) || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("block %+v came back as %+v", b, again)
		}
	})
}

// FuzzUnmarshalTransaction decodes arbitrary bytes as a transaction —
// what a client submission or a peer's forward carries — under the same
// rules as FuzzDecodeBlock.
func FuzzUnmarshalTransaction(f *testing.F) {
	f.Add(MarshalTransaction(sampleTx("a")))
	f.Add(MarshalTransaction(&Transaction{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tx *Transaction
		var err error
		if alloc := allocated(func() { tx, err = UnmarshalTransaction(data) }); alloc > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		enc := MarshalTransaction(tx)
		again, err := UnmarshalTransaction(enc)
		if err != nil {
			t.Fatalf("an accepted transaction's encoding does not decode: %v", err)
		}
		if !sameTx(tx, again) || !bytes.Equal(MarshalTransaction(again), enc) {
			t.Fatalf("transaction %+v came back as %+v", tx, again)
		}
	})
}

// sameTx compares every field of two transactions, argument kinds too.
func sameTx(t, o *Transaction) bool {
	if t.ID != o.ID || t.Username != o.Username || t.Contract != o.Contract ||
		t.Snapshot != o.Snapshot || !bytes.Equal(t.Signature, o.Signature) ||
		len(t.Args) != len(o.Args) {
		return false
	}
	for i := range t.Args {
		if types.Compare(t.Args[i], o.Args[i]) != 0 || t.Args[i].Kind() != o.Args[i].Kind() {
			return false
		}
	}
	return true
}

// sameBlock compares every field of two blocks.
func sameBlock(a, b *Block) bool {
	if a.Number != b.Number || a.PrevHash != b.PrevHash || a.Timestamp != b.Timestamp || a.Hash != b.Hash ||
		len(a.Txs) != len(b.Txs) || len(a.Checkpoints) != len(b.Checkpoints) || len(a.Sigs) != len(b.Sigs) {
		return false
	}
	for i := range a.Txs {
		if !sameTx(a.Txs[i], b.Txs[i]) {
			return false
		}
	}
	for i, c := range a.Checkpoints {
		o := b.Checkpoints[i]
		if c.Peer != o.Peer || c.Block != o.Block || c.WriteHash != o.WriteHash || !bytes.Equal(c.Signature, o.Signature) {
			return false
		}
	}
	for i, s := range a.Sigs {
		if s.Orderer != b.Sigs[i].Orderer || !bytes.Equal(s.Signature, b.Sigs[i].Signature) {
			return false
		}
	}
	return true
}
