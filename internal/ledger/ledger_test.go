package ledger

import (
	"errors"
	"path/filepath"
	"testing"

	"bcrdb/internal/codec"
	"bcrdb/internal/types"
)

func sampleTx(id string) *Transaction {
	return &Transaction{
		ID:        id,
		Username:  "alice",
		Contract:  "transfer",
		Args:      []types.Value{types.NewInt(1), types.NewInt(2), types.NewFloat(3.5)},
		Snapshot:  7,
		Signature: []byte{1, 2, 3},
	}
}

func sampleBlock(n uint64, prev Hash, txs ...*Transaction) *Block {
	b := &Block{
		Number:    n,
		PrevHash:  prev,
		Timestamp: 1700000000_000000000 + int64(n),
		Txs:       txs,
		Checkpoints: []*Checkpoint{
			{Peer: "peer1", Block: n - 1, WriteHash: Hash{9}, Signature: []byte{4}},
		},
	}
	b.ComputeHash()
	return b
}

func TestTransactionEncodeDecode(t *testing.T) {
	tx := sampleTx("t1")
	b := tx.Encode
	_ = b
	e := encodeTx(tx)
	d, err := decodeTx(e)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTx(tx, d) {
		t.Fatalf("round trip mismatch: %+v vs %+v", tx, d)
	}
}

func encodeTx(tx *Transaction) []byte {
	blk := &Block{Number: 1, Txs: []*Transaction{tx}}
	blk.ComputeHash()
	return blk.Encode()
}

func decodeTx(data []byte) (*Transaction, error) {
	blk, err := DecodeBlock(data)
	if err != nil {
		return nil, err
	}
	return blk.Txs[0], nil
}

func TestComputeIDDeterministic(t *testing.T) {
	args := []types.Value{types.NewInt(1)}
	a := ComputeID("alice", "f", args, 5)
	b := ComputeID("alice", "f", args, 5)
	if a != b {
		t.Error("same inputs must give same id")
	}
	if ComputeID("alice", "f", args, 6) == a {
		t.Error("different snapshot must change id")
	}
	if ComputeID("bob", "f", args, 5) == a {
		t.Error("different user must change id")
	}
	if ComputeID("alice", "g", args, 5) == a {
		t.Error("different contract must change id")
	}
}

func TestBlockHashAndChain(t *testing.T) {
	b1 := sampleBlock(1, Hash{})
	b2 := sampleBlock(2, b1.Hash, sampleTx("t1"))
	if err := b1.VerifyHash(Hash{}); err != nil {
		t.Fatal(err)
	}
	if err := b2.VerifyHash(b1.Hash); err != nil {
		t.Fatal(err)
	}
	// Tampering with a transaction breaks the hash.
	b2.Txs[0].Args[0] = types.NewInt(999)
	if err := b2.VerifyHash(b1.Hash); err == nil {
		t.Fatal("tampered block passed verification")
	}
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	b := sampleBlock(3, Hash{1, 2}, sampleTx("a"), sampleTx("b"))
	b.Sigs = []BlockSig{{Orderer: "ord1", Signature: []byte{7, 8}}}
	data := b.Encode()
	got, err := DecodeBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Number != 3 || got.PrevHash != b.PrevHash || got.Hash != b.Hash ||
		got.Timestamp != b.Timestamp || len(got.Txs) != 2 || len(got.Sigs) != 1 {
		t.Fatalf("decoded = %+v", got)
	}
	if !sameTx(got.Txs[0], b.Txs[0]) {
		t.Error("tx mismatch after round trip")
	}
	if got.Checkpoints[0].Peer != "peer1" || got.Checkpoints[0].WriteHash != b.Checkpoints[0].WriteHash {
		t.Error("checkpoint mismatch after round trip")
	}
	if _, err := DecodeBlock(data[:len(data)-2]); err == nil {
		t.Error("truncated block should fail to decode")
	}
}

func TestBlockStoreAppendGet(t *testing.T) {
	bs := NewBlockStore()
	b1 := sampleBlock(1, Hash{})
	if err := bs.Append(b1); err != nil {
		t.Fatal(err)
	}
	b2 := sampleBlock(2, b1.Hash)
	if err := bs.Append(b2); err != nil {
		t.Fatal(err)
	}
	if bs.Height() != 2 || bs.last != b2.Hash {
		t.Fatalf("height=%d", bs.Height())
	}
	got, err := bs.Get(1)
	if err != nil || got.Number != 1 {
		t.Fatal(err)
	}
	if _, err := bs.Get(3); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("err = %v", err)
	}
	// Out of sequence.
	b4 := sampleBlock(4, b2.Hash)
	if err := bs.Append(b4); !errors.Is(err, ErrOutOfSequence) {
		t.Fatalf("err = %v", err)
	}
	// Bad linkage.
	b3 := sampleBlock(3, Hash{0xFF})
	if err := bs.Append(b3); err == nil {
		t.Fatal("bad prev hash accepted")
	}
	if n, err := bs.VerifyChain(); n != 0 || err != nil {
		t.Fatalf("VerifyChain = %d, %v", n, err)
	}
}

func TestFileStorePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blocks.dat")
	bs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	b1 := sampleBlock(1, Hash{}, sampleTx("t1"))
	b2 := sampleBlock(2, b1.Hash, sampleTx("t2"))
	if err := bs.Append(b1); err != nil {
		t.Fatal(err)
	}
	if err := bs.Append(b2); err != nil {
		t.Fatal(err)
	}
	bs.Close()

	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Height() != 2 {
		t.Fatalf("reloaded height = %d", re.Height())
	}
	got, _ := re.Get(2)
	if !sameTx(got.Txs[0], b2.Txs[0]) {
		t.Error("tx lost in reload")
	}
	// Appending continues after reload.
	b3 := sampleBlock(3, b2.Hash)
	if err := re.Append(b3); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointSignBytes(t *testing.T) {
	c1 := &Checkpoint{Peer: "p", Block: 5, WriteHash: Hash{1}}
	c2 := &Checkpoint{Peer: "p", Block: 5, WriteHash: Hash{2}}
	if string(c1.SignBytes()) == string(c2.SignBytes()) {
		t.Error("different write hashes must sign differently")
	}
}

func TestTransactionSignBytesCoverAllFields(t *testing.T) {
	base := sampleTx("t")
	mutate := []func(*Transaction){
		func(t *Transaction) { t.ID = "other" },
		func(t *Transaction) { t.Username = "bob" },
		func(t *Transaction) { t.Contract = "g" },
		func(t *Transaction) { t.Args[0] = types.NewInt(99) },
		func(t *Transaction) { t.Snapshot = 123 },
	}
	for i, m := range mutate {
		tx := sampleTx("t")
		m(tx)
		if string(tx.SignBytes()) == string(base.SignBytes()) {
			t.Errorf("mutation %d not covered by SignBytes", i)
		}
	}
}

// TestMisSizedHashFieldsRefused: a hash field is 32 bytes or the encoding
// is corrupt. A shorter field used to decode as the zero hash, so block 1
// with an empty PrevHash field hashed canonically and entered the chain.
func TestMisSizedHashFieldsRefused(t *testing.T) {
	b1 := sampleBlock(1, Hash{}, sampleTx("a"))
	enc := b1.Encode()
	if enc[0] != 1 || enc[1] != 32 {
		t.Fatalf("block 1 does not start with its number and a 32-byte PrevHash: % x", enc[:2])
	}
	emptyPrev := append([]byte{enc[0], 0}, enc[2+32:]...)
	if got, err := DecodeBlock(emptyPrev); !errors.Is(err, codec.ErrCorrupt) {
		if err == nil {
			err = NewBlockStore().Append(got)
		}
		t.Errorf("block 1 with an empty PrevHash field: err = %v, want %v", err, codec.ErrCorrupt)
	}

	e := codec.NewBuf(64)
	e.String("peer1")
	e.Uvarint(4)
	e.Bytes2(make([]byte, 31))
	e.Bytes2([]byte{4})
	if _, err := UnmarshalCheckpoint(e.Bytes()); !errors.Is(err, codec.ErrCorrupt) {
		t.Errorf("a checkpoint with a 31-byte WriteHash: err = %v, want %v", err, codec.ErrCorrupt)
	}
}
