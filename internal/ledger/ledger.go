// Package ledger defines the blockchain structures: signed transaction
// envelopes, blocks chained by hash, checkpoint messages (§3.3.4) and the
// append-only block store (the paper's pgBlockstore), with optional file
// persistence for crash recovery (§3.6).
//
// All hashed or signed material uses the canonical codec encoding, so
// every replica computes identical digests.
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"

	"bcrdb/internal/codec"
	"bcrdb/internal/types"
)

// Hash is a SHA-256 digest.
type Hash [32]byte

// String renders the first bytes for diagnostics.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:8]) }

// Transaction is a client-signed contract invocation (§3.3, §3.4).
type Transaction struct {
	// ID uniquely identifies the transaction. In the
	// execute-order-in-parallel flow it is hash(username, contract, args,
	// snapshot) so two distinct submissions can never collide on purpose
	// (§3.4.3); in order-then-execute it is client-chosen but must be
	// unique.
	ID       string
	Username string
	Contract string
	Args     []types.Value
	// Snapshot is the block height the transaction must execute against
	// (execute-order-in-parallel only; 0 means "the pre-block state" of
	// the order-then-execute flow).
	Snapshot int64
	// Signature is the client's Ed25519 signature over SignBytes.
	Signature []byte
}

// argsToRow converts the argument list for encoding.
func (t *Transaction) argsToRow() types.Row { return types.Row(t.Args) }

// SignBytes returns the canonical bytes covered by the client signature:
// hash input (a, b, c, d) per §3.4.
func (t *Transaction) SignBytes() []byte {
	e := codec.NewBuf(128)
	e.String(t.ID)
	e.String(t.Username)
	e.String(t.Contract)
	e.Row(t.argsToRow())
	e.Varint(t.Snapshot)
	return e.Bytes()
}

// ComputeID derives the deterministic transaction id of the
// execute-order-in-parallel flow: hash(username, contract, args,
// snapshot) (§3.4.3).
func ComputeID(username, contract string, args []types.Value, snapshot int64) string {
	e := codec.NewBuf(128)
	e.String(username)
	e.String(contract)
	e.Row(types.Row(args))
	e.Varint(snapshot)
	sum := sha256.Sum256(e.Bytes())
	return fmt.Sprintf("%x", sum[:16])
}

// Encode appends the canonical encoding of the transaction.
func (t *Transaction) Encode(e *codec.Buf) {
	e.String(t.ID)
	e.String(t.Username)
	e.String(t.Contract)
	e.Row(t.argsToRow())
	e.Varint(t.Snapshot)
	e.Bytes2(t.Signature)
}

// DecodeTransaction reads one transaction.
func DecodeTransaction(d *codec.Dec) *Transaction {
	t := &Transaction{}
	t.ID = d.String()
	t.Username = d.String()
	t.Contract = d.String()
	t.Args = []types.Value(d.Row())
	t.Snapshot = d.Varint()
	t.Signature = d.Bytes2()
	return t
}

// MarshalTransaction encodes a transaction standalone.
func MarshalTransaction(t *Transaction) []byte {
	e := codec.NewBuf(256)
	t.Encode(e)
	return e.Bytes()
}

// UnmarshalTransaction decodes a standalone transaction encoding.
func UnmarshalTransaction(data []byte) (*Transaction, error) {
	d := codec.NewDec(data)
	t := DecodeTransaction(d)
	if err := d.Done(); err != nil {
		return nil, err
	}
	return t, nil
}

// Checkpoint is a peer's write-set digest for one block (§3.3.4). Peers
// submit these to the ordering service; they ride in the metadata of
// subsequent blocks so every node can cross-check every other node.
type Checkpoint struct {
	Peer      string
	Block     uint64
	WriteHash Hash
	Signature []byte
}

// SignBytes returns the signed portion of the checkpoint.
func (c *Checkpoint) SignBytes() []byte {
	e := codec.NewBuf(64)
	e.String(c.Peer)
	e.Uvarint(c.Block)
	e.Bytes2(c.WriteHash[:])
	return e.Bytes()
}

// Encode appends the canonical encoding.
func (c *Checkpoint) Encode(e *codec.Buf) {
	e.String(c.Peer)
	e.Uvarint(c.Block)
	e.Bytes2(c.WriteHash[:])
	e.Bytes2(c.Signature)
}

// DecodeCheckpoint reads one checkpoint.
func DecodeCheckpoint(d *codec.Dec) *Checkpoint {
	c := &Checkpoint{}
	c.Peer = d.String()
	c.Block = uint64(d.Uvarint())
	h := d.Bytes2()
	if len(h) == 32 {
		copy(c.WriteHash[:], h)
	}
	c.Signature = d.Bytes2()
	return c
}

// MarshalCheckpoint encodes a checkpoint standalone.
func MarshalCheckpoint(c *Checkpoint) []byte {
	e := codec.NewBuf(128)
	c.Encode(e)
	return e.Bytes()
}

// UnmarshalCheckpoint decodes a standalone checkpoint encoding.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	d := codec.NewDec(data)
	c := DecodeCheckpoint(d)
	if err := d.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// BlockSig is an orderer signature over a block hash.
type BlockSig struct {
	Orderer   string
	Signature []byte
}

// Block is one ordered batch of transactions (§3.1): sequence number,
// transactions, consensus metadata, previous hash, own hash, orderer
// signatures.
type Block struct {
	Number      uint64
	PrevHash    Hash
	Timestamp   int64 // unix nanoseconds, assigned by the ordering leader
	Txs         []*Transaction
	Checkpoints []*Checkpoint // §3.3.4: state hashes from earlier blocks
	Hash        Hash
	Sigs        []BlockSig
}

// hashInput returns the canonical bytes that Hash covers: (a, b, c, d) of
// §3.1 — number, transactions, metadata, previous hash.
func (b *Block) hashInput() []byte {
	e := codec.NewBuf(512)
	e.Uvarint(b.Number)
	e.Bytes2(b.PrevHash[:])
	e.Varint(b.Timestamp)
	e.Uvarint(uint64(len(b.Txs)))
	for _, t := range b.Txs {
		t.Encode(e)
	}
	e.Uvarint(uint64(len(b.Checkpoints)))
	for _, c := range b.Checkpoints {
		c.Encode(e)
	}
	return e.Bytes()
}

// ComputeHash fills in the block hash.
func (b *Block) ComputeHash() {
	b.Hash = sha256.Sum256(b.hashInput())
}

// VerifyHash recomputes and compares the hash and previous-hash linkage.
func (b *Block) VerifyHash(prev Hash) error {
	if b.PrevHash != prev {
		return fmt.Errorf("ledger: block %d: previous hash mismatch", b.Number)
	}
	want := sha256.Sum256(b.hashInput())
	if b.Hash != want {
		return fmt.Errorf("ledger: block %d: hash mismatch", b.Number)
	}
	return nil
}

// Encode returns the canonical encoding of the whole block.
func (b *Block) Encode() []byte {
	e := codec.NewBuf(1024)
	e.Uvarint(b.Number)
	e.Bytes2(b.PrevHash[:])
	e.Varint(b.Timestamp)
	e.Uvarint(uint64(len(b.Txs)))
	for _, t := range b.Txs {
		t.Encode(e)
	}
	e.Uvarint(uint64(len(b.Checkpoints)))
	for _, c := range b.Checkpoints {
		c.Encode(e)
	}
	e.Bytes2(b.Hash[:])
	e.Uvarint(uint64(len(b.Sigs)))
	for _, s := range b.Sigs {
		e.String(s.Orderer)
		e.Bytes2(s.Signature)
	}
	return e.Bytes()
}

// DecodeBlock parses a canonical block encoding.
func DecodeBlock(data []byte) (*Block, error) {
	d := codec.NewDec(data)
	b := &Block{}
	b.Number = d.Uvarint()
	ph := d.Bytes2()
	if len(ph) == 32 {
		copy(b.PrevHash[:], ph)
	}
	b.Timestamp = d.Varint()
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		b.Txs = append(b.Txs, DecodeTransaction(d))
	}
	n = d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		b.Checkpoints = append(b.Checkpoints, DecodeCheckpoint(d))
	}
	h := d.Bytes2()
	if len(h) == 32 {
		copy(b.Hash[:], h)
	}
	n = d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		s := BlockSig{Orderer: d.String(), Signature: d.Bytes2()}
		b.Sigs = append(b.Sigs, s)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return b, nil
}

// --- block store ------------------------------------------------------------------

// Store errors.
var (
	ErrOutOfSequence = errors.New("ledger: block out of sequence")
	ErrNoBlock       = errors.New("ledger: no such block")
)

// BlockStore is the node's append-only block log (pgBlockstore). It is
// safe for concurrent use. With a backing file every append is written
// through, so a restarted node recovers its chain (§3.6).
type BlockStore struct {
	mu     sync.RWMutex
	blocks []*Block // blocks[i] has Number i+1
	file   *os.File
	// end is the file offset after the last whole block: where the next
	// frame goes, and where a torn or failed write is cut away.
	end int64
}

// NewBlockStore returns an in-memory store.
func NewBlockStore() *BlockStore { return &BlockStore{} }

// OpenFileStore opens (or creates) a file-backed store and loads any
// existing chain, verifying hashes and linkage.
func OpenFileStore(path string) (*BlockStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	bs := &BlockStore{file: f}
	if err := bs.load(); err != nil {
		f.Close()
		return nil, err
	}
	return bs, nil
}

// Close releases the backing file, if any.
func (bs *BlockStore) Close() error {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.file != nil {
		err := bs.file.Close()
		bs.file = nil
		return err
	}
	return nil
}

// load reads the chain from the backing file. A frame is a 4-byte
// big-endian length and that many bytes of Block.Encode; the format has
// no checksum, so load tells damage from a crash by position: a final
// frame that runs past end-of-file, or that does not decode and has
// nothing after it, is the torn write of a crash and is cut away (the
// block comes back by catch-up); anything wrong before the tail is
// corruption, reported with its position, and the file is left as found.
func (bs *BlockStore) load() error {
	st, err := bs.file.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	var prev Hash
	for bs.end < size {
		// rest bounds the length before anything is allocated from it.
		rest := size - bs.end - 4
		if rest < 0 {
			break
		}
		var lenBuf [4]byte
		if _, err := bs.file.ReadAt(lenBuf[:], bs.end); err != nil {
			return err
		}
		n := int64(binary.BigEndian.Uint32(lenBuf[:]))
		if n > rest {
			break
		}
		data := make([]byte, n)
		if _, err := bs.file.ReadAt(data, bs.end+4); err != nil {
			return err
		}
		b, err := DecodeBlock(data)
		if err != nil && n == rest {
			break
		}
		if err == nil && b.Number != uint64(len(bs.blocks))+1 {
			err = fmt.Errorf("%w: it holds block %d", ErrOutOfSequence, b.Number)
		}
		if err == nil {
			err = b.VerifyHash(prev)
		}
		if err != nil {
			return fmt.Errorf("ledger: block store %s: block %d (offset %d of %d) is damaged, file left untouched: %w",
				bs.file.Name(), len(bs.blocks)+1, bs.end, size, err)
		}
		prev = b.Hash
		bs.blocks = append(bs.blocks, b)
		bs.end += 4 + n
	}
	if bs.end < size {
		return bs.file.Truncate(bs.end)
	}
	return nil
}

// Append adds the next block. The block number must be exactly
// Height()+1 and its hash linkage must verify.
func (bs *BlockStore) Append(b *Block) error {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if b.Number != uint64(len(bs.blocks))+1 {
		return fmt.Errorf("%w: got %d, want %d", ErrOutOfSequence, b.Number, len(bs.blocks)+1)
	}
	var prev Hash
	if len(bs.blocks) > 0 {
		prev = bs.blocks[len(bs.blocks)-1].Hash
	}
	if err := b.VerifyHash(prev); err != nil {
		return err
	}
	if bs.file != nil {
		data := b.Encode()
		var lenBuf [4]byte
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(data)))
		_, err := bs.file.WriteAt(lenBuf[:], bs.end)
		if err == nil {
			_, err = bs.file.WriteAt(data, bs.end+4)
		}
		if err != nil {
			// Cut the half-written frame away; the next Append writes at
			// the same offset whether or not this succeeds.
			_ = bs.file.Truncate(bs.end)
			return err
		}
		bs.end += 4 + int64(len(data))
	}
	bs.blocks = append(bs.blocks, b)
	return nil
}

// Get returns block n (1-based).
func (bs *BlockStore) Get(n uint64) (*Block, error) {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	if n < 1 || n > uint64(len(bs.blocks)) {
		return nil, fmt.Errorf("%w: %d", ErrNoBlock, n)
	}
	return bs.blocks[n-1], nil
}

// Height returns the number of the newest block (0 when empty).
func (bs *BlockStore) Height() uint64 {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	return uint64(len(bs.blocks))
}

// LastHash returns the hash of the newest block (zero when empty).
func (bs *BlockStore) LastHash() Hash {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	if len(bs.blocks) == 0 {
		return Hash{}
	}
	return bs.blocks[len(bs.blocks)-1].Hash
}

// VerifyChain rechecks the whole chain's hashes and linkage, returning
// the first broken block number (0 = intact). Used to detect tampering
// (§3.5(6)).
func (bs *BlockStore) VerifyChain() (uint64, error) {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	var prev Hash
	for _, b := range bs.blocks {
		if err := b.VerifyHash(prev); err != nil {
			return b.Number, err
		}
		prev = b.Hash
	}
	return 0, nil
}

// Equal reports whether two transactions are identical (for tests and
// dedup checks).
func (t *Transaction) Equal(o *Transaction) bool {
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
