// Package ledger defines the blockchain structures: signed transaction
// envelopes, blocks chained by hash, checkpoint messages (§3.3.4) and the
// append-only block store (the paper's pgBlockstore), with optional file
// persistence for crash recovery (§3.6).
//
// All hashed or signed material uses the canonical codec encoding, so
// every replica computes identical digests. The block store keeps that
// encoding, not the decoded block: a block is decoded again only when an
// old one is asked for (recovery, sys_ledger queries, catch-up). A
// file-backed store does not hold the encoding in memory at all: its log
// already does, so it keeps each block's offset there and reads the bytes
// back when they are asked for.
package ledger

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"bcrdb/internal/codec"
	"bcrdb/internal/types"
	"bcrdb/internal/wal"
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

// decodeTransaction reads one transaction.
func decodeTransaction(d *codec.Dec) *Transaction {
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
	t := decodeTransaction(d)
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

// decodeCheckpoint reads one checkpoint; ok is false when its write hash
// is not a hash.
func decodeCheckpoint(d *codec.Dec) (c *Checkpoint, ok bool) {
	c = &Checkpoint{Peer: d.String(), Block: d.Uvarint()}
	ok = readHash(d, &c.WriteHash)
	c.Signature = d.Bytes2()
	return c, ok
}

// readHash reads a hash field into h: any other length is corrupt (ok
// false), never a zero hash.
func readHash(d *codec.Dec, h *Hash) (ok bool) {
	b := d.Bytes2()
	copy(h[:], b)
	return len(b) == len(h)
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
	c, ok := decodeCheckpoint(d)
	if err := d.Done(); err != nil {
		return nil, err
	}
	if !ok {
		return nil, codec.ErrCorrupt
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
	b.encodeHashed(e)
	return e.Bytes()
}

func (b *Block) encodeHashed(e *codec.Buf) {
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
}

// ComputeHash fills in the block hash.
func (b *Block) ComputeHash() {
	b.Hash = sha256.Sum256(b.hashInput())
}

// VerifyHash recomputes and compares the hash and previous-hash linkage.
func (b *Block) VerifyHash(prev Hash) error {
	return b.checkLink(prev, sha256.Sum256(b.hashInput()))
}

// checkLink compares the block's linkage with prev and its hash with sum,
// the digest of its hashInput.
func (b *Block) checkLink(prev, sum Hash) error {
	if b.PrevHash != prev {
		return fmt.Errorf("ledger: block %d: previous hash mismatch", b.Number)
	}
	if b.Hash != sum {
		return fmt.Errorf("ledger: block %d: hash mismatch", b.Number)
	}
	return nil
}

// Encode returns the canonical encoding of the whole block.
func (b *Block) Encode() []byte {
	e := codec.NewBuf(1024)
	b.encodeHashed(e)
	b.encodeSeal(e)
	return e.Bytes()
}

// encodeSeal appends what follows the hashed fields: the hash and the
// orderer signatures over it.
func (b *Block) encodeSeal(e *codec.Buf) {
	e.Bytes2(b.Hash[:])
	e.Uvarint(uint64(len(b.Sigs)))
	for _, s := range b.Sigs {
		e.String(s.Orderer)
		e.Bytes2(s.Signature)
	}
}

// DecodeBlock parses a canonical block encoding.
func DecodeBlock(data []byte) (*Block, error) {
	d := codec.NewDec(data)
	b := &Block{Number: d.Uvarint()}
	ok := readHash(d, &b.PrevHash)
	b.Timestamp = d.Varint()
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		b.Txs = append(b.Txs, decodeTransaction(d))
	}
	n = d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		c, cok := decodeCheckpoint(d)
		b.Checkpoints = append(b.Checkpoints, c)
		ok = ok && cok
	}
	ok = readHash(d, &b.Hash) && ok
	n = d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		s := BlockSig{Orderer: d.String(), Signature: d.Bytes2()}
		b.Sigs = append(b.Sigs, s)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if !ok {
		return nil, codec.ErrCorrupt
	}
	return b, nil
}

// --- block store ------------------------------------------------------------------

// Store errors.
var (
	ErrOutOfSequence = errors.New("ledger: block out of sequence")
	ErrNoBlock       = errors.New("ledger: no such block")
)

// Outcome is what sealing a block decided (§3.3.3, §3.3.4): which of its
// transactions committed, by position, and the digest of what they wrote.
// Abort reasons are not kept: nothing reads them back.
type Outcome struct {
	Committed []byte // bit i%8 of byte i/8: the block's i-th transaction committed
	WriteHash Hash
}

// Frame kinds of the block log.
const (
	frameBlock   byte = 1 // the block's encoding, appended at intake
	frameOutcome byte = 2 // block number, committed bits, write hash; appended at seal
)

// BlockStore is the node's chain (pgBlockstore): its blocks and the
// outcome of each sealed one. It is safe for concurrent use. A block is
// kept as its canonical encoding — the bytes that were hashed, logged and
// are served to catching-up peers — and is decoded again only when Get
// asks for it, so the chain costs a replica its bytes, not a decoded
// transaction per entry. With a backing file it is the node's durable log
// (§3.6): an internal/wal frame log in which every block's frame precedes
// its outcome's, and outcomes follow block order. A file-backed store
// keeps only where each encoding lies in that file and reads it back on
// demand, so the chain costs it no heap beyond a few words per block.
type BlockStore struct {
	mu       sync.RWMutex
	blocks   []storedBlock // blocks[i] has Number i+1
	last     Hash          // the newest block's hash
	outcomes []Outcome     // outcomes[i] belongs to block i+1
	log      *wal.Log      // nil: in memory only
	// logErr is the first failed write of an outcome frame. Later outcomes
	// are kept in memory only, so the log never holds one past a gap.
	logErr error
}

// storedBlock is one block as the store keeps it: its encoding in memory,
// or where that encoding lies in the backing file.
type storedBlock struct {
	enc  []byte // in memory: Block.Encode's bytes, owned by the store; len == cap
	off  int64  // with a file: the offset of the block's frame
	size int    // with a file: the length of its encoding
	ntx  int    // its transaction count: one committed bit each
}

// NewBlockStore returns an in-memory store.
func NewBlockStore() *BlockStore { return &BlockStore{} }

// OpenFileStore opens (or creates) a file-backed store and loads its
// chain, verifying every block's hash and linkage and every outcome
// against its block. A torn tail — the frame a crash was writing — is cut
// away (the block returns by catch-up, the outcome by replay); anything
// wrong before it is an error naming the file and the block, and the
// file is left as found.
func OpenFileStore(path string) (*BlockStore, error) {
	frames, end, err := wal.Scan(path)
	bs := &BlockStore{}
	for _, f := range frames {
		if lerr := bs.load(f); lerr != nil {
			what := fmt.Sprintf("block %d", len(bs.blocks)+1)
			if bytes.HasPrefix(f.Payload, []byte{frameOutcome}) {
				what = fmt.Sprintf("the outcome of block %d", len(bs.outcomes)+1)
			}
			return nil, fmt.Errorf("ledger: %s: %s (offset %d) is damaged, file left untouched: %w", path, what, f.Off, lerr)
		}
	}
	if errors.Is(err, wal.ErrCorrupt) {
		return nil, fmt.Errorf("ledger: the frame after block %d: %w", len(bs.blocks), err)
	}
	if err == nil {
		err = wal.CutTail(path, end)
	}
	if err == nil {
		bs.log, err = wal.Open(path)
	}
	if err != nil {
		return nil, err
	}
	return bs, nil
}

// load applies one frame of the backing file (bs.log is not open yet). A
// block frame must hold the canonical encoding of the block it decodes
// to: those bytes are what Encoded serves without decoding them again.
func (bs *BlockStore) load(f wal.Frame) error {
	p := f.Payload
	if len(p) > 0 && p[0] == frameBlock {
		b, err := DecodeBlock(p[1:])
		if err != nil {
			return err
		}
		frame, sum := encodeFrame(b)
		if !bytes.Equal(frame, p) {
			return codec.ErrCorrupt
		}
		bs.mu.Lock()
		defer bs.mu.Unlock()
		return bs.addLocked(b, sum, storedBlock{off: f.Off, size: len(p) - 1, ntx: len(b.Txs)}, nil)
	}
	if len(p) > 0 && p[0] == frameOutcome {
		d := codec.NewDec(p[1:])
		n := d.Uvarint()
		o := Outcome{Committed: d.Bytes2()}
		ok := readHash(d, &o.WriteHash)
		if err := d.Done(); err != nil || !ok {
			return codec.ErrCorrupt
		}
		return bs.AppendOutcome(n, o)
	}
	return codec.ErrCorrupt
}

// Close releases the backing file, if any. Later appends fail, and so do
// a file-backed store's Get and Encoded.
func (bs *BlockStore) Close() error {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.log == nil {
		return nil
	}
	return bs.log.Close()
}

// Append adds the next block. The block number must be exactly
// Height()+1 and its hash linkage must verify. The block is encoded once:
// the hashed prefix of that encoding is what its hash is checked against,
// the whole of it is the block's log frame, and an in-memory store keeps
// a copy of it. b stays the caller's.
func (bs *BlockStore) Append(b *Block) error {
	frame, sum := encodeFrame(b)
	rec := storedBlock{size: len(frame) - 1, ntx: len(b.Txs)}
	if bs.log == nil {
		rec.enc = append(make([]byte, 0, rec.size), frame[1:]...)
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.addLocked(b, sum, rec, frame)
}

// encodeFrame returns b's block-log frame payload — the kind byte, then
// the block's encoding — and the digest of its hashed prefix.
func encodeFrame(b *Block) (frame []byte, sum Hash) {
	e := codec.NewBuf(256 + 192*len(b.Txs)) // 192: about one transaction's encoding
	e.Byte(frameBlock)
	b.encodeHashed(e)
	sum = sha256.Sum256(e.Bytes()[1:])
	b.encodeSeal(e)
	return e.Bytes(), sum
}

// addLocked checks that b, whose hashed prefix digests to sum, is the
// next block, writes frame to the log (loading passes nil: the frame is
// already there), and records rec.
func (bs *BlockStore) addLocked(b *Block, sum Hash, rec storedBlock, frame []byte) error {
	if b.Number != uint64(len(bs.blocks))+1 {
		return fmt.Errorf("%w: got %d, want %d", ErrOutOfSequence, b.Number, len(bs.blocks)+1)
	}
	if err := b.checkLink(bs.last, sum); err != nil {
		return err
	}
	if frame != nil && bs.log != nil {
		off, err := bs.log.Append(frame)
		if err != nil {
			return err
		}
		rec.off = off
	}
	bs.blocks = append(bs.blocks, rec)
	bs.last = b.Hash
	return nil
}

// AppendOutcome records the outcome of block n: the oldest block without
// one, with one committed bit per transaction. The store keeps an outcome
// of the right shape even when writing its frame fails, since the chain's
// readers take it from here; the write error is returned, for this
// outcome and every later one, none of which reach the log.
func (bs *BlockStore) AppendOutcome(n uint64, o Outcome) error {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if n != uint64(len(bs.outcomes))+1 || n > uint64(len(bs.blocks)) {
		return fmt.Errorf("%w: the outcome of block %d, want block %d's (chain at %d)", ErrOutOfSequence, n, len(bs.outcomes)+1, len(bs.blocks))
	}
	if want := (bs.blocks[n-1].ntx + 7) / 8; len(o.Committed) != want {
		return fmt.Errorf("ledger: the outcome of block %d has %d bytes of committed bits, the block needs %d", n, len(o.Committed), want)
	}
	if bs.log != nil && bs.logErr == nil {
		e := codec.NewBuf(48 + len(o.Committed))
		e.Byte(frameOutcome)
		e.Uvarint(n)
		e.Bytes2(o.Committed)
		e.Bytes2(o.WriteHash[:])
		bs.logErr = bs.log.AppendRaw(e.Bytes())
	}
	bs.outcomes = append(bs.outcomes, o)
	return bs.logErr
}

// Outcome returns the recorded outcome of block n, if there is one.
func (bs *BlockStore) Outcome(n uint64) (Outcome, bool) {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	if n < 1 || n > uint64(len(bs.outcomes)) {
		return Outcome{}, false
	}
	return bs.outcomes[n-1], true
}

// Sync makes every frame written so far durable. It does not hold the
// store's lock, so appends and reads go on beside the fsync.
func (bs *BlockStore) Sync() error {
	bs.mu.RLock()
	log := bs.log
	bs.mu.RUnlock()
	if log == nil {
		return nil
	}
	return log.Sync()
}

// Get returns block n (1-based), decoded afresh: the caller owns it.
func (bs *BlockStore) Get(n uint64) (*Block, error) {
	enc, err := bs.Encoded(n)
	if err != nil {
		return nil, err
	}
	return DecodeBlock(enc)
}

// Encoded returns block n's canonical encoding — what catch-up sends to a
// peer. An in-memory store returns the bytes it keeps, which the caller
// must not modify; a file-backed one reads them back from its file into
// a fresh slice, outside the store's lock, and fails once it is closed.
func (bs *BlockStore) Encoded(n uint64) ([]byte, error) {
	bs.mu.RLock()
	if n < 1 || n > uint64(len(bs.blocks)) {
		bs.mu.RUnlock()
		return nil, fmt.Errorf("%w: %d", ErrNoBlock, n)
	}
	rec, log := bs.blocks[n-1], bs.log
	bs.mu.RUnlock()
	if log == nil {
		return rec.enc, nil
	}
	p := make([]byte, 1+rec.size)
	if err := log.ReadPayload(p, rec.off); err != nil {
		return nil, fmt.Errorf("ledger: reading block %d back: %w", n, err)
	}
	if p[0] != frameBlock {
		return nil, fmt.Errorf("ledger: reading block %d back: offset %d holds no block frame", n, rec.off)
	}
	return p[1:], nil
}

// Height returns the number of the newest block (0 when empty).
func (bs *BlockStore) Height() uint64 {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	return uint64(len(bs.blocks))
}

// VerifyChain rechecks the whole chain's hashes and linkage, returning
// the first broken block number (0 = intact). Used to detect tampering
// (§3.5(6)).
func (bs *BlockStore) VerifyChain() (uint64, error) {
	var prev Hash
	for n := uint64(1); n <= bs.Height(); n++ {
		b, err := bs.Get(n)
		if err == nil {
			err = b.VerifyHash(prev)
		}
		if err != nil {
			return n, err
		}
		prev = b.Hash
	}
	return 0, nil
}
