// sys_ledger — the paper's pgLedger (§4.2, §3.3.2 step 1), "all blocks'
// transactions and their status" — is a derived table: every column of a
// row already lives in the block (txid, username, contract, args; block,
// seq, commit_time) or in the block's outcome record (status, local_xid),
// so the node stores no second copy. This file is the table's provider
// (storage.RegisterDerived): it builds rows on demand from the block
// store and the outcome records the seal stage publishes, and keeps the
// one txid → (block, seq) index, which is also the commit stage's
// recorded-id set (§3.4.3). See docs/adr/0008-derived-ledger.md.

package core

import (
	"fmt"
	"strings"
	"sync"

	"bcrdb/internal/index"
	"bcrdb/internal/ledger"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// The table's name and the access paths the provider serves cheaper than
// a walk over the chain. username has no index: a filter on it runs over
// the scan.
const (
	ledgerTable   = "sys_ledger"
	ledgerByTxID  = ledgerTable + "_pkey"  // map probe
	ledgerByBlock = ledgerTable + "_block" // positional: block n is the block store's n-th
	ledgerByXid   = ledgerTable + "_xid"   // map probe, blocks executed by this process only
)

// Column ordinals of sys_ledger.
const (
	ledgerColTxID = iota
	ledgerColBlock
	ledgerColSeq
	ledgerColUsername
	ledgerColContract
	ledgerColArgs
	ledgerColStatus
	ledgerColCommitTime
	ledgerColLocalXid
)

// ledgerSchema is sys_ledger as clients have always seen it.
func ledgerSchema() storage.Schema {
	col := func(name string, kind types.Kind, notNull bool) storage.Column {
		return storage.Column{Name: name, Type: kind, NotNull: notNull}
	}
	return storage.Schema{
		Name:  ledgerTable,
		Class: storage.ClassSystem,
		Columns: []storage.Column{
			ledgerColTxID:       col("txid", types.KindString, true),
			ledgerColBlock:      col("block", types.KindInt, true),
			ledgerColSeq:        col("seq", types.KindInt, true),
			ledgerColUsername:   col("username", types.KindString, false),
			ledgerColContract:   col("contract", types.KindString, false),
			ledgerColArgs:       col("args", types.KindString, false),
			ledgerColStatus:     col("status", types.KindString, false),
			ledgerColCommitTime: col("commit_time", types.KindInt, false),
			ledgerColLocalXid:   col("local_xid", types.KindInt, false),
		},
		PKCols: []int{ledgerColTxID},
	}
}

var ledgerIndexes = []storage.DerivedIndex{
	{Name: ledgerByBlock, Cols: []int{ledgerColBlock}},
	{Name: ledgerByXid, Cols: []int{ledgerColLocalXid}},
}

// txPos locates a transaction on the chain.
type txPos struct {
	block uint64
	seq   uint32
}

// blockOutcome is what a block's rows need beyond the block itself.
// Immutable once published.
type blockOutcome struct {
	committed []byte // ledger.Outcome.Committed: bit i%8 of byte i/8 is position i
	// xids holds the node-local transaction id each position executed
	// under (0: none — the transaction failed before it got one). Nil for
	// a block whose state was restored from disk: xids are not durable by
	// design (§4.2), and the restored versions carry a synthetic xmin.
	xids []storage.TxID
}

// ledgerView is the provider of sys_ledger. Three goroutine kinds share
// it: the commit stage (consume), the sealer (publish) and queries (scan).
type ledgerView struct {
	blocks *ledger.BlockStore

	mu sync.RWMutex
	// byID maps every transaction id a processed block carried to its
	// first occurrence: the primary-key index, and the recorded-id set of
	// the unique-identifier rule (§3.4.3). The commit stage adds a block's
	// ids before the block's outcomes are published.
	byID map[string]txPos
	// outcomes[n-1] belongs to block n; its length is the last published
	// block. A row is visible iff its block is at or below both that and
	// the query's height.
	outcomes []blockOutcome
	byXid    map[storage.TxID]txPos
}

func newLedgerView(blocks *ledger.BlockStore) *ledgerView {
	return &ledgerView{blocks: blocks, byID: make(map[string]txPos), byXid: make(map[storage.TxID]txPos)}
}

// consume records a transaction id at pos and reports whether an earlier
// position — of an earlier block or of the same one — had consumed it
// already. The first occurrence keeps the entry, and the row.
func (v *ledgerView) consume(id string, pos txPos) (dup bool) {
	v.mu.Lock()
	_, dup = v.byID[id]
	if !dup {
		v.byID[id] = pos
	}
	v.mu.Unlock()
	return dup
}

// publish makes block's rows visible. Blocks are published in chain
// order, each after consume has seen all of its ids; xids is nil for a
// block restored from disk. A block that does not follow the last
// published one is refused: the table then ends where the gap begins.
func (v *ledgerView) publish(block uint64, committed []byte, xids []storage.TxID) error {
	out := blockOutcome{committed: committed, xids: xids}
	v.mu.Lock()
	defer v.mu.Unlock()
	if block != uint64(len(v.outcomes))+1 {
		return fmt.Errorf("core: %s ends at block %d: the outcomes of a later block cannot follow", ledgerTable, len(v.outcomes))
	}
	v.outcomes = append(v.outcomes, out)
	for i, xid := range xids {
		if _, ok := v.byXid[xid]; xid != 0 && !ok {
			v.byXid[xid] = txPos{block, uint32(i)}
		}
	}
	return nil
}

// restore publishes a block whose state came back from disk instead of
// from execution: its ids are consumed and its statuses read from the
// block's outcome frame.
func (v *ledgerView) restore(b *ledger.Block, committed []byte) error {
	for i, tx := range b.Txs {
		v.consume(tx.ID, txPos{b.Number, uint32(i)})
	}
	return v.publish(b.Number, committed, nil)
}

// visible returns the outcomes of the blocks a query at height may see.
func (v *ledgerView) visible(height int64) []blockOutcome {
	v.mu.RLock()
	outs := v.outcomes
	v.mu.RUnlock()
	if height < int64(len(outs)) {
		outs = outs[:max(height, 0)]
	}
	return outs
}

// scan is the table's storage.DerivedScan.
func (v *ledgerView) scan(ixName string, rng index.Range, height int64, fn func(*storage.RowVersion) bool) error {
	outs := v.visible(height)
	// A point range over a key of the column's own kind is a probe; any
	// other range on those two indexes is a filter over the whole chain.
	var eq types.Value
	if !rng.Unbounded && !rng.PrefixOnly && rng.LoInc && rng.HiInc &&
		len(rng.Lo) == 1 && len(rng.Hi) == 1 && types.Compare(rng.Lo[0], rng.Hi[0]) == 0 {
		eq = rng.Lo[0]
	}
	switch {
	case ixName == ledgerByTxID && eq.Kind() == types.KindString:
		return v.scanTxID(outs, eq.Str(), fn)
	case ixName == ledgerByXid && eq.Kind() == types.KindInt:
		return v.scanXid(outs, storage.TxID(eq.Int()), fn)
	case ixName == ledgerByBlock:
		return v.scanBlocks(outs, rng, fn)
	case ixName == ledgerByTxID:
		return v.scanAll(outs, ledgerColTxID, rng, fn)
	case ixName == ledgerByXid:
		return v.scanAll(outs, ledgerColLocalXid, rng, fn)
	}
	return fmt.Errorf("%w: %s.%s", storage.ErrNoSuchIndex, ledgerTable, ixName)
}

// scanTxID serves txid = id: one probe of the id index.
func (v *ledgerView) scanTxID(outs []blockOutcome, id string, fn func(*storage.RowVersion) bool) error {
	v.mu.RLock()
	pos, ok := v.byID[id]
	v.mu.RUnlock()
	if !ok {
		return nil
	}
	return v.emitAt(outs, pos, fn)
}

// scanXid serves local_xid = xid: one probe of the xid index.
func (v *ledgerView) scanXid(outs []blockOutcome, xid storage.TxID, fn func(*storage.RowVersion) bool) error {
	v.mu.RLock()
	pos, ok := v.byXid[xid]
	v.mu.RUnlock()
	if !ok {
		return nil
	}
	return v.emitAt(outs, pos, fn)
}

// emitAt yields the row at pos if it is visible and is a row at all: a
// later occurrence of a duplicate id executed (under an xid of its own)
// but was not recorded.
func (v *ledgerView) emitAt(outs []blockOutcome, pos txPos, fn func(*storage.RowVersion) bool) error {
	if pos.block > uint64(len(outs)) {
		return nil
	}
	b, err := v.blocks.Get(pos.block)
	if err != nil {
		return fmt.Errorf("core: %s: %w", ledgerTable, err)
	}
	v.mu.RLock()
	first := v.byID[b.Txs[pos.seq].ID] == pos
	v.mu.RUnlock()
	if first {
		fn(ledgerRow(b, int(pos.seq), &outs[pos.block-1]))
	}
	return nil
}

// scanBlocks serves bounds on block: block n is the block store's n-th,
// so only the blocks inside rng are touched. Integer bounds narrow the
// walk; rng itself decides membership (exclusive bounds, and bounds of
// other kinds, stay its business).
func (v *ledgerView) scanBlocks(outs []blockOutcome, rng index.Range, fn func(*storage.RowVersion) bool) error {
	lo, hi := int64(1), int64(len(outs))
	if b := rng.Lo; len(b) > 0 && b[0].Kind() == types.KindInt {
		lo = max(lo, b[0].Int())
	}
	upper := rng.Hi
	if rng.PrefixOnly {
		upper = rng.Lo
	}
	if len(upper) > 0 && upper[0].Kind() == types.KindInt {
		hi = min(hi, upper[0].Int())
	}
	key := make(types.Key, 1)
	for n := lo; n <= hi; n++ {
		key[0] = types.NewInt(n)
		if !rng.Contains(key) {
			continue
		}
		if more, err := v.emitBlock(outs, uint64(n), -1, rng, fn); err != nil || !more {
			return err
		}
	}
	return nil
}

// scanAll serves everything else: a walk over the visible chain, keeping
// the rows whose value in column col lies in rng.
func (v *ledgerView) scanAll(outs []blockOutcome, col int, rng index.Range, fn func(*storage.RowVersion) bool) error {
	if rng.Unbounded {
		col = -1
	}
	for n := uint64(1); n <= uint64(len(outs)); n++ {
		if more, err := v.emitBlock(outs, n, col, rng, fn); err != nil || !more {
			return err
		}
	}
	return nil
}

// emitBlock yields the rows of block n — one per transaction id the block
// was the first to carry — whose value in column col lies in rng (col < 0:
// all of them). It reports whether the scan goes on.
func (v *ledgerView) emitBlock(outs []blockOutcome, n uint64, col int, rng index.Range, fn func(*storage.RowVersion) bool) (more bool, err error) {
	b, err := v.blocks.Get(n)
	if err != nil {
		return false, fmt.Errorf("core: %s: %w", ledgerTable, err)
	}
	// Only the first occurrence of an id has a row ("record only the
	// first" of a duplicate): the one the id index points at.
	first := make([]bool, len(b.Txs))
	v.mu.RLock()
	for i, tx := range b.Txs {
		first[i] = v.byID[tx.ID] == txPos{n, uint32(i)}
	}
	v.mu.RUnlock()
	for i := range b.Txs {
		if !first[i] {
			continue
		}
		row := ledgerRow(b, i, &outs[n-1])
		if col >= 0 && !rng.Contains(types.Key{row.Data[col]}) {
			continue
		}
		if !fn(row) {
			return false, nil
		}
	}
	return true, nil
}

// ledgerRow builds the row of block b's seq-th transaction. The version
// exists from block b on and is never superseded; no storage transaction
// created it, so its xmin is the reserved id 0.
func ledgerRow(b *ledger.Block, seq int, out *blockOutcome) *storage.RowVersion {
	tx := b.Txs[seq]
	status := "aborted"
	if out.committed[seq/8]&(1<<(seq%8)) != 0 {
		status = "committed"
	}
	xid := types.Null()
	if out.xids != nil && out.xids[seq] != 0 {
		xid = types.NewInt(int64(out.xids[seq]))
	}
	return &storage.RowVersion{
		ID: b.Number<<32 | uint64(seq),
		Data: types.Row{
			ledgerColTxID:       types.NewString(tx.ID),
			ledgerColBlock:      types.NewInt(int64(b.Number)),
			ledgerColSeq:        types.NewInt(int64(seq)),
			ledgerColUsername:   types.NewString(tx.Username),
			ledgerColContract:   types.NewString(tx.Contract),
			ledgerColArgs:       types.NewString(argsString(tx.Args)),
			ledgerColStatus:     types.NewString(status),
			ledgerColCommitTime: types.NewInt(b.Timestamp),
			ledgerColLocalXid:   xid,
		},
		CreatorBlk: int64(b.Number),
		DeleterBlk: storage.NoBlock,
	}
}

// argsString renders arguments for the ledger table.
func argsString(args []types.Value) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.SQLLiteral()
	}
	return strings.Join(parts, ",")
}
