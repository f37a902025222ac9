// sys_ledger — the paper's pgLedger (§4.2, §3.3.2 step 1), "all blocks'
// transactions and their status" — is a derived table: every column of a
// row already lives in the block (txid, username, contract, args; block,
// seq, commit_time), in the block's outcome in the block store (status)
// or in what this process executed (local_xid), so the node stores no
// second copy. This file is the table's provider
// (storage.RegisterDerived): it builds rows on demand from the block
// store's blocks and outcomes, and keeps the local xids the seal stage
// publishes and the one txid → (block, seq) index, which is also the
// commit stage's recorded-id set (§3.4.3). See
// docs/adr/0008-derived-ledger.md.

package core

import (
	"fmt"
	"sort"
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

// ledgerView is the provider of sys_ledger. Three goroutine kinds share
// it: the commit stage (consume), the sealer (publish) and queries (scan).
type ledgerView struct {
	blocks *ledger.BlockStore

	mu sync.RWMutex
	// byID maps every transaction id a processed block carried to its
	// first occurrence: the primary-key index, and the recorded-id set of
	// the unique-identifier rule (§3.4.3). The commit stage adds a block's
	// ids before the block is sealed.
	byID map[string]txPos
	// xids[n-1] holds the node-local transaction id each position of block
	// n executed under (0: none — the transaction failed before it got
	// one). It is nil for a block whose state was restored from disk: xids
	// are not durable by design (§4.2), and the restored versions carry a
	// synthetic xmin.
	xids  [][]storage.TxID
	byXid map[storage.TxID]txPos
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

// publish records the local xids of block's positions, before the seal
// appends the block's outcome. Blocks are published in chain order, each
// after consume has seen all of its ids; xids is nil for a block restored
// from disk. A block that does not follow the last published one is
// refused, and its rows then show no local_xid.
func (v *ledgerView) publish(block uint64, xids []storage.TxID) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if block != uint64(len(v.xids))+1 {
		return fmt.Errorf("core: %s holds the local ids of blocks 1 to %d: block %d's cannot follow", ledgerTable, len(v.xids), block)
	}
	v.xids = append(v.xids, xids)
	for i, xid := range xids {
		if _, ok := v.byXid[xid]; xid != 0 && !ok {
			v.byXid[xid] = txPos{block, uint32(i)}
		}
	}
	return nil
}

// restore publishes a block whose state came back from disk instead of
// from execution: its ids are consumed, and its statuses are the outcome
// the block store loaded from the block log.
func (v *ledgerView) restore(b *ledger.Block) error {
	for i, tx := range b.Txs {
		v.consume(tx.ID, txPos{b.Number, uint32(i)})
	}
	return v.publish(b.Number, nil)
}

// visible returns the newest block a query at height may see: a row is
// visible iff its block is at or below both height and the last block
// the block store holds an outcome of (appending the outcome is what
// publishes a block's rows). Outcomes follow block order, so a binary
// search finds that block.
func (v *ledgerView) visible(height int64) uint64 {
	h := min(uint64(max(height, 0)), v.blocks.Height())
	return uint64(sort.Search(int(h), func(i int) bool {
		_, ok := v.blocks.Outcome(uint64(i) + 1)
		return !ok
	}))
}

// scan is the table's storage.DerivedScan.
func (v *ledgerView) scan(ixName string, rng index.Range, height int64, fn func(*storage.RowVersion) bool) error {
	top := v.visible(height)
	// A point range over a key of the column's own kind is a probe; any
	// other range on those two indexes is a filter over the whole chain.
	var eq types.Value
	if !rng.Unbounded && !rng.PrefixOnly && rng.LoInc && rng.HiInc &&
		len(rng.Lo) == 1 && len(rng.Hi) == 1 && types.Compare(rng.Lo[0], rng.Hi[0]) == 0 {
		eq = rng.Lo[0]
	}
	switch {
	case ixName == ledgerByTxID && eq.Kind() == types.KindString:
		return v.scanTxID(top, eq.Str(), fn)
	case ixName == ledgerByXid && eq.Kind() == types.KindInt:
		return v.scanXid(top, storage.TxID(eq.Int()), fn)
	case ixName == ledgerByBlock:
		return v.scanBlocks(top, rng, fn)
	case ixName == ledgerByTxID:
		return v.scanAll(top, ledgerColTxID, rng, fn)
	case ixName == ledgerByXid:
		return v.scanAll(top, ledgerColLocalXid, rng, fn)
	}
	return fmt.Errorf("%w: %s.%s", storage.ErrNoSuchIndex, ledgerTable, ixName)
}

// scanTxID serves txid = id: one probe of the id index.
func (v *ledgerView) scanTxID(top uint64, id string, fn func(*storage.RowVersion) bool) error {
	v.mu.RLock()
	pos, ok := v.byID[id]
	v.mu.RUnlock()
	if !ok {
		return nil
	}
	return v.emitAt(top, pos, fn)
}

// scanXid serves local_xid = xid: one probe of the xid index.
func (v *ledgerView) scanXid(top uint64, xid storage.TxID, fn func(*storage.RowVersion) bool) error {
	v.mu.RLock()
	pos, ok := v.byXid[xid]
	v.mu.RUnlock()
	if !ok {
		return nil
	}
	return v.emitAt(top, pos, fn)
}

// emitAt yields the row at pos if it is visible and is a row at all: a
// later occurrence of a duplicate id executed (under an xid of its own)
// but was not recorded.
func (v *ledgerView) emitAt(top uint64, pos txPos, fn func(*storage.RowVersion) bool) error {
	if pos.block > top {
		return nil
	}
	b, err := v.blocks.Get(pos.block)
	if err != nil {
		return fmt.Errorf("core: %s: %w", ledgerTable, err)
	}
	out, _ := v.blocks.Outcome(pos.block) // visible: it has one
	v.mu.RLock()
	first := v.byID[b.Txs[pos.seq].ID] == pos
	xids := v.xidsOf(pos.block)
	v.mu.RUnlock()
	if first {
		fn(ledgerRow(b, int(pos.seq), out.Committed, xids))
	}
	return nil
}

// xidsOf returns block n's local xids; nil when none were published.
// Caller holds mu.
func (v *ledgerView) xidsOf(n uint64) []storage.TxID {
	if n > uint64(len(v.xids)) {
		return nil
	}
	return v.xids[n-1]
}

// scanBlocks serves bounds on block: block n is the block store's n-th,
// so only the blocks inside rng are touched. Integer bounds narrow the
// walk; rng itself decides membership (exclusive bounds, and bounds of
// other kinds, stay its business).
func (v *ledgerView) scanBlocks(top uint64, rng index.Range, fn func(*storage.RowVersion) bool) error {
	lo, hi := int64(1), int64(top)
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
		if more, err := v.emitBlock(uint64(n), -1, rng, fn); err != nil || !more {
			return err
		}
	}
	return nil
}

// scanAll serves everything else: a walk over the visible chain, keeping
// the rows whose value in column col lies in rng.
func (v *ledgerView) scanAll(top uint64, col int, rng index.Range, fn func(*storage.RowVersion) bool) error {
	if rng.Unbounded {
		col = -1
	}
	for n := uint64(1); n <= top; n++ {
		if more, err := v.emitBlock(n, col, rng, fn); err != nil || !more {
			return err
		}
	}
	return nil
}

// emitBlock yields the rows of visible block n — one per transaction id
// the block was the first to carry — whose value in column col lies in rng
// (col < 0: all of them). It reports whether the scan goes on.
func (v *ledgerView) emitBlock(n uint64, col int, rng index.Range, fn func(*storage.RowVersion) bool) (more bool, err error) {
	b, err := v.blocks.Get(n)
	if err != nil {
		return false, fmt.Errorf("core: %s: %w", ledgerTable, err)
	}
	out, _ := v.blocks.Outcome(n) // visible: it has one
	// Only the first occurrence of an id has a row ("record only the
	// first" of a duplicate): the one the id index points at.
	first := make([]bool, len(b.Txs))
	v.mu.RLock()
	for i, tx := range b.Txs {
		first[i] = v.byID[tx.ID] == txPos{n, uint32(i)}
	}
	xids := v.xidsOf(n)
	v.mu.RUnlock()
	for i := range b.Txs {
		if !first[i] {
			continue
		}
		row := ledgerRow(b, i, out.Committed, xids)
		if col >= 0 && !rng.Contains(types.Key{row.Data[col]}) {
			continue
		}
		if !fn(row) {
			return false, nil
		}
	}
	return true, nil
}

// ledgerRow builds the row of block b's seq-th transaction from the
// block's committed bits and local xids (nil: none). The version exists
// from block b on and is never superseded; no storage transaction created
// it, so its xmin is the reserved id 0.
func ledgerRow(b *ledger.Block, seq int, committed []byte, xids []storage.TxID) *storage.RowVersion {
	tx := b.Txs[seq]
	status := "aborted"
	if committed[seq/8]&(1<<(seq%8)) != 0 {
		status = "committed"
	}
	xid := types.Null()
	if xids != nil && xids[seq] != 0 {
		xid = types.NewInt(int64(xids[seq]))
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
