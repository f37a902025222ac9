// Package ssi implements the serializable-snapshot-isolation decision
// logic of the paper: the Ports-style "abort during commit" variant used
// by the order-then-execute flow (§3.3) and the novel block-aware variant
// of Table 2 used by execute-order-in-parallel (§3.4.3).
//
// The analysis runs over one block at a time. All inputs — read rows,
// scanned index ranges, superseded versions, inserted keys — are
// deterministic functions of (transaction, snapshot height, chain prefix),
// so every replica reaches identical commit/abort decisions without
// coordination.
//
// rw-dependency N →rw→ T means N read the old version of an object T
// wrote: either N read a row version T superseded, or N scanned an index
// range into which T inserted a key. Following the paper's terminology,
// when T commits, the transactions in in(T) are its nearConflicts and the
// transactions in in(N) for a nearConflict N are its farConflicts.
package ssi

import (
	"encoding/binary"
	"sort"

	"bcrdb/internal/index"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// Mode selects the abort-rule variant.
type Mode uint8

// Modes.
const (
	// OrderThenExecute: all block transactions share the pre-block
	// snapshot; Ports-style rules (§3.3.3).
	OrderThenExecute Mode = iota
	// ExecuteOrderParallel: per-transaction snapshot heights; block-aware
	// rules of Table 2 for within-block structures. Cross-block conflicts
	// are resolved by the storage layer's stale/phantom validation.
	ExecuteOrderParallel
)

// KeyAt locates an index key touched by an insert.
type KeyAt struct {
	Table string
	Index string
	Key   types.Key
}

// TxInfo is what the analysis needs to know about one block transaction.
type TxInfo struct {
	Seq            int // position within the block (commit order)
	SnapshotHeight int64

	ReadRows     map[storage.ItemRef]struct{}
	ReadRanges   []storage.RangeRef
	WrittenOld   map[storage.ItemRef]struct{} // versions superseded (update/delete)
	InsertedKeys []KeyAt                      // index keys of new versions
}

// State of a transaction during block processing.
type state uint8

const (
	statePending state = iota
	stateCommitted
	stateAborted
)

// AbortReason explains an SSI abort decision.
type AbortReason string

// Abort reasons.
const (
	ReasonNone         AbortReason = ""
	ReasonPivotMarked  AbortReason = "ssi: marked as nearConflict pivot"
	ReasonOutCommitted AbortReason = "ssi: outConflict committed first"
	ReasonSameBlock    AbortReason = "ssi: dangerous structure within block (Table 2)"
)

// Analysis holds the rw-dependency graph of one block and applies the
// abort rules as the block processor walks transactions in commit order.
type Analysis struct {
	mode Mode
	txs  []*TxInfo
	// in[i]: seqs N with rw edge N→i. out[i]: seqs O with rw edge i→O.
	in, out [][]int
	st      []state
	marked  []AbortReason
}

// NewAnalysis builds the within-block rw-dependency graph and, in
// ExecuteOrderParallel mode, applies Table 2's same-block rules up front
// (they depend only on block order, not on runtime state).
//
// txs must be ordered by Seq, with Seq equal to the slice position.
func NewAnalysis(mode Mode, txs []*TxInfo) *Analysis {
	n := len(txs)
	a := &Analysis{
		mode:   mode,
		txs:    txs,
		in:     make([][]int, n),
		out:    make([][]int, n),
		st:     make([]state, n),
		marked: make([]AbortReason, n),
	}
	a.buildEdges()
	if mode == ExecuteOrderParallel {
		a.applyTable2SameBlock()
	}
	return a
}

// buildEdges computes all rw edges among block transactions.
func (a *Analysis) buildEdges() {
	// Row-granularity edges: reader → superseder.
	writersOf := make(map[storage.ItemRef][]int)
	for _, t := range a.txs {
		for ir := range t.WrittenOld {
			writersOf[ir] = append(writersOf[ir], t.Seq)
		}
	}
	type edge struct{ from, to int }
	seen := make(map[edge]bool)
	addEdge := func(from, to int) {
		if from == to || seen[edge{from, to}] {
			return
		}
		seen[edge{from, to}] = true
		a.out[from] = append(a.out[from], to)
		a.in[to] = append(a.in[to], from)
	}
	for _, t := range a.txs {
		for ir := range t.ReadRows {
			for _, w := range writersOf[ir] {
				addEdge(t.Seq, w)
			}
		}
	}
	// Predicate edges: range-scanner → inserter.
	scans := bucketRanges(a.txs)
	var buf []byte
	for _, w := range a.txs {
		for _, k := range w.InsertedKeys {
			buf = scans[tableIndex{k.Table, k.Index}].scanners(k.Key, buf, func(r int) { addEdge(r, w.Seq) })
		}
	}
	// Deterministic adjacency order.
	for i := range a.in {
		sort.Ints(a.in[i])
		sort.Ints(a.out[i])
	}
}

// --- predicate-edge buckets ------------------------------------------------------

type tableIndex struct{ table, index string }

type scannedRange struct {
	seq int
	rng index.Range
}

// rangeBucket holds a block's read ranges over one (table, index). A
// transfer block's ranges are almost all inclusive point ranges, so those
// are found by hashing the inserted key's prefixes instead of by testing
// each one with Range.Contains.
type rangeBucket struct {
	points   map[string][]int // encoded point key → seqs that scanned it
	pointLen int              // longest key in points
	pointRRs []scannedRange   // the ranges in points, for keys that cannot probe
	others   []scannedRange   // every other range
}

// bucketRanges sorts the block's read ranges into one bucket per (table,
// index) that some transaction of the block inserted into; a range over
// any other index cannot give a predicate edge.
func bucketRanges(txs []*TxInfo) map[tableIndex]*rangeBucket {
	out := make(map[tableIndex]*rangeBucket)
	for _, w := range txs {
		for _, k := range w.InsertedKeys {
			if ti := (tableIndex{k.Table, k.Index}); out[ti] == nil {
				out[ti] = &rangeBucket{points: make(map[string][]int)}
			}
		}
	}
	var buf []byte
	for _, r := range txs {
		for _, rr := range r.ReadRanges {
			b := out[tableIndex{rr.Table, rr.Index}]
			if b == nil {
				continue
			}
			sr := scannedRange{r.Seq, rr.Range}
			if !exactPoint(rr.Range) {
				b.others = append(b.others, sr)
				continue
			}
			buf = buf[:0]
			for _, v := range rr.Range.Lo {
				buf = appendPart(buf, v)
			}
			b.points[string(buf)] = append(b.points[string(buf)], r.Seq)
			b.pointRRs = append(b.pointRRs, sr)
			b.pointLen = max(b.pointLen, len(rr.Range.Lo))
		}
	}
	return out
}

// scanners calls fn with every seq whose range in b contains k, possibly
// more than once, exactly as testing each range with Range.Contains would.
// A point range p contains k when k[:len(p)] equals p, or, for a key
// shorter than p, when k is a prefix of p. So a key at least as long as
// every point, with BIGINT and TEXT components up to that length, probes
// the map once per prefix; any other key — one with a DOUBLE that may
// equal a BIGINT bound, say — tests every point range. buf is scratch
// space, returned for reuse.
func (b *rangeBucket) scanners(k types.Key, buf []byte, fn func(seq int)) []byte {
	for _, sr := range b.others {
		if sr.rng.Contains(k) {
			fn(sr.seq)
		}
	}
	if len(k) < b.pointLen || !hashable(k[:b.pointLen]) {
		for _, sr := range b.pointRRs {
			if sr.rng.Contains(k) {
				fn(sr.seq)
			}
		}
		return buf
	}
	buf = buf[:0]
	for _, v := range k[:b.pointLen] {
		buf = appendPart(buf, v)
		for _, seq := range b.points[string(buf)] {
			fn(seq)
		}
	}
	return buf
}

// exactPoint reports whether r is an inclusive point range whose bounds
// are the same hashable key.
func exactPoint(r index.Range) bool {
	return !r.Unbounded && !r.PrefixOnly && r.LoInc && r.HiInc && len(r.Lo) > 0 &&
		len(r.Lo) == len(r.Hi) && hashable(r.Lo) && hashable(r.Hi) && types.CompareKeys(r.Lo, r.Hi) == 0
}

// hashable reports whether every component of k is BIGINT or TEXT, the
// kinds whose values types.Compare finds equal only when they are
// identical (a DOUBLE can equal a BIGINT).
func hashable(k types.Key) bool {
	for _, v := range k {
		if kind := v.Kind(); kind != types.KindInt && kind != types.KindString {
			return false
		}
	}
	return true
}

// appendPart appends the encoding of one BIGINT or TEXT component: a kind
// tag, then eight big-endian bytes or a length-prefixed string. Encodings
// are self-delimiting, so two hashable keys encode alike exactly when they
// compare equal.
func appendPart(buf []byte, v types.Value) []byte {
	if v.Kind() == types.KindInt {
		return binary.BigEndian.AppendUint64(append(buf, 'i'), uint64(v.Int()))
	}
	s := v.Str()
	return append(binary.AppendUvarint(append(buf, 's'), uint64(len(s))), s...)
}

// applyTable2SameBlock marks victims of dangerous structures whose
// nearConflict and farConflict both sit in this block: per Table 2, the
// one that would commit later (higher Seq) aborts. Structures with a
// conflict outside the block need no action here — the outside
// transaction fails its own stale-read/phantom validation at its own
// commit turn (docs/adr/0010-substitutions.md §3 has the argument).
func (a *Analysis) applyTable2SameBlock() {
	for _, anchor := range a.txs {
		x := anchor.Seq
		for _, n := range a.in[x] { // N →rw→ X: N is X's nearConflict
			if a.marked[n] != ReasonNone {
				continue
			}
			for _, f := range a.in[n] { // F →rw→ N: F is X's farConflict
				if f == n || a.marked[f] != ReasonNone {
					continue
				}
				victim := n
				if f > n {
					victim = f
				}
				if a.marked[victim] == ReasonNone {
					a.marked[victim] = ReasonSameBlock
				}
			}
		}
	}
}

// ShouldAbort is consulted at a transaction's commit turn, before the
// storage-level validation. It returns a non-empty reason if SSI demands
// an abort.
func (a *Analysis) ShouldAbort(seq int) AbortReason {
	if r := a.marked[seq]; r != ReasonNone {
		return r
	}
	if a.mode == OrderThenExecute {
		// Ports rule (fig. 2(c) discussion): abort a transaction whose
		// outConflict has committed — it may be the pivot of a dangerous
		// structure whose in-edge is an untracked wr-dependency.
		for _, o := range a.out[seq] {
			if a.st[o] == stateCommitted {
				return ReasonOutCommitted
			}
		}
	}
	return ReasonNone
}

// MarkCommitted records that seq committed. In OrderThenExecute mode it
// then applies the paper's pair rule: for every (nearConflict N,
// farConflict F) of the just-committed transaction with both still
// uncommitted, N — the pivot — is marked for abort "so that an immediate
// retry can succeed".
func (a *Analysis) MarkCommitted(seq int) {
	a.st[seq] = stateCommitted
	if a.mode != OrderThenExecute {
		return
	}
	for _, n := range a.in[seq] {
		if a.st[n] != statePending || a.marked[n] != ReasonNone {
			continue
		}
		for _, f := range a.in[n] {
			if f != n && a.st[f] == statePending && a.marked[f] == ReasonNone {
				a.marked[n] = ReasonPivotMarked
				break
			}
		}
	}
}

// MarkAborted records that seq aborted (for any reason, SSI or
// storage-level). Its edges no longer participate in structures.
func (a *Analysis) MarkAborted(seq int) {
	a.st[seq] = stateAborted
	a.removeEdges(seq)
}

// removeEdges detaches an aborted transaction from the graph.
func (a *Analysis) removeEdges(seq int) {
	for _, o := range a.out[seq] {
		a.in[o] = removeInt(a.in[o], seq)
	}
	for _, i := range a.in[seq] {
		a.out[i] = removeInt(a.out[i], seq)
	}
	a.out[seq] = nil
	a.in[seq] = nil
}

func removeInt(s []int, v int) []int {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
