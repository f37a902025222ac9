package storage

import "sync"

// Per-block buffer reuse. The block pipeline allocates one TxRecord per
// transaction and one WriteCapture per commit; at a few thousand
// transactions per second that is the dominant steady-state allocation
// churn (the AllocsPerRun tests in internal/proc track it). Records have
// a well-defined lifetime — created at execution start, last read when
// the seal stage digests the block — so the pipeline recycles them
// through a sync.Pool once the seal is done.
//
// Safety rules for callers of ReleaseTxRecord:
//
//   - no reference to the record, its read/write sets or its Capture may
//     survive the release;
//   - a record shared by several block entries (a malicious block can
//     repeat a transaction) must be released once.
//
// Records that are never released (speculative execute-order executions
// that never meet their block, crash-injection test paths) simply fall
// to the garbage collector; the pool is an optimization, not an
// ownership system.

// arenaMaxReadSet bounds the read-set size of records worth pooling: a
// record that tracked a huge scan would pin that memory forever if its
// map went back to the pool.
const arenaMaxReadSet = 4096

var txRecordPool = sync.Pool{
	New: func() any {
		return &TxRecord{ReadRows: make(map[ItemRef]struct{}, 16)}
	},
}

// AcquireTxRecord returns a pooled record initialized exactly like
// NewTxRecord(id, height).
func AcquireTxRecord(id TxID, height int64) *TxRecord {
	r := txRecordPool.Get().(*TxRecord)
	r.ID = id
	r.SnapshotHeight = height
	return r
}

// ReleaseTxRecord clears a record's read/write sets (dropping every row
// and key reference so pooled records never pin table data) and returns
// it — and its WriteCapture, if any — to the pool.
func ReleaseTxRecord(r *TxRecord) {
	if r == nil {
		return
	}
	if len(r.ReadRows) > arenaMaxReadSet {
		return // oversized map: let the GC have it
	}
	clear(r.ReadRows)
	clear(r.ReadRanges)
	r.ReadRanges = r.ReadRanges[:0]
	clear(r.Inserted)
	r.Inserted = r.Inserted[:0]
	clear(r.DeletedOld)
	r.DeletedOld = r.DeletedOld[:0]
	r.ReadOnly = false
	if c := r.Capture; c != nil {
		clear(c.Inserted)
		c.Inserted = c.Inserted[:0]
		clear(c.Deleted)
		c.Deleted = c.Deleted[:0]
	}
	r.ID = 0
	r.SnapshotHeight = 0
	txRecordPool.Put(r)
}
