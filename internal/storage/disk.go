package storage

import (
	"fmt"
	"sync"

	"bcrdb/internal/codec"
	"bcrdb/internal/types"
	"bcrdb/internal/wal"
)

// DiskStore is the durable storage backend: an in-memory working store
// (for reads, planning and provisional writes — identical semantics to
// *Store) plus an append-ahead log of every committed mutation, written
// through internal/wal's CRC-framed log. On startup, OpenDisk rebuilds
// committed state by replaying the log.
//
// Durability contract: a block is durable once its height frame has been
// fsynced (MarkDurable syncs, flushing all preceding commit frames of
// that block with it). SetHeight only bumps the in-memory height — the
// commit stage of the block pipeline calls it so the next block can
// proceed, while the seal stage calls MarkDurable off the critical path.
// Commit frames beyond the last durable height frame — a crash before the
// block was sealed — are dropped at replay and the block is simply
// re-processed from the block store, exactly like the §3.6 recovery
// cases. Private-schema transactions (§3.7) become durable at the next
// sealed block boundary or Close, whichever comes first.
type DiskStore struct {
	*Store // in-memory working state; reads and provisional writes pass through

	mu  sync.Mutex // guards log, err and appends
	log *wal.Log
	err error // first append/sync failure; latched until checked
}

// Log frame kinds. Every frame starts with one kind byte. DDL-ish frames
// carry the height they were logged at ("at") and apply at replay only
// when at <= the recovery horizon; commit frames carry their block and
// apply only when block <= horizon.
//
// The "at" stamp is only crash-correct because DDL never executes inside
// block processing: the engine rejects DDL in contract mode
// (ErrDDLInContract), so catalog changes come solely from bootstrap
// (before the height-0 frame) and from private-schema statements (whose
// height frame is already durable). A DDL frame can therefore never
// belong to a block that replay might drop.
const (
	opCreateTable byte = iota + 1
	opCreateIndex
	opDropTable
	// opRetiredHashExempt is reserved: logs written while sys_ledger was a
	// stored table (before ADR-0008) carry it, and replay refuses them.
	opRetiredHashExempt
	opCommit
	opHeight
	opVacuum
)

// OpenDisk opens the durable backend at path and restores committed
// state by WAL replay. The recovery horizon H is the newest height frame
// in the log; frames stamped beyond H (a crash mid-block) are discarded
// and the log is compacted to exactly the applied prefix, so a
// subsequent re-processing of block H+1 cannot double-apply.
func OpenDisk(path string) (*DiskStore, error) {
	d := &DiskStore{Store: NewStore()}

	frames, err := wal.ReadAllRaw(path)
	if err != nil {
		return nil, fmt.Errorf("storage: disk backend: %w", err)
	}

	// Pass 1: find the recovery horizon.
	horizon := int64(-1)
	for _, f := range frames {
		if len(f) > 0 && f[0] == opHeight {
			d2 := codec.NewDec(f[1:])
			if h := d2.Varint(); d2.Done() == nil && h > horizon {
				horizon = h
			}
		}
	}

	// Pass 2: apply every frame at or below the horizon, in log order.
	// Node-local transaction ids are not durable by design (§4.2): every
	// replayed version carries one synthetic xid, and only its block stamps
	// say when it was created and deleted.
	kept := make([][]byte, 0, len(frames))
	xid := d.Store.BeginTx()
	for _, f := range frames {
		ok, err := d.applyFrame(f, horizon, xid)
		if err != nil {
			return nil, fmt.Errorf("storage: disk backend replay: %w", err)
		}
		if ok {
			kept = append(kept, f)
		}
	}
	if horizon >= 0 {
		d.Store.SetHeight(horizon)
	}

	// Drop the frames beyond the horizon from the log itself, so they can
	// never be applied by a later restart after the block is re-processed
	// (which would double-apply its writes).
	if len(kept) != len(frames) {
		if err := wal.Rewrite(path, kept); err != nil {
			return nil, err
		}
	}
	if d.log, err = wal.Open(path); err != nil {
		return nil, err
	}
	return d, nil
}

// applyFrame applies one log frame during replay, stamping replayed
// versions with the synthetic xid. It reports whether the frame is inside
// the recovery horizon (and was therefore applied).
func (d *DiskStore) applyFrame(f []byte, horizon int64, xid TxID) (bool, error) {
	if len(f) == 0 {
		return false, fmt.Errorf("empty frame")
	}
	dec := codec.NewDec(f[1:])
	switch f[0] {
	case opCreateTable:
		at := dec.Varint()
		schema := decodeSchema(dec)
		if err := dec.Done(); err != nil {
			return false, err
		}
		if at > horizon {
			return false, nil
		}
		if err := d.Store.CreateTable(schema); err != nil {
			return false, err
		}
	case opCreateIndex:
		at := dec.Varint()
		table := dec.String()
		name := dec.String()
		n := dec.Uvarint()
		cols := make([]int, 0, n)
		for i := uint64(0); i < n && dec.Err() == nil; i++ {
			cols = append(cols, int(dec.Varint()))
		}
		unique := dec.Bool()
		if err := dec.Done(); err != nil {
			return false, err
		}
		if at > horizon {
			return false, nil
		}
		if err := d.Store.CreateIndex(table, name, cols, unique); err != nil {
			return false, err
		}
	case opDropTable:
		at := dec.Varint()
		name := dec.String()
		if err := dec.Done(); err != nil {
			return false, err
		}
		if at > horizon {
			return false, nil
		}
		_ = d.Store.DropTable(name) // table may already be gone
	case opRetiredHashExempt:
		dec.Varint()
		return false, fmt.Errorf("table %q carries the retired hash-exempt mark: the log was written while sys_ledger was a stored table, predates the derived ledger (ADR-0008) and cannot be served", dec.String())
	case opVacuum:
		at := dec.Varint()
		hz := dec.Varint()
		if err := dec.Done(); err != nil {
			return false, err
		}
		if at > horizon {
			return false, nil
		}
		d.Store.Vacuum(hz)
	case opHeight:
		h := dec.Varint()
		if err := dec.Done(); err != nil {
			return false, err
		}
		if h > horizon {
			return false, nil
		}
		d.Store.SetHeight(h)
	case opCommit:
		block := dec.Varint()
		nIns := dec.Uvarint()
		type insOp struct {
			table string
			ref   uint64
			row   types.Row
		}
		ins := make([]insOp, 0, nIns)
		for i := uint64(0); i < nIns && dec.Err() == nil; i++ {
			ins = append(ins, insOp{table: dec.String(), ref: dec.Uvarint(), row: dec.Row()})
		}
		nDel := dec.Uvarint()
		type delOp struct {
			table string
			ref   uint64
		}
		del := make([]delOp, 0, nDel)
		for i := uint64(0); i < nDel && dec.Err() == nil; i++ {
			del = append(del, delOp{table: dec.String(), ref: dec.Uvarint()})
		}
		if err := dec.Done(); err != nil {
			return false, err
		}
		if block > horizon {
			return false, nil
		}
		for _, op := range ins {
			d.Store.replayInsert(op.table, op.ref, op.row, xid, block)
		}
		for _, op := range del {
			d.Store.replayDelete(op.table, op.ref, xid, block)
		}
	default:
		return false, fmt.Errorf("unknown frame kind %d", f[0])
	}
	return true, nil
}

// append writes one frame to the log, latching the first failure.
func (d *DiskStore) append(payload []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log == nil {
		return
	}
	if err := d.log.AppendRaw(payload); err != nil && d.err == nil {
		d.err = err
	}
}

// sync flushes the log to stable storage, latching the first failure.
func (d *DiskStore) sync() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log == nil {
		return
	}
	if err := d.log.Sync(); err != nil && d.err == nil {
		d.err = err
	}
}

// --- logged overrides of the mutating operations ------------------------------

// CreateTable creates the table and logs the DDL.
func (d *DiskStore) CreateTable(schema Schema) error {
	if err := d.Store.CreateTable(schema); err != nil {
		return err
	}
	d.append(encodeCreateTable(d.Store.Height(), schema))
	return nil
}

// DropTable drops the table and logs the DDL.
func (d *DiskStore) DropTable(name string) error {
	if err := d.Store.DropTable(name); err != nil {
		return err
	}
	e := codec.NewBuf(32)
	e.Byte(opDropTable)
	e.Varint(d.Store.Height())
	e.String(name)
	d.append(e.Bytes())
	return nil
}

// CreateIndex creates the index and logs the DDL.
func (d *DiskStore) CreateIndex(table, name string, cols []int, unique bool) error {
	if err := d.Store.CreateIndex(table, name, cols, unique); err != nil {
		return err
	}
	d.append(encodeCreateIndex(d.Store.Height(), table, name, cols, unique))
	return nil
}

// CommitTx commits in memory and logs the transaction's surviving
// effects from the commit-time capture: every inserted version that
// outlived the commit (with its row data) and every superseded version
// reference, stamped with the block. Using rec.Capture avoids re-reading
// the store per row on the commit critical path.
func (d *DiskStore) CommitTx(rec *TxRecord, block int64) {
	d.Store.CommitTx(rec, block)
	if !rec.HasWrites() {
		return
	}
	wc := rec.Capture
	e := codec.NewBuf(512)
	e.Byte(opCommit)
	e.Varint(block)
	e.Uvarint(uint64(len(wc.Inserted)))
	for _, op := range wc.Inserted {
		e.String(op.Table)
		e.Uvarint(op.Ref)
		e.Row(op.Row)
	}
	e.Uvarint(uint64(len(rec.DeletedOld)))
	for _, ir := range rec.DeletedOld {
		e.String(ir.Table)
		e.Uvarint(ir.Ref)
	}
	d.append(e.Bytes())
}

// MarkDurable logs the new durable height and fsyncs: this is the
// durability point for every commit frame of the block. The in-memory
// height was already bumped by SetHeight at the commit stage; blocks
// between the two are the crash window that recovery re-processes from
// the block store (§3.6). A log write or sync failure here is
// unrecoverable — continuing would acknowledge blocks that are not
// durable — so, like PostgreSQL on a WAL write failure, the node panics
// and relies on crash recovery.
func (d *DiskStore) MarkDurable(h int64) {
	e := codec.NewBuf(16)
	e.Byte(opHeight)
	e.Varint(h)
	d.append(e.Bytes())
	d.sync()
	d.mu.Lock()
	err := d.err
	d.mu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("storage: disk WAL write failed, cannot guarantee durability of block %d: %v", h, err))
	}
}

// Vacuum prunes in memory and logs the horizon so replay re-applies the
// same pruning.
func (d *DiskStore) Vacuum(horizon int64) int {
	n := d.Store.Vacuum(horizon)
	e := codec.NewBuf(16)
	e.Byte(opVacuum)
	e.Varint(d.Store.Height())
	e.Varint(horizon)
	d.append(e.Bytes())
	return n
}

// Close syncs and closes the log. The in-memory state stays readable.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log == nil {
		return nil
	}
	err1 := d.log.Sync()
	err2 := d.log.Close()
	d.log = nil
	if err1 != nil {
		return err1
	}
	return err2
}

// --- frame encoding helpers ----------------------------------------------------

func encodeCreateTable(at int64, schema Schema) []byte {
	e := codec.NewBuf(128)
	e.Byte(opCreateTable)
	e.Varint(at)
	e.String(schema.Name)
	e.Byte(byte(schema.Class))
	e.Bool(false) // reserved: was Schema.HashExempt
	e.Uvarint(uint64(len(schema.Columns)))
	for _, c := range schema.Columns {
		e.String(c.Name)
		e.Byte(byte(c.Type))
		e.Bool(c.NotNull)
		e.Bool(c.HasDefault)
		if c.HasDefault {
			e.Value(c.Default)
		}
	}
	e.Uvarint(uint64(len(schema.PKCols)))
	for _, pk := range schema.PKCols {
		e.Varint(int64(pk))
	}
	return e.Bytes()
}

func decodeSchema(d *codec.Dec) Schema {
	s := Schema{}
	s.Name = d.String()
	s.Class = SchemaClass(d.Byte())
	d.Bool() // reserved: was Schema.HashExempt
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		c := Column{}
		c.Name = d.String()
		c.Type = types.Kind(d.Byte())
		c.NotNull = d.Bool()
		c.HasDefault = d.Bool()
		if c.HasDefault {
			c.Default = d.Value()
		}
		s.Columns = append(s.Columns, c)
	}
	n = d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		s.PKCols = append(s.PKCols, int(d.Varint()))
	}
	return s
}

func encodeCreateIndex(at int64, table, name string, cols []int, unique bool) []byte {
	e := codec.NewBuf(64)
	e.Byte(opCreateIndex)
	e.Varint(at)
	e.String(table)
	e.String(name)
	e.Uvarint(uint64(len(cols)))
	for _, c := range cols {
		e.Varint(int64(c))
	}
	e.Bool(unique)
	return e.Bytes()
}

// --- replay application (package-internal) -------------------------------------

// replayInsert installs an already-committed version during WAL replay:
// explicit heap ref, row data, synthetic transaction id, creator block
// stamp. Index entries are maintained; uniqueness was validated
// before the original commit and is not re-checked.
func (s *Store) replayInsert(table string, ref uint64, row types.Row, xid TxID, block int64) {
	t, err := s.Table(table)
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.version(ref) != nil {
		return
	}
	v := &RowVersion{
		ID:         ref,
		Data:       row,
		Xmin:       xid,
		CreatorBlk: block,
		DeleterBlk: NoBlock,
	}
	t.put(v)
	if ref > t.nextRef {
		t.nextRef = ref
	}
	for _, ix := range t.indexes {
		ix.tree.Insert(ix.KeyFor(v.Data), v.ID)
	}
}

// replayDelete marks a version superseded during WAL replay.
func (s *Store) replayDelete(table string, ref uint64, xid TxID, block int64) {
	t, err := s.Table(table)
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v := t.version(ref); v != nil {
		v.Xmax = xid
		v.DeleterBlk = block
	}
}
