package storage

import (
	"errors"
	"fmt"

	"bcrdb/internal/codec"
	"bcrdb/internal/types"
	"bcrdb/internal/wal"
)

// A store opened with OpenDisk keeps a log: every committed mutation is
// appended to it through internal/wal's CRC-framed log, and on startup
// OpenDisk rebuilds committed state by replaying it. The log is how the
// one in-memory store becomes durable, as PostgreSQL's WAL is for its
// heap; a store from NewStore has none and appends nothing.
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

// Kind names how a node keeps its store.
type Kind string

// Backend kinds.
const (
	// KindMemory is the store without a log (the default).
	KindMemory Kind = "memory"
	// KindDisk is the store with a log.
	KindDisk Kind = "disk"
)

// Open returns a store of the given kind: in memory for "" or
// KindMemory (path is ignored), or restored from and logging to the file
// at path for KindDisk. It is the one place a backend name is checked.
func Open(kind Kind, path string) (*Store, error) {
	switch kind {
	case "", KindMemory:
		return NewStore(), nil
	case KindDisk:
		if path == "" {
			return nil, errors.New("storage: the disk backend needs a file for its log: give the node a data dir")
		}
		return OpenDisk(path)
	}
	return nil, fmt.Errorf("storage: unknown backend %q (want %q or %q)", kind, KindMemory, KindDisk)
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

// OpenDisk opens the store logged at path and restores committed state
// by replay. The recovery horizon H is the newest height frame in the
// log; frames stamped beyond H (a crash mid-block) are discarded and the
// log is compacted to exactly the applied prefix, so a subsequent
// re-processing of block H+1 cannot double-apply. A frame that checks
// but does not replay is an error naming the file and the frame's
// offset, and the file is left as found.
func OpenDisk(path string) (*Store, error) {
	frames, end, err := wal.Scan(path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}

	// Pass 1: find the recovery horizon.
	horizon := int64(-1)
	for _, f := range frames {
		if len(f.Payload) > 0 && f.Payload[0] == opHeight {
			d := codec.NewDec(f.Payload[1:])
			if h := d.Varint(); d.Done() == nil && h > horizon {
				horizon = h
			}
		}
	}

	// Pass 2: apply every frame at or below the horizon, in log order.
	// Node-local transaction ids are not durable by design (§4.2): every
	// replayed version carries one synthetic xid, and only its block stamps
	// say when it was created and deleted. The log is not open yet, so
	// nothing applied here is logged again.
	s := NewStore()
	r := replay{store: s, horizon: horizon, xid: s.BeginTx()}
	kept := make([][]byte, 0, len(frames))
	keptBytes := uint64(0)
	for _, f := range frames {
		r.maxRef = 1<<20 + 64*(keptBytes+uint64(len(f.Payload)))
		ok, err := r.apply(f.Payload)
		if err != nil {
			return nil, fmt.Errorf("storage: %s: the frame at offset %d does not replay, file left untouched: %w", path, f.Off, err)
		}
		if ok {
			kept = append(kept, f.Payload)
			keptBytes += uint64(len(f.Payload))
		}
	}
	if horizon >= 0 {
		s.SetHeight(horizon)
	}

	// Drop the frames beyond the horizon from the log itself, so they can
	// never be applied by a later restart after the block is re-processed
	// (which would double-apply its writes). Otherwise only a torn tail
	// goes.
	if len(kept) != len(frames) {
		err = wal.Rewrite(path, kept)
	} else {
		err = wal.CutTail(path, end)
	}
	if err != nil {
		return nil, err
	}
	if s.log, err = wal.Open(path); err != nil {
		return nil, err
	}
	return s, nil
}

// replay applies a log's frames to a store that has no log yet.
type replay struct {
	store   *Store
	horizon int64
	xid     TxID   // the one synthetic xid of every replayed version
	maxRef  uint64 // the largest heap ref the frame being applied may name
}

// apply applies one log frame. It reports whether the frame is inside the
// recovery horizon (and was therefore applied). No count read from a
// frame sizes an allocation: a frame that checks may still carry any
// number.
func (r *replay) apply(f []byte) (bool, error) {
	if len(f) == 0 {
		return false, fmt.Errorf("empty frame")
	}
	s := r.store
	dec := codec.NewDec(f[1:])
	switch f[0] {
	case opCreateTable:
		at := dec.Varint()
		schema := decodeSchema(dec)
		if err := dec.Done(); err != nil {
			return false, err
		}
		if at > r.horizon {
			return false, nil
		}
		if err := s.CreateTable(schema); err != nil {
			return false, err
		}
	case opCreateIndex:
		at := dec.Varint()
		table := dec.String()
		name := dec.String()
		var cols []int
		for i, n := uint64(0), dec.Uvarint(); i < n && dec.Err() == nil; i++ {
			cols = append(cols, int(dec.Varint()))
		}
		unique := dec.Bool()
		if err := dec.Done(); err != nil {
			return false, err
		}
		if at > r.horizon {
			return false, nil
		}
		if err := s.CreateIndex(table, name, cols, unique); err != nil {
			return false, err
		}
	case opDropTable:
		at := dec.Varint()
		name := dec.String()
		if err := dec.Done(); err != nil {
			return false, err
		}
		if at > r.horizon {
			return false, nil
		}
		_ = s.DropTable(name) // table may already be gone
	case opRetiredHashExempt:
		dec.Varint()
		return false, fmt.Errorf("table %q carries the retired hash-exempt mark: the log was written while sys_ledger was a stored table, predates the derived ledger (ADR-0008) and cannot be served", dec.String())
	case opVacuum:
		at := dec.Varint()
		hz := dec.Varint()
		if err := dec.Done(); err != nil {
			return false, err
		}
		if at > r.horizon {
			return false, nil
		}
		s.Vacuum(hz)
	case opHeight:
		h := dec.Varint()
		if err := dec.Done(); err != nil {
			return false, err
		}
		if h > r.horizon {
			return false, nil
		}
		s.SetHeight(h)
	case opCommit:
		block := dec.Varint()
		var ins []CapturedRow
		for i, n := uint64(0), dec.Uvarint(); i < n && dec.Err() == nil; i++ {
			ins = append(ins, CapturedRow{Table: dec.String(), Ref: dec.Uvarint(), Row: dec.Row()})
		}
		var del []ItemRef
		for i, n := uint64(0), dec.Uvarint(); i < n && dec.Err() == nil; i++ {
			del = append(del, ItemRef{Table: dec.String(), Ref: dec.Uvarint()})
		}
		if err := dec.Done(); err != nil {
			return false, err
		}
		if block > r.horizon {
			return false, nil
		}
		for _, op := range ins {
			if err := r.insert(op, block); err != nil {
				return false, err
			}
		}
		for _, op := range del {
			s.replayDelete(op.Table, op.Ref, r.xid, block)
		}
	default:
		return false, fmt.Errorf("unknown frame kind %d", f[0])
	}
	return true, nil
}

// insert installs an already-committed version: explicit heap ref, row
// data, the synthetic xid, creator block stamp. Index entries are
// maintained; uniqueness was validated before the original commit and is
// not re-checked. A ref sizes the table's heap array, so one past maxRef
// is refused: a real log names only refs its node allocated, and those
// grow with the log. The bound is 1<<20 refs, for inserts aborted in
// between (they leave no frame), plus 64 per byte of the frames applied
// up to this one, so a compacted log replays under the same bounds.
func (r *replay) insert(op CapturedRow, block int64) error {
	t, err := r.store.Table(op.Table)
	if err != nil {
		return nil // no such table: skipped, as replayDelete does
	}
	if op.Ref == 0 || op.Ref > r.maxRef {
		return fmt.Errorf("table %s: heap ref %d out of range (at most %d)", op.Table, op.Ref, r.maxRef)
	}
	if len(op.Row) != len(t.schema.Columns) {
		return fmt.Errorf("table %s: %w: a row of %d values", op.Table, ErrArity, len(op.Row))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.version(op.Ref) != nil {
		return nil
	}
	v := &RowVersion{
		ID:         op.Ref,
		Data:       op.Row,
		Xmin:       r.xid,
		CreatorBlk: block,
		DeleterBlk: NoBlock,
	}
	t.put(v)
	if op.Ref > t.nextRef {
		t.nextRef = op.Ref
	}
	for _, ix := range t.indexes {
		ix.tree.Insert(ix.KeyFor(v.Data), v.ID)
	}
	return nil
}

// replayDelete marks a version superseded during replay.
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

// logFrame appends the frame encode returns, latching the first failure.
// Without a log — a store from NewStore, or one closed — it does nothing
// and encode is not called.
func (s *Store) logFrame(encode func() []byte) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.log == nil {
		return
	}
	if err := s.log.AppendRaw(encode()); err != nil && s.logErr == nil {
		s.logErr = err
	}
}

// MarkDurable is the durability point for everything committed at or
// below block h: the seal stage calls it once per block, off the commit
// critical path. It logs the new durable height and fsyncs, flushing
// every commit frame of the block with it; without a log it does
// nothing. The in-memory height was already bumped by SetHeight at the
// commit stage; blocks between the two are the crash window that
// recovery re-processes from the block store (§3.6). A log write or sync
// failure here is unrecoverable — continuing would acknowledge blocks
// that are not durable — so, like PostgreSQL on a WAL write failure, the
// node panics and relies on crash recovery.
func (s *Store) MarkDurable(h int64) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.log != nil {
		e := codec.NewBuf(16)
		e.Byte(opHeight)
		e.Varint(h)
		if err := s.log.AppendRaw(e.Bytes()); err != nil && s.logErr == nil {
			s.logErr = err
		}
		if err := s.log.Sync(); err != nil && s.logErr == nil {
			s.logErr = err
		}
	}
	if s.logErr != nil {
		panic(fmt.Sprintf("storage: disk WAL write failed, cannot guarantee durability of block %d: %v", h, s.logErr))
	}
}

// Close syncs and closes the log, if there is one. The in-memory state
// stays readable; later writes are not logged.
func (s *Store) Close() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.log == nil {
		return nil
	}
	err1 := s.log.Sync()
	err2 := s.log.Close()
	s.log = nil
	if err1 != nil {
		return err1
	}
	return err2
}

// --- frame encoding ------------------------------------------------------------

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

func encodeDropTable(at int64, name string) []byte {
	e := codec.NewBuf(32)
	e.Byte(opDropTable)
	e.Varint(at)
	e.String(name)
	return e.Bytes()
}

// encodeCommit is the commit frame of rec at block, built from the
// commit-time capture: every inserted version that outlived the commit
// (with its row data) and every superseded version reference. Using
// rec.Capture avoids re-reading the store per row on the commit critical
// path.
func encodeCommit(rec *TxRecord, block int64) []byte {
	e := codec.NewBuf(512)
	e.Byte(opCommit)
	e.Varint(block)
	e.Uvarint(uint64(len(rec.Capture.Inserted)))
	for _, op := range rec.Capture.Inserted {
		e.String(op.Table)
		e.Uvarint(op.Ref)
		e.Row(op.Row)
	}
	e.Uvarint(uint64(len(rec.DeletedOld)))
	for _, ir := range rec.DeletedOld {
		e.String(ir.Table)
		e.Uvarint(ir.Ref)
	}
	return e.Bytes()
}

func encodeVacuum(at, horizon int64) []byte {
	e := codec.NewBuf(16)
	e.Byte(opVacuum)
	e.Varint(at)
	e.Varint(horizon)
	return e.Bytes()
}
