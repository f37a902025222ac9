package main

import (
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"bcrdb"
	"bcrdb/internal/codec"
	"bcrdb/internal/engine"
	"bcrdb/internal/identity"
	"bcrdb/internal/index"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/proc"
	"bcrdb/internal/sqlparser"
	"bcrdb/internal/ssi"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
	"bcrdb/internal/wal"
)

// Probe sizes.
const (
	probeTxs     = 2000   // run transactions replayed through a layer
	probeKeys    = 100000 // integer keys in the index probe
	probeRows    = 20000  // rows in the storage probe's table
	probeBatch   = 500    // transactions prepared per validate+commit batch
	probeSigs    = 1500   // signatures verified cold, then cached
	probeFrames  = 100    // WAL frames appended before each timed Sync
	probeBlockTx = 100    // transactions per block in the ssi probe
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// timeLoop calls fn in batches for about budget and returns the median
// of the per-batch mean time per call, in nanoseconds, with the number
// of calls made. fn(i) gets a running call index.
func timeLoop(budget time.Duration, fn func(i int)) (nsPerCall float64, calls int) {
	var means []float64
	batch := 1
	var spent time.Duration
	for spent < budget {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			fn(calls + k)
		}
		d := time.Since(t0)
		spent += d
		calls += batch
		means = append(means, float64(d)/float64(batch))
		if d < budget/20 {
			batch *= 2
		}
	}
	return median(means), calls
}

// probes measures each layer alone, on one goroutine, through its
// exported API, replaying the run's own blocks and rows where the layer
// takes them. Every probe is bounded by cfg.probe.
func (r *runner) probes(res *runResult, blocks []*ledger.Block) error {
	m, w, budget := res.metrics, r.cfg.w, r.cfg.probe
	node0 := r.s.nw.Node(0)

	var sample []*ledger.Transaction
	var sampleBlocks []*ledger.Block
	for _, b := range blocks {
		if len(sample) >= probeTxs {
			break
		}
		sample = append(sample, b.Txs...)
		sampleBlocks = append(sampleBlocks, b)
	}
	if len(sample) == 0 {
		return fmt.Errorf("probes: the paced phase left no transactions to replay")
	}
	n := len(sample)

	// ordering: cut the run's transactions into blocks again (incl. the
	// cut's block hash). A cutter drops repeated ids, so each pass over
	// the sample starts a fresh one.
	ns, passes := timeLoop(budget, func(int) {
		c := ordering.NewCutter(ordering.Config{BlockSize: blockSize})
		for _, tx := range sample {
			if b := c.AddTx(tx, 1); b != nil {
				sink += len(b.Txs)
			}
		}
	})
	m.set("ordering.cutter_ns_per_tx", ns/float64(n), passes*n)

	// ledger: the run's transactions and blocks through the codecs.
	payloads := make([][]byte, n)
	var txBytes int
	for i, tx := range sample {
		payloads[i] = ledger.MarshalTransaction(tx)
		txBytes += len(payloads[i])
	}
	m.set("ledger.tx_bytes", float64(txBytes)/float64(n), n)
	ns, calls := timeLoop(budget, func(i int) { sink += len(ledger.MarshalTransaction(sample[i%n])) })
	m.set("ledger.marshal_tx_ns", ns, calls)
	var perr error
	ns, calls = timeLoop(budget, func(i int) {
		if _, err := ledger.UnmarshalTransaction(payloads[i%n]); err != nil {
			perr = err
		}
	})
	m.set("ledger.unmarshal_tx_ns", ns, calls)
	nb := len(sampleBlocks)
	encoded := make([][]byte, nb)
	for i, b := range sampleBlocks {
		encoded[i] = b.Encode()
	}
	perBlockTx := float64(n) / float64(nb)
	ns, calls = timeLoop(budget, func(i int) { sink += len(sampleBlocks[i%nb].Encode()) })
	m.set("ledger.block_encode_ns_per_tx", ns/perBlockTx, calls)
	ns, calls = timeLoop(budget, func(i int) {
		if _, err := ledger.DecodeBlock(encoded[i%nb]); err != nil {
			perr = err
		}
	})
	m.set("ledger.block_decode_ns_per_tx", ns/perBlockTx, calls)
	ns, calls = timeLoop(budget, func(i int) {
		b := *sampleBlocks[i%nb]
		b.ComputeHash()
		sink += int(b.Hash[0])
	})
	m.set("ledger.block_hash_ns_per_tx", ns/perBlockTx, calls)
	if perr != nil {
		return fmt.Errorf("probes: ledger round trip: %w", perr)
	}

	// identity: sign the run's sign-bytes with a key of the probe's own;
	// verify each signature once (a memo miss: the real Ed25519 cost),
	// then again (a memo hit).
	signer, err := identity.Deterministic("probe", "probe-org", identity.RoleClient, idSecret)
	if err != nil {
		return err
	}
	msgs := make([][]byte, n)
	for i, tx := range sample {
		msgs[i] = tx.SignBytes()
	}
	ns, calls = timeLoop(budget, func(i int) { sink += len(signer.Sign(msgs[i%n])) })
	m.set("identity.sign_us", ns/1e3, calls)
	nsig := probeSigs
	if nsig > n {
		nsig = n
	}
	sigs := make([][]byte, nsig)
	for i := range sigs {
		sigs[i] = signer.Sign(msgs[i])
	}
	pub := signer.Public()
	verifyAll := func() time.Duration {
		t0 := time.Now()
		for i, sig := range sigs {
			if !pub.Verify(msgs[i], sig) {
				perr = fmt.Errorf("probes: signature %d does not verify", i)
			}
		}
		return time.Since(t0)
	}
	m.set("identity.verify_us", us(verifyAll())/float64(nsig), nsig)
	m.set("identity.verify_cached_ns", float64(verifyAll())/float64(nsig), nsig)
	if perr != nil {
		return perr
	}

	// codec: the run's argument rows.
	row := types.Row(sample[0].Args)
	ns, calls = timeLoop(budget, func(i int) {
		e := codec.NewBuf(128)
		e.Row(types.Row(sample[i%n].Args))
		sink += len(e.Bytes())
	})
	m.set("codec.row_encode_ns", ns, calls)
	e := codec.NewBuf(128)
	e.Row(row)
	ns, calls = timeLoop(budget, func(int) { sink += len(codec.NewDec(e.Bytes()).Row()) })
	m.set("codec.row_decode_ns", ns, calls)

	// sqlparser: the statements this workload makes a node parse.
	ns, calls = timeLoop(budget, func(i int) {
		if _, err := sqlparser.ParseStatement(w.statements[i%len(w.statements)]); err != nil {
			perr = fmt.Errorf("probes: parse %q: %w", w.statements[i%len(w.statements)], err)
		}
	})
	m.set("sqlparser.parse_us", ns/1e3, calls)
	if perr != nil {
		return perr
	}

	// engine: read-only queries on node 0's own engine and final state.
	eng, height := node0.Engine(), node0.Height()
	rows, err := node0.Store().CountVisible(w.table, height)
	if err != nil {
		return err
	}
	span := int64(rows) - 1 // the set-up row's id lies below probeLo
	if w.table == "region_totals" {
		span = joinRegions * joinOrdersPerRegion // the probes read the seeded tables
	}
	if span <= rangeRows {
		return fmt.Errorf("probes: %s holds %d rows, too few to query", w.table, rows)
	}
	query := func(sql string, params ...types.Value) {
		ctx := &engine.ExecCtx{Mode: engine.ModeReadOnly, Height: height, Params: params}
		out, err := eng.ExecSQL(ctx, sql)
		if err != nil || len(out.Rows) != 1 {
			perr = fmt.Errorf("probes: %q: %d rows, %v", sql, len(out.Rows), err)
		}
	}
	ns, calls = timeLoop(budget, func(i int) {
		query(w.pointSQL, types.NewInt(w.probeLo+int64(i)*7919%span))
	})
	m.set("engine.query_point_us", ns/1e3, calls)
	ns, calls = timeLoop(budget, func(i int) {
		lo := w.probeLo + int64(i)*7919%(span-rangeRows)
		query(w.rangeSQL, types.NewInt(lo), types.NewInt(lo+rangeRows))
	})
	m.set("engine.query_range_us", ns/1e3, calls)
	if perr != nil {
		return perr
	}

	// storage.statehash: node 0's final state, whole.
	ns, calls = timeLoop(budget, func(int) { h := node0.Store().StateHash(height); sink += int(h[0]) })
	m.set("storage.statehash_ms", ns/1e6, calls)

	if err := r.probeProc(m, sample); err != nil {
		return err
	}
	probeIndex(m, budget)
	if err := probeStorage(m, budget); err != nil {
		return err
	}
	r.probeSSI(m)
	return r.probeWAL(m)
}

// probeProc calls the workload's contract through proc.Interp on a
// standalone store + engine loaded with the same genesis. Each call
// runs as its own transaction and is aborted, so the store — and with it
// the work per call — stays constant.
func (r *runner) probeProc(m metricSet, sample []*ledger.Transaction) error {
	w := r.cfg.w
	path := ""
	if w.backend == "disk" {
		dir, err := os.MkdirTemp(r.cfg.outDir, "data-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		path = filepath.Join(dir, "probe.store.wal")
	}
	st, err := storage.Open(storage.Kind(w.backend), path)
	if err != nil {
		return err
	}
	defer st.Close()
	eng := engine.New(st)
	if err := proc.CreateSystemTables(eng); err != nil {
		return err
	}
	g := w.genesis()
	rec := storage.NewTxRecord(st.BeginTx(), 0)
	sys := &engine.ExecCtx{Mode: engine.ModeSystem, Rec: rec}
	for _, src := range g.Contracts {
		p, err := proc.ParseCreateFunction(src)
		if err != nil {
			return err
		}
		sub := *sys
		sub.Params = []types.Value{types.NewString(p.Name), types.NewString(src)}
		if _, err := eng.ExecSQL(&sub, `INSERT INTO sys_contracts (name, src) VALUES ($1, $2)`); err != nil {
			return err
		}
	}
	for _, stmt := range g.SQL {
		if _, err := eng.ExecSQL(sys, stmt); err != nil {
			return err
		}
	}
	st.CommitTx(rec, 0)
	st.SetHeight(0)

	in := proc.NewInterp(eng)
	var perr error
	call := func(i int) {
		tx := sample[i%len(sample)]
		rec := storage.NewTxRecord(st.BeginTx(), 0)
		ctx := &engine.ExecCtx{Mode: engine.ModeContract, Rec: rec, Height: 0,
			RequireIndex: w.flow == bcrdb.ExecuteOrder, User: benchUser}
		if _, err := in.Call(ctx, tx.Contract, tx.Args); err != nil {
			perr = fmt.Errorf("probes: call %s: %w", tx.Contract, err)
		}
		st.AbortTx(rec)
	}
	t0 := time.Now()
	call(0) // compiles the contract and plans its statements
	m.set("proc.first_call_us", us(time.Since(t0)), 1)
	ns, calls := timeLoop(r.cfg.probe, call)
	m.set("proc.call_us", ns/1e3, calls)
	return perr
}

// probeIndex exercises a B-tree of probeKeys integer keys.
func probeIndex(m metricSet, budget time.Duration) {
	rng := rand.New(rand.NewSource(datasetSeed))
	keys := make([]types.Key, probeKeys)
	for i, k := range rng.Perm(probeKeys) {
		keys[i] = types.Key{types.NewInt(int64(k))}
	}
	tree := index.New()
	t0 := time.Now()
	for i, k := range keys {
		tree.Insert(k, uint64(i))
	}
	m.set("index.insert_ns", float64(time.Since(t0))/probeKeys, probeKeys)
	ns, calls := timeLoop(budget, func(i int) { sink += len(tree.Get(keys[i%probeKeys])) })
	m.set("index.get_ns", ns, calls)
	ns, calls = timeLoop(budget, func(int) {
		tree.Scan(index.AllRange(), func(_ types.Key, refs []uint64) bool { sink += len(refs); return true })
	})
	m.set("index.scan_ns_per_key", ns/probeKeys, calls*probeKeys)
}

// probeStorage drives a standalone memory store directly: inserts,
// scans, and the commit turn (Validate + CommitTx) of one-row inserts
// and one-row updates.
func probeStorage(m metricSet, budget time.Duration) error {
	st := storage.NewStore()
	eng := engine.New(st)
	ddl := storage.NewTxRecord(st.BeginTx(), 0)
	if _, err := eng.ExecSQL(&engine.ExecCtx{Mode: engine.ModeSystem, Rec: ddl},
		`CREATE TABLE probe (id BIGINT PRIMARY KEY, k TEXT, v TEXT)`); err != nil {
		return err
	}
	st.AbortTx(ddl)
	tab, err := st.Table("probe")
	if err != nil {
		return err
	}
	mkRow := func(id int64) types.Row {
		return types.Row{types.NewInt(id), types.NewString("key"), types.NewString(hex.EncodeToString(make([]byte, 16)))}
	}
	var perr error
	height := int64(0)

	// One transaction inserting probeRows rows: the insert path alone.
	rec := storage.NewTxRecord(st.BeginTx(), height)
	refs := make([]uint64, probeRows)
	t0 := time.Now()
	for i := range refs {
		v, err := st.Insert(rec, "probe", mkRow(int64(i)))
		if err != nil {
			return err
		}
		refs[i] = v.ID
	}
	m.set("storage.insert_ns", float64(time.Since(t0))/probeRows, probeRows)
	height++
	st.CommitTx(rec, height)
	st.SetHeight(height)

	ns, calls := timeLoop(budget, func(int) {
		perr = st.ScanIndex("probe", tab.PrimaryIndexName(), index.AllRange(), 0, height, storage.ScanVisible,
			func(v *storage.RowVersion) bool { sink += len(v.Data); return true })
	})
	m.set("storage.scan_ns_per_row", ns/probeRows, calls*probeRows)
	if perr != nil {
		return perr
	}

	// Commit turn: prepare a batch of one-row transactions untimed, then
	// time Validate + CommitTx over the batch, one block per batch.
	nextID := int64(probeRows)
	commitTurn := func(prepare func(rec *storage.TxRecord, k int) error) (float64, int, error) {
		var means []float64
		var spent time.Duration
		done := 0
		for spent < budget {
			recs := make([]*storage.TxRecord, probeBatch)
			for k := range recs {
				recs[k] = storage.NewTxRecord(st.BeginTx(), height)
				if err := prepare(recs[k], done+k); err != nil {
					return 0, 0, err
				}
			}
			height++
			t0 := time.Now()
			for _, rec := range recs {
				if err := st.Validate(rec, height); err != nil {
					return 0, 0, err
				}
				st.CommitTx(rec, height)
			}
			d := time.Since(t0)
			st.SetHeight(height)
			spent += d
			done += probeBatch
			means = append(means, float64(d)/probeBatch)
		}
		return median(means), done, nil
	}
	ns, calls, err = commitTurn(func(rec *storage.TxRecord, _ int) error {
		_, err := st.Insert(rec, "probe", mkRow(nextID))
		nextID++
		return err
	})
	if err != nil {
		return err
	}
	m.set("storage.validate_commit_insert_ns", ns, calls)
	ns, calls, err = commitTurn(func(rec *storage.TxRecord, k int) error {
		// An update as the engine performs it: supersede the visible
		// version, insert its replacement, and remember the new ref.
		slot := k % probeRows
		rec.NoteRead("probe", refs[slot])
		if err := st.MarkDelete(rec, "probe", refs[slot]); err != nil {
			return err
		}
		v, err := st.Insert(rec, "probe", mkRow(int64(slot)))
		if err != nil {
			return err
		}
		refs[slot] = v.ID
		return nil
	})
	if err != nil {
		return err
	}
	m.set("storage.validate_commit_update_ns", ns, calls)
	return nil
}

// probeSSI runs the block-level analysis over blocks of probeBlockTx
// transactions whose footprints come from the workload's own op
// generator, so they conflict the way the run's did.
func (r *runner) probeSSI(m metricSet) {
	w := r.cfg.w
	mode := ssi.OrderThenExecute
	if w.flow == bcrdb.ExecuteOrder {
		mode = ssi.ExecuteOrderParallel
	}
	rng := w.newRng(r.cfg.seed)
	const nBlocks = 20
	blocks := make([][]*ssi.TxInfo, nBlocks)
	var i int64
	for b := range blocks {
		for len(blocks[b]) < probeBlockTx {
			o := w.gen(rng, i)
			i++
			if o.kind != opTx {
				continue
			}
			blocks[b] = append(blocks[b], footprint(w, o, len(blocks[b])))
		}
	}
	ns, calls := timeLoop(r.cfg.probe, func(i int) {
		infos := blocks[i%nBlocks]
		a := ssi.NewAnalysis(mode, infos)
		for seq := range infos {
			if a.ShouldAbort(seq) != ssi.ReasonNone {
				a.MarkAborted(seq)
			} else {
				a.MarkCommitted(seq)
			}
		}
	})
	m.set("ssi.analysis_ns_per_tx", ns/probeBlockTx, calls*probeBlockTx)
}

// footprint approximates the read/write set the contract leaves for one
// op: the rows it reads and supersedes and the index keys it inserts.
func footprint(w *workload, o op, seq int) *ssi.TxInfo {
	info := &ssi.TxInfo{
		Seq:        seq,
		ReadRows:   map[storage.ItemRef]struct{}{},
		WrittenOld: map[storage.ItemRef]struct{}{},
	}
	pk := func(id types.Value) ssi.KeyAt {
		return ssi.KeyAt{Table: w.table, Index: "pk", Key: types.Key{id}}
	}
	switch w.table {
	case "accounts": // reads and rewrites both accounts
		for _, acct := range o.args[:2] {
			ref := storage.ItemRef{Table: w.table, Ref: uint64(acct.Int())}
			info.ReadRows[ref] = struct{}{}
			info.WrittenOld[ref] = struct{}{}
			info.InsertedKeys = append(info.InsertedKeys, pk(acct))
		}
	case "region_totals": // reads one region's orders and items, inserts one row
		region := o.args[0].Int()
		for k := int64(0); k < joinOrdersPerRegion*(1+joinItemsPerOrder); k++ {
			info.ReadRows[storage.ItemRef{Table: "orders", Ref: uint64(region*1000 + k)}] = struct{}{}
		}
		info.ReadRanges = append(info.ReadRanges, storage.RangeRef{Table: "orders", Index: "orders_region",
			Range: index.PointRange(types.Key{o.args[0]})})
		info.InsertedKeys = append(info.InsertedKeys, pk(o.args[1]))
	default: // inserts one row
		info.InsertedKeys = append(info.InsertedKeys, pk(o.args[0]))
	}
	return info
}

// probeWAL appends frames of the size the run's store WAL held, and
// syncs once per probeFrames appends, as the seal stage does per block.
// Only the disk-backed workload has a WAL; elsewhere the figures are 0.
func (r *runner) probeWAL(m metricSet) error {
	m.set("wal.append_us", 0, 0)
	m.set("wal.sync_us", 0, 0)
	m.set("wal.bytes_per_frame", 0, 0)
	if r.s.dataDir == "" {
		return nil
	}
	// Read a copy: ReadAllRaw truncates a torn tail, which must never
	// happen to the live log.
	live := filepath.Join(r.s.dataDir, benchUserOrg, r.s.nw.Node(0).Name()+".store.wal")
	dir, err := os.MkdirTemp(r.cfg.outDir, "data-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snapshot := filepath.Join(dir, "copy.wal")
	if err := copyFile(live, snapshot); err != nil {
		return err
	}
	frames, err := wal.ReadAllRaw(snapshot)
	if err != nil {
		return err
	}
	if len(frames) == 0 {
		return fmt.Errorf("probes: %s holds no frames", live)
	}
	var total int
	for _, f := range frames {
		total += len(f)
	}
	mean := total / len(frames)
	m.set("wal.bytes_per_frame", float64(mean), len(frames))

	lg, err := wal.Open(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	defer lg.Close()
	payload := make([]byte, mean)
	var appendNs, syncNs []float64
	var spent time.Duration
	for spent < 2*r.cfg.probe {
		t0 := time.Now()
		for k := 0; k < probeFrames; k++ {
			if err := lg.AppendRaw(payload); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if err := lg.Sync(); err != nil {
			return err
		}
		t2 := time.Now()
		appendNs = append(appendNs, float64(t1.Sub(t0))/probeFrames)
		syncNs = append(syncNs, float64(t2.Sub(t1)))
		spent += t2.Sub(t0)
	}
	m.set("wal.append_us", median(appendNs)/1e3, len(appendNs)*probeFrames)
	m.set("wal.sync_us", median(syncNs)/1e3, len(syncNs))
	return nil
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}
