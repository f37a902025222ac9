package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"bcrdb"
	"bcrdb/internal/core"
	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/transport"
)

// Fixed parts of the run's shape (README.md, "Shape of one run").
const (
	blockTimeout = 100 * time.Millisecond
	drainLimit   = 10 * time.Second
	statWindow   = time.Second // width of the windows whose median is reported
	minPerWindow = 200         // samples a window needs to carry a p95 (ten beyond it)
	lateFlagMs   = 5.0         // generator lateness above this flags the run
)

type phaseID uint8

const (
	phaseSetup phaseID = iota
	phaseWarm
	phasePaced
	phaseSat
)

type outcome uint8

const (
	pending outcome = iota
	committed
	serialAbort // ssi: / storage: stale-read|phantom|ww-conflict — an outcome, not a failure
	otherAbort
	opError // submit or query error, or a wrong query answer
)

// opRec is everything the harness knows about one attempted op. The
// generator fills it before registering it; after that the collector
// owns it until the goroutines have stopped.
type opRec struct {
	id     string
	kind   opKind
	phase  phaseID
	closed bool // holds a closed-loop slot
	out    outcome
	reason string
	block  uint64

	due  time.Time // scheduled send time (open loop) or actual (closed loop)
	done time.Time // commit notification / rows returned

	// Traced passes only.
	submitStart, submitEnd time.Time
	rtt                    time.Duration // transport.submit on the served workload
}

func (r *opRec) latency() time.Duration { return r.done.Sub(r.due) }

// runConfig parameterizes one pass over one workload.
type runConfig struct {
	w      *workload
	seed   int64
	warmup time.Duration
	paced  time.Duration
	sat    time.Duration
	setups int  // timed set-ups; the last network is the one measured
	traced bool // keep spans, read layer counters, run probes
	probe  time.Duration
	outDir string // trace files and disk-workload data
}

// sut is the system under test as one workload sees it.
type sut struct {
	w       *workload
	nw      *bcrdb.Network
	dataDir string
	results <-chan core.TxResult

	// Served workload only.
	srv    *transport.Server
	hc     *transport.HTTPClient
	signer *identity.Signer
	stop   func()
	idBase uint64
}

func (s *sut) close() {
	if s.stop != nil {
		s.stop()
	}
	if s.hc != nil {
		_ = s.hc.Close()
	}
	if s.srv != nil {
		_ = s.srv.Close()
	}
	if s.nw != nil {
		s.nw.Close()
	}
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir)
	}
}

// newSUT builds the network (and, served, the wire endpoint, the
// keep-alive submit connection and the commit stream).
func newSUT(w *workload, seed int64, outDir string) (*sut, error) {
	s := &sut{w: w, idBase: uint64(seed) * 0x9e3779b97f4a7c15}
	opts := bcrdb.Options{
		Orgs: []bcrdb.Org{
			{Name: benchUserOrg, Users: []string{benchUser}},
			{Name: "org2"}, {Name: "org3"},
		},
		Flow:           w.flow,
		BlockSize:      blockSize,
		BlockTimeout:   blockTimeout,
		Profile:        bcrdb.ProfileLAN,
		Backend:        w.backend,
		IdentitySecret: idSecret,
		Genesis:        w.genesis(),
	}
	if w.backend == "disk" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(outDir, "data-*")
		if err != nil {
			return nil, err
		}
		s.dataDir = dir
		opts.DataDir = dir
	}
	nw, err := bcrdb.NewNetwork(opts)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("new network: %w", err)
	}
	s.nw = nw
	if !w.served {
		s.results = nw.Node(0).SubscribeAll()
		return s, nil
	}
	if s.srv, err = nw.Serve(0, "127.0.0.1:0"); err != nil {
		s.close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.hc = transport.Dial(s.srv.URL())
	if s.signer, err = identity.Deterministic(benchUser, benchUserOrg, identity.RoleClient, idSecret); err != nil {
		s.close()
		return nil, err
	}
	if s.results, s.stop, err = s.hc.CommitStream(context.Background()); err != nil {
		s.stop = nil
		s.close()
		return nil, fmt.Errorf("commit stream: %w", err)
	}
	return s, nil
}

// submit sends one contract invocation without waiting for its commit.
// Served, the benchmark is the client: it signs, marshals and POSTs.
func (s *sut) submit(o op, seq int64, rec *opRec, traced bool) error {
	if !s.w.served {
		id, err := s.nw.SubmitRaw(benchUser, o.contract, o.args)
		rec.id = id
		return err
	}
	tx := &ledger.Transaction{
		ID:       fmt.Sprintf("%016x%016x", s.idBase, uint64(seq)),
		Username: benchUser,
		Contract: o.contract,
		Args:     o.args,
	}
	tx.Signature = s.signer.Sign(tx.SignBytes())
	payload := ledger.MarshalTransaction(tx)
	rec.id = tx.ID
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	err := s.hc.Submit(context.Background(), payload)
	if traced {
		rec.rtt = time.Since(t0)
	}
	return err
}

// runner drives one pass: one generator goroutine (the caller's) and
// one collector goroutine.
type runner struct {
	cfg runConfig
	s   *sut

	stop     chan struct{} // stops the collector
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu      sync.Mutex
	pending map[string]*opRec
	early   map[string]earlyResult // results that beat their registration
	all     []*opRec               // generator-owned until the run ends
	sem     chan struct{}          // closed-loop slots
	seq     int64
	nextOp  func() op
	// submit sends one transaction and fills rec.id (sut.submit; tests
	// substitute a fake).
	submit func(o op, seq int64, rec *opRec, traced bool) error

	pacedCPU time.Duration // process CPU spent during the paced phase
	pacedOps int64         // ops attempted in it

	// Traced served pass: in-process arrival times for transport.notify.
	inprocMu sync.Mutex
	inproc   map[string]time.Time
}

type earlyResult struct {
	res core.TxResult
	at  time.Time
}

// startRunner builds the system under test, starts the collector and
// commits one transaction (its id sorts below the run's, so the two
// never collide): set-up is done when a transaction can commit.
func startRunner(cfg runConfig) (*runner, error) {
	s, err := newSUT(cfg.w, cfg.seed, cfg.outDir)
	if err != nil {
		return nil, err
	}
	rng := cfg.w.newRng(cfg.seed)
	r := &runner{cfg: cfg, s: s, stop: make(chan struct{}),
		pending: map[string]*opRec{}, early: map[string]earlyResult{},
		sem: make(chan struct{}, maxInFlight), seq: -1, submit: s.submit}
	r.nextOp = func() op { return cfg.w.gen(rng, r.seq) }
	r.wg.Add(1)
	go func() { defer r.wg.Done(); r.collect() }()
	r.issue(r.next(), phaseSetup, time.Now(), false)
	r.drain(drainLimit)
	if rec := r.all[0]; rec.out != committed {
		r.close()
		return nil, fmt.Errorf("set-up: first transaction did not commit: %s", rec.reason)
	}
	return r, nil
}

func (r *runner) stopCollector() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

func (r *runner) close() {
	r.stopCollector()
	r.s.close()
}

func classify(res core.TxResult) outcome {
	switch {
	case res.Committed:
		return committed
	case strings.HasPrefix(res.Reason, "ssi:"),
		strings.HasPrefix(res.Reason, "storage: stale-read"),
		strings.HasPrefix(res.Reason, "storage: phantom"),
		strings.HasPrefix(res.Reason, "storage: ww-conflict"):
		return serialAbort
	}
	return otherAbort
}

// resolve records an op's terminal result. The collector calls it with
// r.mu held, so a generator that finds nothing pending also finds every
// record written.
func (r *runner) resolve(rec *opRec, res core.TxResult, at time.Time) {
	rec.done, rec.block, rec.out, rec.reason = at, res.Block, classify(res), res.Reason
	if rec.closed {
		select {
		case <-r.sem:
		default:
		}
	}
}

// collect is the collector goroutine: it matches every commit
// notification to its op and stamps the arrival.
func (r *runner) collect() {
	for {
		select {
		case <-r.stop:
			return
		case res, ok := <-r.s.results:
			if !ok {
				return
			}
			at := time.Now()
			r.mu.Lock()
			if rec := r.pending[res.ID]; rec != nil {
				delete(r.pending, res.ID)
				r.resolve(rec, res, at)
			} else {
				r.early[res.ID] = earlyResult{res, at}
			}
			r.mu.Unlock()
		}
	}
}

// issue runs one op that was due at the given time.
func (r *runner) issue(o op, ph phaseID, due time.Time, closed bool) {
	rec := &opRec{kind: o.kind, phase: ph, due: due, closed: closed}
	r.all = append(r.all, rec)
	traced := r.cfg.traced
	if traced {
		rec.submitStart = time.Now()
	}
	if o.kind == opQuery {
		res, err := r.s.nw.Client(benchUser).Query(o.sql, o.args...)
		rec.done = time.Now()
		rec.submitEnd = rec.done
		switch {
		case err != nil:
			rec.out, rec.reason = opError, err.Error()
		case len(res.Rows) != o.wantRows,
			o.wantCount > 0 && res.Rows[0][len(res.Rows[0])-1].Int() != o.wantCount:
			rec.out, rec.reason = opError, fmt.Sprintf("query %q returned %v", o.sql, res.Rows)
		default:
			rec.out = committed
		}
		return
	}
	err := r.submit(o, r.seq, rec, traced)
	if traced {
		rec.submitEnd = time.Now()
	}
	if err != nil {
		r.resolve(rec, core.TxResult{Reason: err.Error()}, time.Now())
		rec.out = opError
		return
	}
	r.mu.Lock()
	if e, ok := r.early[rec.id]; ok {
		delete(r.early, rec.id)
		r.mu.Unlock()
		r.resolve(rec, e.res, e.at)
		return
	}
	r.pending[rec.id] = rec
	r.mu.Unlock()
}

func (r *runner) next() op {
	o := r.nextOp()
	r.seq++
	return o
}

// openLoop sends ops on a fixed-interval schedule from start for d,
// whatever the system does; each op is timed from when it was due.
func (r *runner) openLoop(ph phaseID, start time.Time, d time.Duration) {
	interval := time.Duration(float64(time.Second) / r.cfg.w.rate)
	cpu0 := cpuTime()
	var i int64
	for ; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		r.issue(r.next(), ph, due, false)
	}
	if ph == phasePaced {
		r.pacedCPU, r.pacedOps = cpuTime()-cpu0, i
	}
}

// closedLoop submits whenever fewer than maxInFlight transactions are
// outstanding, until end.
func (r *runner) closedLoop(end time.Time) {
	deadline := time.NewTimer(time.Until(end))
	defer deadline.Stop()
	for time.Now().Before(end) {
		o := r.next()
		if o.kind == opQuery {
			r.issue(o, phaseSat, time.Now(), false)
			continue
		}
		select {
		case r.sem <- struct{}{}:
		case <-deadline.C:
			return
		}
		r.issue(o, phaseSat, time.Now(), true)
	}
}

func (r *runner) outstanding() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// drain waits for every outstanding transaction to reach a terminal
// result, up to limit.
func (r *runner) drain(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for r.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

// followInProcess records when node 0 itself announces each result, so
// a traced served pass can tell the commit stream's lag from the node's
// own time. It returns the function that stops the follower.
func (r *runner) followInProcess() (stop func()) {
	r.inproc = map[string]time.Time{}
	ch := r.s.nw.Node(0).SubscribeAll()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case res := <-ch:
				at := time.Now()
				r.inprocMu.Lock()
				r.inproc[res.ID] = at
				r.inprocMu.Unlock()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (ru_maxrss is KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// counters is every public counter the harness reads before and after
// a phase.
type counters struct {
	core               core.Snapshot
	msgs, bytes        int64
	faults             int64
	verHits, verMisses uint64
	planHits, planMiss int64
	rejected           int64
}

func (s *sut) counters() counters {
	c := counters{core: s.nw.Node(0).Metrics().Snapshot()}
	c.msgs, c.bytes = s.nw.Net().Stats()
	c.faults = s.nw.Net().FaultsInjected()
	c.verHits, c.verMisses = identity.VerifyCacheStats()
	c.planHits, c.planMiss = s.nw.Node(0).Engine().PlanCacheStats()
	if s.srv != nil {
		c.rejected = s.srv.Rejected()
	}
	return c
}

// runResult is what one pass reports.
type runResult struct {
	metrics     metricSet
	attempted   int64
	failed      int64
	committedTx int64    // committed transactions since set-up, all phases
	problems    []string // failed output checks; empty means correct
}

// runPass executes one pass over one workload: set-up, warm-up, paced
// phase, saturation phase, drain, output checks and (traced) probes.
func runPass(cfg runConfig) (res *runResult, err error) {
	w := cfg.w
	res = &runResult{metrics: metricSet{}}

	// Set-up, several times: the median is the reported figure, the
	// last network is the one measured.
	var setupS []float64
	var r *runner
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		if r, err = startRunner(cfg); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer r.close()
	s := r.s
	res.metrics.set("setup_s", median(setupS), len(setupS))

	if cfg.traced && w.served {
		defer r.followInProcess()()
	}

	// Both passes start from a collected heap, so set-up garbage does not
	// decide when the first collections of the run fall.
	heap0 := heapInUse()

	// Warm-up at the paced rate, then the two measured phases back to back.
	warmStart := time.Now()
	r.openLoop(phaseWarm, warmStart, cfg.warmup)
	pacedStart := warmStart.Add(cfg.warmup)
	c0 := s.counters()
	r.openLoop(phasePaced, pacedStart, cfg.paced)
	pacedEnd := pacedStart.Add(cfg.paced)
	if d := time.Until(pacedEnd); d > 0 {
		time.Sleep(d)
	}
	c1 := s.counters()
	satStart := time.Now()
	satEnd := satStart.Add(cfg.sat)
	r.closedLoop(satEnd)
	satEnd = time.Now()
	r.drain(drainLimit)
	unresolved := r.outstanding()

	r.stopCollector() // before anything reads the records

	ph := phases{pacedStart, pacedEnd, satStart, satEnd}
	r.endToEnd(res, ph)
	r.outputChecks(res, c0, c1, unresolved)
	if cfg.traced {
		if err := r.layerMetrics(res, ph, c0, c1, heap0, unresolved); err != nil {
			return nil, err
		}
	}
	return res, nil
}

type phases struct{ pacedStart, pacedEnd, satStart, satEnd time.Time }

// measured reports whether the op counts toward attempted/failed.
func (rec *opRec) measured() bool { return rec.phase == phasePaced || rec.phase == phaseSat }

// failed reports whether a measured op counts as a failure: anything
// but a commit (or returned rows) and a serialization abort.
func (rec *opRec) failed() bool {
	return rec.measured() && rec.out != committed && rec.out != serialAbort
}

// endToEnd derives the end-to-end metrics and the attempted/failed
// counts from the op records.
func (r *runner) endToEnd(res *runResult, ph phases) {
	var lat []sample
	var inSat int
	for _, rec := range r.all {
		if rec.measured() {
			res.attempted++
		}
		if rec.failed() {
			res.failed++
		}
		if rec.kind != opTx || rec.out != committed {
			continue
		}
		res.committedTx++
		if rec.phase == phasePaced {
			lat = append(lat, sample{rec.due, ms(rec.latency())})
		}
		if !rec.done.Before(ph.satStart) && rec.done.Before(ph.satEnd) {
			inSat++
		}
	}
	// The median is taken over the whole paced phase; the tail figure is
	// the median of the per-window p95s, so that one stalled second moves
	// one window and not the reported figure.
	all := make([]float64, len(lat))
	for i, s := range lat {
		all[i] = s.v
	}
	res.metrics.set("commit_p50_ms", median(all), len(lat))
	p95, _ := windowStat(lat, ph.pacedStart, ph.pacedEnd, statWindow, minPerWindow,
		func(s []float64) float64 { return percentile(s, 95) })
	res.metrics.set("commit_p95_ms", p95, len(lat))

	// Goodput: transactions whose commit arrived during the saturation
	// phase, per second of it. (Its one-second windows swing by a third
	// with the collector's cycles; the whole phase is the steadier figure.)
	res.metrics.set("peak_tps", float64(inSat)/ph.satEnd.Sub(ph.satStart).Seconds(), inSat)

	// CPU per attempted op over the whole paced phase. (Cost per op climbs
	// through the phase as versions pile up, so a window is not typical.)
	res.metrics.set("cpu_us_per_op", ratio(us(r.pacedCPU), float64(r.pacedOps)), int(r.pacedOps))
	res.metrics.set("rss_mb", maxRSSMB(), 1)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func (res *runResult) problem(format string, args ...any) {
	res.problems = append(res.problems, fmt.Sprintf(format, args...))
}

// outputChecks verifies what the program produced; any failure makes
// the run incorrect.
func (r *runner) outputChecks(res *runResult, c0, c1 counters, unresolved int) {
	nw, w := r.s.nw, r.cfg.w
	if unresolved > 0 {
		res.problem("%d transactions had no terminal result %v after the last submit", unresolved, drainLimit)
	}
	for _, rec := range r.all {
		if rec.failed() && rec.out != pending {
			res.problem("%d ops failed, first: %s", res.failed, rec.reason)
			break
		}
	}
	var tip int64
	for _, n := range nw.Nodes() {
		if h := int64(n.BlockStore().Height()); h > tip {
			tip = h
		}
	}
	if err := nw.WaitHeight(tip, drainLimit); err != nil {
		res.problem("replicas did not converge: %v", err)
	}
	if err := nw.VerifyConsistency(); err != nil {
		res.problem("%v", err)
	}
	// A healthy fabric retries nothing, fails over nowhere and injects no
	// fault. A catch-up request is different: a replica that the host
	// stalled for more than one anti-entropy tick asks a peer for blocks,
	// which is the design working, so it is flagged and reported
	// (core.catchups), not failed.
	pw := c1.core.Sub(c0.core)
	if pw.Diff.ClientRetries != 0 || pw.Diff.OrdererFailovers != 0 || c1.faults != c0.faults {
		res.problem("healthy-fabric counters moved in the paced phase: retries=%d failovers=%d faults=%d",
			pw.Diff.ClientRetries, pw.Diff.OrdererFailovers, c1.faults-c0.faults)
	}
	if pw.Diff.CatchUpRequests != 0 {
		fmt.Printf("%-18s FLAG: node 0 sent %d catch-up requests in the paced phase (a replica trailed its peers)\n",
			w.name, pw.Diff.CatchUpRequests)
	}
	if unresolved > 0 {
		return // the table checks below assume every result was seen
	}
	for i, n := range nw.Nodes() {
		switch w.table {
		case "kv", "region_totals":
			if got, err := scalar(n, `SELECT COUNT(*) FROM `+w.table); err != nil || got.Int() != res.committedTx {
				res.problem("node %d: COUNT(*) of %s = %v, want %d committed (%v)", i, w.table, got, res.committedTx, err)
			}
		case "accounts":
			want := transferAccounts * transferBalance
			if got, err := scalar(n, `SELECT SUM(balance) FROM accounts`); err != nil || got.Float() != want {
				res.problem("node %d: SUM(balance) = %v, want %v (%v)", i, got, want, err)
			}
		}
	}
	if w.table == "region_totals" {
		r.checkJoinRows(res)
	}
}

func scalar(n *core.Node, sql string, params ...bcrdb.Value) (bcrdb.Value, error) {
	out, err := n.Query(sql, params...)
	if err != nil {
		return bcrdb.Null(), err
	}
	if len(out.Rows) != 1 || len(out.Rows[0]) == 0 {
		return bcrdb.Null(), fmt.Errorf("%q returned %d rows", sql, len(out.Rows))
	}
	return out.Rows[0][0], nil
}

// checkJoinRows compares sampled region_totals rows on every node with
// the aggregate the harness computed itself from the seed data.
func (r *runner) checkJoinRows(res *runResult) {
	total, cnt := joinTotals()
	for i, n := range r.s.nw.Nodes() {
		out, err := n.Query(`SELECT region, total, cnt FROM region_totals WHERE id >= $1 AND id < $2`,
			bcrdb.Int(firstRunID), bcrdb.Int(firstRunID+200))
		if err != nil {
			res.problem("node %d: region_totals sample: %v", i, err)
			continue
		}
		if len(out.Rows) == 0 {
			res.problem("node %d: region_totals sample is empty", i)
		}
		for _, row := range out.Rows {
			reg := row[0].Int()
			if reg < 0 || reg >= joinRegions || row[2].Int() != cnt[reg] ||
				math.Abs(row[1].Float()-total[reg]) > 1e-9*total[reg] {
				res.problem("node %d: region_totals row %v, want total %v cnt %d", i, row, total[reg], cnt[reg])
				break
			}
		}
	}
}

// heapInUse is the live heap after a collection.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// dirBytes sums the sizes of the files under dir whose name ends in
// suffix ("" = every file).
func dirBytes(dir, suffix string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), suffix) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// durations returns the ascending values of xs in the given unit.
func durations(xs []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = unit(x)
	}
	sort.Float64s(out)
	return out
}
