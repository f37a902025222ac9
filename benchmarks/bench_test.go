package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"bcrdb"
)

func TestPercentileRule(t *testing.T) {
	// Highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if topPercentile(minPerWindow) != 95 || topPercentile(minPerWindow-1) == 95 {
		t.Errorf("a window of %d samples must be the least that carries a p95", minPerWindow)
	}

	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, p := range []float64{0, 50, 95, 100} {
		if got := percentile(xs, p); got != p {
			t.Errorf("percentile(0..100, %v) = %v", p, got)
		}
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("percentile interpolates: got %v, want 1.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}

	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread(1..5) = %v, want (4.5-1.5)/3", got)
	}
}

func TestWindowStatIgnoresOneStalledWindow(t *testing.T) {
	start := time.Unix(1000, 0)
	var samples []sample
	for w := 0; w < 10; w++ {
		for i := 0; i < minPerWindow; i++ {
			v := 10.0
			if w == 3 {
				v = 500 // one stalled second
			}
			samples = append(samples, sample{start.Add(time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond), v})
		}
	}
	p95 := func(s []float64) float64 { return percentile(s, 95) }
	got, n := windowStat(samples, start, start.Add(10*time.Second), time.Second, minPerWindow, p95)
	if got != 10 || n != 10 {
		t.Errorf("windowStat = %v over %d windows, want 10 over 10", got, n)
	}
	// A phase shorter than a window falls back to all samples.
	if _, n := windowStat(samples, start, start.Add(500*time.Millisecond), time.Second, minPerWindow, p95); n != 0 {
		t.Errorf("short phase used %d windows, want the whole-sample fallback", n)
	}
}

// fakeRunner builds a runner whose submit is replaced: it takes stall[i]
// to send op i and commits nothing by itself.
func fakeRunner(rate float64, stall map[int64]time.Duration) *runner {
	w := &workload{name: "fake", rate: rate, gen: simpleOp}
	rng := w.newRng(1)
	r := &runner{cfg: runConfig{w: w, traced: true}, pending: map[string]*opRec{},
		early: map[string]earlyResult{}, sem: make(chan struct{}, maxInFlight)}
	r.nextOp = func() op { return w.gen(rng, r.seq) }
	r.submit = func(_ op, seq int64, rec *opRec, _ bool) error {
		rec.id = fmt.Sprint(seq)
		time.Sleep(stall[seq])
		return nil
	}
	return r
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const rate = 200 // 5 ms apart
	stall := 60 * time.Millisecond
	r := fakeRunner(rate, map[int64]time.Duration{5: stall}) // the 5th op blocks the generator
	start := time.Now()
	r.openLoop(phasePaced, start, 200*time.Millisecond)

	if len(r.all) != 40 {
		t.Fatalf("open loop issued %d ops in 200 ms at %d/s, want 40", len(r.all), rate)
	}
	var late []time.Duration
	for i, rec := range r.all {
		// The schedule never slips: op i is due at start + i/rate
		// whatever happened to the ops before it.
		if want := start.Add(time.Duration(i) * 5 * time.Millisecond); !rec.due.Equal(want) {
			t.Fatalf("op %d due %v after start, want %v", i, rec.due.Sub(start), want.Sub(start))
		}
		if rec.submitStart.Before(rec.due) {
			t.Errorf("op %d sent %v before it was due", i, rec.due.Sub(rec.submitStart))
		}
		late = append(late, rec.submitStart.Sub(rec.due))
	}
	// The op behind the stalled one was due 5 ms into the stall: it is
	// sent ~55 ms late, and a latency timed from its due time includes
	// that wait.
	if got := late[5]; got < stall-10*time.Millisecond {
		t.Errorf("op after the stall is %v late, want about %v", got, stall-5*time.Millisecond)
	}
	if late[2] > 20*time.Millisecond {
		t.Errorf("op before the stall is %v late", late[2])
	}
	// The generator catches up without dropping ops: lateness decays.
	if last := late[len(late)-1]; last > 20*time.Millisecond {
		t.Errorf("generator still %v late at the end", last)
	}
	// Lateness figure as layerMetrics reports it.
	if p95 := percentile(durations(late, ms), 95); p95 < 20 {
		t.Errorf("gen_late_p95_ms = %.1f, want the stall to show", p95)
	}
	if r.pacedOps != 40 || r.pacedCPU < 0 {
		t.Errorf("paced phase accounted %d ops, %v CPU; want 40 ops", r.pacedOps, r.pacedCPU)
	}
}

func TestCollectorMatchesEarlyAndLateResults(t *testing.T) {
	r := fakeRunner(1000, nil)
	results := make(chan bcrdb.TxResult, 4)
	r.s = &sut{results: results}
	r.stop = make(chan struct{})
	r.wg.Add(1)
	go func() { defer r.wg.Done(); r.collect() }()

	// A result that beats its op's registration is held, not lost.
	results <- bcrdb.TxResult{ID: "1", Block: 7, Committed: true}
	for r.earlyCount() == 0 {
		time.Sleep(time.Millisecond)
	}
	r.issue(r.next(), phaseSat, time.Now(), true) // seq 1 after next()
	if rec := r.all[0]; rec.out != committed || rec.block != 7 {
		t.Fatalf("early result not matched: %+v", rec)
	}
	// A serialization abort is an outcome; anything else is a failure.
	r.sem <- struct{}{}
	r.issue(r.next(), phaseSat, time.Now(), true)
	results <- bcrdb.TxResult{ID: "2", Reason: "storage: stale-read on accounts: x"}
	r.drain(time.Second)
	r.stopCollector()
	if rec := r.all[1]; rec.out != serialAbort || len(r.sem) != 0 {
		t.Fatalf("abort not classified or slot not released: %+v, %d slots held", rec, len(r.sem))
	}
	if classify(bcrdb.TxResult{Reason: "execution: proc: exception: insufficient"}) != otherAbort ||
		classify(bcrdb.TxResult{Reason: "ssi: marked as nearConflict pivot"}) != serialAbort {
		t.Error("classify disagrees with the failure definition")
	}
}

func TestBudgetIdentity(t *testing.T) {
	base := time.Now()
	var due, cut, done []int64
	var lat []time.Duration
	var waits, procs, lats []float64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		d := base.Add(time.Duration(i) * time.Millisecond)
		wait := time.Duration(rng.Intn(30000)) * time.Microsecond
		proc := 8*time.Millisecond + time.Duration(rng.Intn(4000))*time.Microsecond
		due = append(due, d.UnixNano())
		cut = append(cut, d.Add(wait).UnixNano())
		done = append(done, d.Add(wait+proc).UnixNano())
		lat = append(lat, wait+proc)
		waits, procs, lats = append(waits, ms(wait)), append(procs, ms(proc)), append(lats, ms(wait+proc))
	}
	if gap := budgetGap(due, cut, done, lat); gap != 0 {
		t.Errorf("consistent stamps: gap %v, want 0", gap)
	}
	// The two spans of every op tile its latency, so the medians add up
	// closely for these shapes.
	if !sumsTo(median(lats), budgetTol, median(waits), median(procs)) {
		t.Errorf("medians %v + %v vs %v do not add up within %v", median(waits), median(procs), median(lats), budgetTol)
	}
	// A wall clock that steps between due and done breaks the identity.
	done[10] += int64(5 * time.Millisecond)
	if gap := budgetGap(due, cut, done, lat); gap != 5*time.Millisecond {
		t.Errorf("stepped clock: gap %v, want 5ms", gap)
	}
	if sumsTo(100, 0.05, 60, 30) || !sumsTo(100, 0.05, 60, 36) {
		t.Error("sumsTo tolerance is wrong")
	}
}

// opHash digests the first n ops of the (seed, workload) sequence.
func (w *workload) opHash(seed int64, n int) string {
	rng := w.newRng(seed)
	h := fnv.New64a()
	for i := int64(0); i < int64(n); i++ {
		o := w.gen(rng, i)
		fmt.Fprintf(h, "%d|%s|%s|", o.kind, o.contract, o.sql)
		for _, a := range o.args {
			fmt.Fprintf(h, "%s,", a.SQLLiteral())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestOpSequenceIsAFunctionOfSeedAndWorkload(t *testing.T) {
	seen := map[string]string{}
	for _, w := range workloads {
		a, b := w.opHash(1, 2000), w.opHash(1, 2000)
		if a != b {
			t.Errorf("%s: same seed gave different op sequences", w.name)
		}
		if c := w.opHash(2, 2000); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", w.name)
		}
		// The two simple-* workloads share a contract but not a stream.
		if other, dup := seen[a]; dup {
			t.Errorf("%s and %s share an op sequence", w.name, other)
		}
		seen[a] = w.name
	}
	// The mix of the mixed workload: one query per four transfers, half
	// of them range aggregates; transfers never pay an account itself.
	w := workloadByName("transfer-eo-mixed")
	rng := w.newRng(1)
	var queries, ranges int
	for i := int64(0); i < 5000; i++ {
		o := w.gen(rng, i)
		switch {
		case o.kind == opQuery:
			queries++
			if o.wantCount == rangeRows {
				ranges++
			}
		case o.args[0].Int() == o.args[1].Int():
			t.Fatalf("op %d transfers from account %d to itself", i, o.args[0].Int())
		}
	}
	if queries != 1000 || ranges < 400 || ranges > 600 {
		t.Errorf("5000 ops hold %d queries (%d ranges), want 1000 (about 500)", queries, ranges)
	}
	if txRate := w.rate * float64(w.queryEvery-1) / float64(w.queryEvery); txRate != 1200 {
		t.Errorf("paced transfer rate %v, want 1200/s", txRate)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the harness
// from drifting: same workloads, same metrics, same units, and the
// limits the file's contract sets.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v, want [benchmarks]", bf.Paths)
	}
	if bf.RunSeconds < 16 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d: each phase needs at least 8 s", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), harness has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit, better string, def metricDef) {
		if name != def.name || unit != def.unit {
			t.Errorf("%s %d: declared %s [%s], harness has %s [%s]", kind, i, name, unit, def.name, def.unit)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("%s %s [%s]: malformed or repeated", kind, name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s %s: better = %q", kind, name, better)
		}
		seen[name] = true
	}
	if len(bf.EndToEnd) != len(endToEndDefs) || len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("declared %d + %d metrics, harness has %d + %d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEndDefs[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s], lower is better")
	}
	if len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(bf.PerLayer))
	}
	for i, m := range bf.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayerDefs[i])
	}
}

// TestSmokeEveryWorkload runs every workload with one-second phases and
// asserts that a pass emits exactly the declared metrics, each with its
// unit, in both result-line forms. It asserts no timing.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four 3-second networks")
	}
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range bf.Workloads {
		decl := decl
		t.Run(decl.Name, func(t *testing.T) {
			t.Parallel()
			w := workloadByName(decl.Name)
			if w == nil {
				t.Fatalf("BENCHMARK.json names workload %q, which the harness lacks", decl.Name)
			}
			res, err := runPass(runConfig{
				w: w, seed: 1, traced: true, outDir: t.TempDir(),
				warmup: 500 * time.Millisecond, paced: time.Second, sat: time.Second,
				setups: 1, probe: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 || res.metrics.get("peak_tps") <= 0 || res.metrics.get("client.samples") == 0 {
				t.Fatalf("nothing measured: attempted %d, peak_tps %v", res.attempted, res.metrics.get("peak_tps"))
			}
			for _, p := range res.problems {
				t.Logf("output check (not asserted under test load): %s", p)
			}
			declared := map[bool]map[string]string{false: {}, true: {}}
			for _, m := range bf.EndToEnd {
				declared[false][m.Name] = m.Unit
			}
			for _, m := range bf.PerLayer {
				declared[true][m.Name] = m.Unit
			}
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				if err := res.report(&out, w, traced); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line resultLine
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("last line is not a result line: %v", err)
				}
				if line.Attempted < 1 || line.Failed < 0 {
					t.Errorf("attempted %d failed %d", line.Attempted, line.Failed)
				}
				var got []string
				for name, mv := range line.Metrics {
					got = append(got, name)
					if want, ok := declared[traced][name]; !ok || mv.Unit != want {
						t.Errorf("trace=%v: emitted %s [%s], declared unit %q", traced, name, mv.Unit, want)
					}
					if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
						t.Errorf("trace=%v: %s = %v", traced, name, mv.Value)
					}
				}
				if len(got) != len(declared[traced]) {
					sort.Strings(got)
					t.Errorf("trace=%v: emitted %d metrics %v, declared %d", traced, len(got), got, len(declared[traced]))
				}
			}
			// What each workload exists to exercise is exercised.
			m := res.metrics
			served := w.served
			if (m.get("transport.submit_rtt_p50_us") > 0) != served || (m.get("wal.bytes_per_frame") > 0) != served ||
				(m.get("disk_bytes_per_tx") > 0) != served {
				t.Errorf("transport/wal/disk figures present = %v/%v/%v, want only on the served workload",
					m.get("transport.submit_rtt_p50_us") > 0, m.get("wal.bytes_per_frame") > 0, m.get("disk_bytes_per_tx") > 0)
			}
			if (m.get("query_p50_us") > 0) != (w.queryEvery > 0) {
				t.Errorf("query_p50_us = %v with queryEvery = %d", m.get("query_p50_us"), w.queryEvery)
			}
		})
	}
}

func (r *runner) earlyCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.early)
}
