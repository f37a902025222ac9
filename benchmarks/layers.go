package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"bcrdb/internal/ledger"
)

// Budget tolerances: the means of the two spans must add up to the mean
// latency within meanTol or the traced pass fails; the medians are
// flagged when their sum misses the median latency by more than
// budgetTol.
const (
	meanTol   = 0.002
	budgetTol = 0.05
)

// span is one layer-boundary interval of one op. Spans of an op share
// its transaction id; parent names the span that caused this one ("" for
// the root).
type span struct {
	tx, name, parent string
	start, end       int64 // unix nanoseconds
}

// layerMetrics derives every per-layer figure of a traced pass: from
// the harness's own stamps and public counters read around the phases
// (here), and from single-goroutine probes over the run's own blocks
// (probes.go). It writes the pass's trace file and checks that the
// latency budget adds up.
func (r *runner) layerMetrics(res *runResult, ph phases, c0, c1 counters, heap0 uint64, unresolved int) error {
	m, s, w := res.metrics, r.s, r.cfg.w
	node0 := s.nw.Node(0)
	store := node0.BlockStore()
	blockTs := func(n uint64) int64 {
		if b, err := store.Get(n); err == nil {
			return b.Timestamp
		}
		return 0
	}

	var (
		spans                      []span
		lat, wait, process         []time.Duration
		dueNs, cutNs, doneNs       []int64
		submit, submitSat, late    []time.Duration
		rtt, lag                   []time.Duration
		query                      []time.Duration
		satBusy                    time.Duration
		txs, serial, bySSI, byStor int64 // paced phase
		satTxs, satSerial          int64
		allCommitted               = res.committedTx
	)
	for _, rec := range r.all {
		if !rec.measured() {
			continue
		}
		if rec.kind == opQuery {
			if rec.phase == phasePaced && rec.out == committed {
				query = append(query, rec.latency())
			}
			continue
		}
		resolved, aborted := rec.out == committed || rec.out == serialAbort, rec.out == serialAbort
		switch {
		case !resolved:
		case rec.phase == phaseSat:
			satTxs++
			if aborted {
				satSerial++
			}
		default:
			txs++
			if aborted {
				serial++
				if strings.HasPrefix(rec.reason, "ssi:") {
					bySSI++
				} else {
					byStor++
				}
			}
		}
		if rec.phase == phaseSat {
			d := rec.submitEnd.Sub(rec.submitStart)
			submitSat = append(submitSat, d)
			satBusy += d
			continue
		}
		submit = append(submit, rec.submitEnd.Sub(rec.submitStart))
		late = append(late, rec.submitStart.Sub(rec.due))
		if w.served {
			rtt = append(rtt, rec.rtt)
		}
		if rec.out != committed {
			continue
		}
		cut := blockTs(rec.block)
		if cut == 0 {
			res.problem("tx %s: block %d is not in node 0's block store", rec.id, rec.block)
			continue
		}
		due, done := rec.due.UnixNano(), rec.done.UnixNano()
		lat = append(lat, rec.latency())
		wait = append(wait, time.Duration(cut-due))
		process = append(process, time.Duration(done-cut))
		dueNs, cutNs, doneNs = append(dueNs, due), append(cutNs, cut), append(doneNs, done)

		spans = append(spans,
			span{rec.id, "op", "", due, done},
			span{rec.id, "client.submit", "op", rec.submitStart.UnixNano(), rec.submitEnd.UnixNano()},
			span{rec.id, "ordering.wait", "op", due, cut},
			span{rec.id, "core.process", "op", cut, done})
		if w.served {
			spans = append(spans, span{rec.id, "transport.submit", "client.submit",
				rec.submitEnd.Add(-rec.rtt).UnixNano(), rec.submitEnd.UnixNano()})
			r.inprocMu.Lock()
			at, ok := r.inproc[rec.id]
			r.inprocMu.Unlock()
			if ok {
				lag = append(lag, rec.done.Sub(at))
				spans = append(spans, span{rec.id, "transport.notify", "core.process", at.UnixNano(), done})
			}
		}
	}

	// Demoted end-to-end metrics.
	m.set("fail_share", ratio(float64(res.failed), float64(res.attempted)), int(res.attempted))
	queryUs := durations(query, us)
	m.set("query_p50_us", percentile(queryUs, 50), len(query))
	var diskBytes, blockBytes, walBytes int64
	if s.dataDir != "" {
		var err error
		if diskBytes, err = dirBytes(s.dataDir, ""); err != nil {
			return err
		}
		if blockBytes, err = dirBytes(s.dataDir, ".blocks"); err != nil {
			return err
		}
		if walBytes, err = dirBytes(s.dataDir, ".store.wal"); err != nil {
			return err
		}
	}
	perTx := func(total int64) float64 { return ratio(float64(total), float64(allCommitted)) }
	m.set("disk_bytes_per_tx", perTx(diskBytes), int(allCommitted))

	// client
	m.set("client.submit_us", percentile(durations(submit, us), 50), len(submit))
	m.set("client.submit_sat_us", percentile(durations(submitSat, us), 50), len(submitSat))
	m.set("client.sat_busy_share", ratio(satBusy.Seconds(), ph.satEnd.Sub(ph.satStart).Seconds()), len(submitSat))
	lateP95 := percentile(durations(late, ms), 95)
	m.set("client.gen_late_p95_ms", lateP95, len(late))
	latMs := durations(lat, ms)
	m.set("client.commit_p50_ms", percentile(latMs, 50), len(lat))
	m.set("client.commit_p99_ms", percentile(latMs, 99), len(lat))
	m.set("client.commit_mean_ms", mean(latMs), len(lat))
	m.set("client.samples", float64(len(lat)), len(lat))
	pw := c1.core.Sub(c0.core)
	m.set("client.retries", float64(pw.Diff.ClientRetries), 1)
	m.set("client.unresolved", float64(unresolved), 1)

	// transport (served only)
	rttUs := durations(rtt, us)
	m.set("transport.submit_rtt_p50_us", percentile(rttUs, 50), len(rtt))
	m.set("transport.submit_rtt_p95_us", percentile(rttUs, 95), len(rtt))
	m.set("transport.notify_lag_p50_us", percentile(durations(lag, us), 50), len(lag))
	m.set("transport.rejected", float64(c1.rejected-c0.rejected), 1)

	// simnet, identity, engine: counter diffs over the paced phase,
	// per transaction node 0 finished in it.
	pacedTx := float64(pw.Diff.TxCommitted + pw.Diff.TxAborted)
	m.set("simnet.msgs_per_tx", ratio(float64(c1.msgs-c0.msgs), pacedTx), int(pacedTx))
	m.set("simnet.bytes_per_tx", ratio(float64(c1.bytes-c0.bytes), pacedTx), int(pacedTx))
	m.set("simnet.faults_injected", float64(c1.faults-c0.faults), 1)
	hits, misses := float64(c1.verHits-c0.verHits), float64(c1.verMisses-c0.verMisses)
	m.set("identity.verify_miss_per_tx", ratio(misses, pacedTx), int(pacedTx))
	m.set("identity.verify_hit_share", ratio(hits, hits+misses), int(hits+misses))
	planHits, planMiss := float64(c1.planHits-c0.planHits), float64(c1.planMiss-c0.planMiss)
	m.set("engine.plan_cache_hit_share", ratio(planHits, planHits+planMiss), int(planHits+planMiss))
	m.set("engine.query_p95_us", percentile(queryUs, 95), len(query))

	// ordering: the blocks cut during the paced phase.
	var pacedBlocks []*ledger.Block
	var blockTxs, timeoutCuts int
	for n := uint64(1); n <= store.Height(); n++ {
		b, err := store.Get(n)
		if err != nil {
			return err
		}
		if b.Timestamp >= ph.pacedStart.UnixNano() && b.Timestamp < ph.pacedEnd.UnixNano() {
			pacedBlocks = append(pacedBlocks, b)
			blockTxs += len(b.Txs)
			if len(b.Txs) < blockSize {
				timeoutCuts++
			}
		}
	}
	if len(pacedBlocks) == 0 {
		return fmt.Errorf("no block was cut during the paced phase")
	}
	waitMs := durations(wait, ms)
	m.set("ordering.wait_p50_ms", percentile(waitMs, 50), len(wait))
	m.set("ordering.wait_p95_ms", percentile(waitMs, 95), len(wait))
	m.set("ordering.wait_mean_ms", mean(waitMs), len(wait))
	m.set("ordering.txs_per_block", ratio(float64(blockTxs), float64(len(pacedBlocks))), len(pacedBlocks))
	m.set("ordering.timeout_cut_share", ratio(float64(timeoutCuts), float64(len(pacedBlocks))), len(pacedBlocks))

	// core: node 0's own counters over the paced phase, and the stamps.
	blocks := int(pw.Diff.BlocksProcessed)
	m.set("core.bpt_ms", pw.BPT(), blocks)
	m.set("core.bet_ms", pw.BET(), blocks)
	m.set("core.bct_ms", pw.BCT(), blocks)
	m.set("core.bst_ms", pw.BST(), int(pw.Diff.BlocksSealed))
	m.set("core.tet_us", pw.TET()*1e3, int(pw.Diff.TxExecCount))
	m.set("core.su_pct", pw.SU(), blocks)
	m.set("core.seal_queue_depth", float64(pw.Diff.SealQueueDepth), 1)
	m.set("core.commit_groups_per_block", ratio(float64(pw.Diff.CommitGroups), float64(blocks)), blocks)
	m.set("core.sig_prewarms_per_tx", ratio(float64(pw.Diff.SigPrewarms), pacedTx), int(pacedTx))
	m.set("core.missing_tx_per_s", pw.MT(), int(pw.Diff.MissingTxs))
	m.set("core.catchups", float64(pw.Diff.CatchUpRequests), 1)
	m.set("core.failovers", float64(pw.Diff.OrdererFailovers), 1)
	procMs := durations(process, ms)
	m.set("core.process_p50_ms", percentile(procMs, 50), len(process))
	m.set("core.process_p95_ms", percentile(procMs, 95), len(process))
	m.set("core.process_mean_ms", mean(procMs), len(process))
	// Delivery and pipeline waiting: what is left of the mean process
	// time after node 0's own mean block times (blocks are full, so a
	// mean per block is a mean per transaction).
	m.set("core.queue_ms", m.get("core.process_mean_ms")-m.get("core.bpt_ms")-m.get("core.bst_ms"), len(process))

	// storage, ledger and wal figures read off the finished run.
	versions, err := node0.Store().CountVersions(w.table)
	if err != nil {
		return err
	}
	visible, err := node0.Store().CountVisible(w.table, node0.Height())
	if err != nil {
		return err
	}
	m.set("storage.versions_per_row", ratio(float64(versions), float64(visible)), visible)
	m.set("storage.heap_bytes_per_tx", perTx(int64(heapInUse())-int64(heap0)), int(allCommitted))
	m.set("storage.wal_bytes_per_tx", perTx(walBytes), int(allCommitted))
	m.set("ledger.blockstore_bytes_per_tx", perTx(blockBytes), int(allCommitted))

	// ssi: serialization aborts at the paced rate, by the layer that
	// decided them, and under saturation.
	m.set("ssi.abort_share", ratio(float64(serial), float64(txs)), int(txs))
	m.set("ssi.abort_share_sat", ratio(float64(satSerial), float64(satTxs)), int(satTxs))
	m.set("ssi.abort_share_ssi", ratio(float64(bySSI), float64(txs)), int(txs))
	m.set("ssi.abort_share_validate", ratio(float64(byStor), float64(txs)), int(txs))

	// The budget. Per op the two spans must tile the latency, so their
	// means add up to the mean latency exactly; anything else is a bad
	// stamp or a stepped wall clock. Medians of skewed parts need not
	// add up, so their sum is printed and flagged, not enforced.
	if gap := budgetGap(dueNs, cutNs, doneNs, lat); gap > time.Millisecond {
		res.problem("budget: wait + process differs from latency by %v on some op (wall clock stepped?)", gap)
	}
	if !sumsTo(m.get("client.commit_mean_ms"), meanTol, m.get("ordering.wait_mean_ms"), m.get("core.process_mean_ms")) {
		res.problem("budget: ordering.wait_mean_ms %.3f + core.process_mean_ms %.3f is not commit_mean_ms %.3f",
			m.get("ordering.wait_mean_ms"), m.get("core.process_mean_ms"), m.get("client.commit_mean_ms"))
	}
	if !sumsTo(m.get("client.commit_p50_ms"), budgetTol, m.get("ordering.wait_p50_ms"), m.get("core.process_p50_ms")) {
		fmt.Printf("%-18s FLAG: ordering.wait_p50_ms %.3f + core.process_p50_ms %.3f is not within %.0f%% of commit_p50_ms %.3f (skewed parts; the means add up)\n",
			w.name, m.get("ordering.wait_p50_ms"), m.get("core.process_p50_ms"), budgetTol*100, m.get("client.commit_p50_ms"))
	}
	if top := topPercentile(len(lat)); top < 99 {
		fmt.Printf("%-18s FLAG: %d samples carry a p%g at most; client.commit_p99_ms is not supported\n", w.name, len(lat), top)
	}
	if lateP95 > lateFlagMs {
		fmt.Printf("%-18s FLAG: generator ran late (p95 %.2f ms > %.0f ms); latencies include its lag\n", w.name, lateP95, lateFlagMs)
	}

	if err := writeTrace(filepath.Join(r.cfg.outDir, w.name+".trace.json"), w.name, r.cfg.seed, spans); err != nil {
		return err
	}
	return r.probes(res, pacedBlocks)
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace writes the pass's spans as one JSON document.
func writeTrace(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(bw, "{\"workload\":%q,\"seed\":%d,\"clock\":\"unix_ns\",\"spans\":[", workload, seed)
	for i, sp := range spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n{\"tx\":%q,\"name\":%q,\"parent\":%q,\"start\":%d,\"end\":%d}",
			sp.tx, sp.name, sp.parent, sp.start, sp.end)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
