package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// metricDef declares one metric: BENCHMARK.json lists exactly these
// names and units (a test keeps the two from drifting).
type metricDef struct {
	name, unit string
}

// endToEndDefs are the metrics of an untraced pass; every workload
// reports all of them. All are "lower is better" except peak_tps.
var endToEndDefs = []metricDef{
	{"commit_p50_ms", "ms"},
	{"commit_p95_ms", "ms"},
	{"peak_tps", "1/s"},
	{"cpu_us_per_op", "us"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayerDefs are the metrics of a traced pass, layer by layer (layer
// = module name). A metric whose layer does no work on a workload reads
// 0 there. The three unprefixed names are end-to-end metrics that
// cannot gate (see README.md, "Demoted metrics").
var perLayerDefs = []metricDef{
	{"fail_share", "share"},
	{"query_p50_us", "us"},
	{"disk_bytes_per_tx", "B"},

	{"client.submit_us", "us"},
	{"client.submit_sat_us", "us"},
	{"client.sat_busy_share", "share"},
	{"client.gen_late_p95_ms", "ms"},
	{"client.commit_p50_ms", "ms"},
	{"client.commit_p99_ms", "ms"},
	{"client.commit_mean_ms", "ms"},
	{"client.samples", "count"},
	{"client.retries", "count"},
	{"client.unresolved", "count"},

	{"transport.submit_rtt_p50_us", "us"},
	{"transport.submit_rtt_p95_us", "us"},
	{"transport.notify_lag_p50_us", "us"},
	{"transport.rejected", "count"},

	{"simnet.msgs_per_tx", "count"},
	{"simnet.bytes_per_tx", "B"},
	{"simnet.faults_injected", "count"},

	{"ordering.wait_p50_ms", "ms"},
	{"ordering.wait_p95_ms", "ms"},
	{"ordering.wait_mean_ms", "ms"},
	{"ordering.txs_per_block", "count"},
	{"ordering.timeout_cut_share", "share"},
	{"ordering.cutter_ns_per_tx", "ns"},

	{"ledger.tx_bytes", "B"},
	{"ledger.marshal_tx_ns", "ns"},
	{"ledger.unmarshal_tx_ns", "ns"},
	{"ledger.block_encode_ns_per_tx", "ns"},
	{"ledger.block_decode_ns_per_tx", "ns"},
	{"ledger.block_hash_ns_per_tx", "ns"},
	{"ledger.blockstore_bytes_per_tx", "B"},

	{"identity.sign_us", "us"},
	{"identity.verify_us", "us"},
	{"identity.verify_cached_ns", "ns"},
	{"identity.verify_miss_per_tx", "count"},
	{"identity.verify_hit_share", "share"},

	{"core.bpt_ms", "ms"},
	{"core.bet_ms", "ms"},
	{"core.bct_ms", "ms"},
	{"core.bst_ms", "ms"},
	{"core.tet_us", "us"},
	{"core.su_pct", "%"},
	{"core.seal_queue_depth", "count"},
	{"core.commit_groups_per_block", "count"},
	{"core.sig_prewarms_per_tx", "count"},
	{"core.missing_tx_per_s", "1/s"},
	{"core.catchups", "count"},
	{"core.failovers", "count"},
	{"core.process_p50_ms", "ms"},
	{"core.process_p95_ms", "ms"},
	{"core.process_mean_ms", "ms"},
	{"core.queue_ms", "ms"},

	{"proc.call_us", "us"},
	{"proc.first_call_us", "us"},

	{"sqlparser.parse_us", "us"},

	{"engine.query_point_us", "us"},
	{"engine.query_range_us", "us"},
	{"engine.query_p95_us", "us"},
	{"engine.plan_cache_hit_share", "share"},

	{"index.insert_ns", "ns"},
	{"index.get_ns", "ns"},
	{"index.scan_ns_per_key", "ns"},

	{"storage.insert_ns", "ns"},
	{"storage.scan_ns_per_row", "ns"},
	{"storage.validate_commit_insert_ns", "ns"},
	{"storage.validate_commit_update_ns", "ns"},
	{"storage.statehash_ms", "ms"},
	{"storage.versions_per_row", "count"},
	{"storage.heap_bytes_per_tx", "B"},
	{"storage.wal_bytes_per_tx", "B"},

	{"ssi.abort_share", "share"},
	{"ssi.abort_share_sat", "share"},
	{"ssi.abort_share_ssi", "share"},
	{"ssi.abort_share_validate", "share"},
	{"ssi.analysis_ns_per_tx", "ns"},

	{"wal.append_us", "us"},
	{"wal.sync_us", "us"},
	{"wal.bytes_per_frame", "B"},

	{"codec.row_encode_ns", "ns"},
	{"codec.row_decode_ns", "ns"},
}

// metricValue is one measured figure and the number of samples (ops,
// windows, probe iterations) behind it.
type metricValue struct {
	value float64
	n     int
}

type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64, n int) { m[name] = metricValue{v, n} }

func (m metricSet) get(name string) float64 { return m[name].value }

// wireMetric is a metric as the result line carries it.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one JSON object a pass prints last.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// report prints every declared metric of the pass by name with its unit
// and sample count, then the output-check verdict, then the result line.
func (res *runResult) report(out io.Writer, w *workload, traced bool) error {
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	line := resultLine{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]wireMetric, len(defs)),
	}
	for _, d := range defs {
		mv, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(out, "%-18s %-36s %14.4f %-6s n=%d\n", w.name, d.name, mv.value, d.unit, mv.n)
		line.Metrics[d.name] = wireMetric{mv.value, d.unit}
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "%-18s CHECK FAILED: %s\n", w.name, p)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
