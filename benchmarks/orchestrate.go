package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// demoteAt is the disagreement between two result sets' medians above
// which an end-to-end metric cannot gate and belongs in the per-layer
// list instead.
const demoteAt = 0.10

type orchestration struct {
	only      string
	seed      int64
	seconds   float64
	e2eOnly   bool
	repeat    int
	outDir    string
	against   string
	benchFile string
}

// passResult is one child pass as stored in a result set.
type passResult struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Traced   bool       `json:"traced"`
	Result   resultLine `json:"result"`
}

type resultSet struct {
	Seed    int64        `json:"seed"`
	Repeat  int          `json:"repeat"`
	Seconds float64      `json:"seconds"`
	Passes  []passResult `json:"passes"`
}

// values collects one metric's values over a set's passes of one
// workload, in run order.
func (rs *resultSet) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, p := range rs.Passes {
		if p.Workload == workload && p.Traced == traced {
			if mv, ok := p.Result.Metrics[metric]; ok {
				out = append(out, mv.Value)
			}
		}
	}
	return out
}

// orchestrate runs the selected workloads, one child process per pass
// so CPU time and peak RSS are per workload, then prints the summary,
// the budget, and — in noise mode — the verdict against the bounds.
func orchestrate(o orchestration) error {
	bf, err := readBenchmarkFile(o.benchFile)
	if err != nil {
		return fmt.Errorf("%w (run from the repository root, or pass -bench)", err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(bf.RunSeconds)
	}
	if o.repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}
	var selected []*workload
	for _, w := range workloads {
		if o.only == "" || o.only == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q, want one of %v", o.only, workloadNames())
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	set := &resultSet{Seed: o.seed, Repeat: o.repeat, Seconds: o.seconds}
	bad := 0
	for rep := 0; rep < o.repeat; rep++ {
		seed := o.seed + int64(rep)
		for _, w := range selected {
			for _, traced := range []bool{false, true} {
				if traced && o.e2eOnly {
					continue
				}
				line, err := runChild(exe, w, seed, o.seconds, traced, o.outDir)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				if !line.Correct || line.Failed > 0 {
					bad++
				}
				set.Passes = append(set.Passes, passResult{w.name, seed, traced, *line})
			}
		}
	}

	fmt.Printf("\n== summary: seeds %d..%d, %g measured seconds per pass ==\n", o.seed, o.seed+int64(o.repeat)-1, o.seconds)
	fmt.Println("testbed: 3 replicas + 3 orderers share this process, its cores and one signature-verify memo (≈1 real Ed25519 verify per tx, not 3); LAN delay is injected; fsync is this machine's")
	for _, w := range selected {
		summarize(set, w, endToEndDefs, false)
		if !o.e2eOnly {
			summarize(set, w, perLayerDefs, true)
			printBudget(set, w)
		}
	}

	if o.repeat > 1 {
		path := filepath.Join(o.outDir, fmt.Sprintf("set-seed%d.json", o.seed))
		if err := writeSet(path, set); err != nil {
			return err
		}
		fmt.Printf("\nresult set written to %s\n", path)
	}
	disagree := 0
	if o.repeat > 1 || o.against != "" {
		var first *resultSet
		if o.against != "" {
			if first, err = readSet(o.against); err != nil {
				return err
			}
		}
		disagree = compareSets(os.Stdout, bf, first, set, selected)
	}
	switch {
	case bad > 0:
		return fmt.Errorf("%d passes failed their output checks or had failed ops", bad)
	case disagree > 0:
		return fmt.Errorf("%d metric/workload pairs disagree with the bounds in %s", disagree, o.benchFile)
	}
	return nil
}

// runChild runs one pass in a child process, passing its report through
// and returning the result line it printed last.
func runChild(exe string, w *workload, seed int64, seconds float64, traced bool, outDir string) (*resultLine, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	_, _ = io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		if last != "" {
			fmt.Println(last)
		}
		return nil, err
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("last line of the pass is not a result line: %w", err)
	}
	return &line, nil
}

// summarize prints one workload's metrics over the set: the value, or
// with several passes the median, the quartiles and the spread.
func summarize(set *resultSet, w *workload, defs []metricDef, traced bool) {
	pass := "end to end"
	if traced {
		pass = "per layer (traced pass)"
	}
	fmt.Printf("\n%s — %s\n", w.name, pass)
	for _, d := range defs {
		vs := set.values(w.name, d.name, traced)
		switch {
		case len(vs) == 0:
			continue
		case len(vs) == 1:
			fmt.Printf("  %-36s %14.4f %s\n", d.name, vs[0], d.unit)
		default:
			q1, q2, q3 := quartiles(vs)
			fmt.Printf("  %-36s %14.4f %-6s q1 %.4f q3 %.4f spread %.3f n=%d\n", d.name, q2, d.unit, q1, q3, spread(vs), len(vs))
		}
	}
}

// printBudget prints where the commit latency of the traced pass went.
// The mean column adds up by construction (every traced pass has
// already failed if it does not); the p50 column shows how far the
// medians are from doing so. Last, the tracing overhead against the
// untraced pass.
func printBudget(set *resultSet, w *workload) {
	get := func(name string) float64 { return median(set.values(w.name, name, true)) }
	row := func(indent, label string, mean, p50 float64) {
		fmt.Printf("  %s%-*s %9.3f ms", indent, 30-len(indent), label, mean)
		if p50 >= 0 {
			fmt.Printf("   p50 %9.3f ms", p50)
		}
		fmt.Println()
	}
	total, totalP50 := get("client.commit_mean_ms"), get("client.commit_p50_ms")
	wait, process := get("ordering.wait_mean_ms"), get("core.process_mean_ms")
	fmt.Printf("\n%s — latency budget, paced phase of the traced pass (mean, then median)\n", w.name)
	row("", "commit (due → notification)", total, totalP50)
	row("", "ordering.wait", wait, get("ordering.wait_p50_ms"))
	row("", "core.process", process, get("core.process_p50_ms"))
	row("  ", "core.bpt_ms (bet + bct)", get("core.bpt_ms"), -1)
	row("  ", "core.bst_ms", get("core.bst_ms"), -1)
	row("  ", "core.queue_ms (residual)", get("core.queue_ms"), -1)
	fmt.Printf("  wait + process = %.1f%% of the mean, %.1f%% of the median\n",
		100*ratio(wait+process, total), 100*ratio(get("ordering.wait_p50_ms")+get("core.process_p50_ms"), totalP50))
	if untraced := set.values(w.name, "commit_p50_ms", false); len(untraced) > 0 {
		fmt.Printf("  client.trace_overhead_pct %.2f %% (traced vs untraced commit_p50_ms)\n",
			100*ratio(totalP50-median(untraced), median(untraced)))
	}
}

func writeSet(path string, set *resultSet) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// worse is how much b is worse than a as a share of a, in the metric's
// own direction (negative when b is better).
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets applies the acceptance rule to one set, or to two sets of
// the same code: within each set, every gating metric's spread (the
// inter-quartile distance as a share of the median) must stay within
// its bound, except setup_s; and the second set's median may not be
// worse than the first's by more than the bound. It prints one line per
// metric and workload and returns the number of disagreements.
func compareSets(out io.Writer, bf *benchmarkFile, first, second *resultSet, selected []*workload) int {
	disagree := 0
	for _, w := range selected {
		fmt.Fprintf(out, "\n%s — against the bounds\n", w.name)
		for _, m := range bf.EndToEnd {
			b := second.values(w.name, m.Name, false)
			if len(b) < 2 {
				continue
			}
			verdict := "ok"
			line := fmt.Sprintf("  %-16s bound %.3f  spread %.3f", m.Name, m.Bound, spread(b))
			if m.Name != "setup_s" && spread(b) > m.Bound {
				verdict = "SPREAD EXCEEDS BOUND"
			}
			if first != nil {
				a := first.values(w.name, m.Name, false)
				if len(a) >= 2 {
					shift := worse(median(a), median(b), m.Better)
					line += fmt.Sprintf("  first-set spread %.3f  median %.4f → %.4f (%+.3f worse)", spread(a), median(a), median(b), shift)
					if m.Name != "setup_s" && spread(a) > m.Bound {
						verdict = "SPREAD EXCEEDS BOUND"
					}
					if shift > m.Bound {
						verdict = "MEDIANS DISAGREE"
					} else if shift > demoteAt || -shift > demoteAt {
						verdict += " (sets differ by more than a tenth: demote)"
					}
				}
			}
			if !strings.HasPrefix(verdict, "ok") {
				disagree++
			}
			fmt.Fprintf(out, "%s  %s\n", line, verdict)
		}
	}
	return disagree
}
