// bcrdb-bench regenerates every table and figure of the paper's
// evaluation (§5) with configurable sweep sizes, and is the only driver
// of those experiments. It prints one table per experiment and writes no
// file: a record that sets them beside the paper's §5 figures needs those
// figures in the repository first (ROADMAP). It is not the A/B tool:
// parent-vs-change comparisons use `go run ./benchmarks` (BENCHMARK.json).
//
// Usage:
//
//	go run ./cmd/bcrdb-bench                  # everything, default windows
//	go run ./cmd/bcrdb-bench -e fig5a,table4  # selected experiments
//	go run ./cmd/bcrdb-bench -duration 3s     # longer measurement windows
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"bcrdb"
	"bcrdb/internal/workload"
)

var (
	expFlag  = flag.String("e", "all", "comma-separated experiments: fig5a,fig5b,table4,table5,serial,fig6a,fig6b,fig7a,fig7b,fig8a,fig8b,contention,chaos (chaos is CI-only and excluded from \"all\")")
	duration = flag.Duration("duration", 2*time.Second, "measurement window per point")
	warmup   = flag.Duration("warmup", 500*time.Millisecond, "warmup before each measurement")
	backend  = flag.String("backend", "memory", "storage backend: memory or disk (disk uses a temp data dir per run)")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
)

func main() {
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *backend != "memory" && *backend != "disk" {
		fmt.Fprintf(os.Stderr, "unknown -backend %q (want memory or disk)\n", *backend)
		os.Exit(2)
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	runs := []struct {
		name string
		fn   func()
	}{
		{"fig5a", func() { fig5(bcrdb.OrderThenExecute, "Figure 5(a): order-then-execute, simple contract") }},
		{"fig5b", func() { fig5(bcrdb.ExecuteOrder, "Figure 5(b): execute-order-in-parallel, simple contract") }},
		{"table4", func() { micro(bcrdb.OrderThenExecute, "Table 4: order-then-execute micro metrics", false) }},
		{"table5", func() { micro(bcrdb.ExecuteOrder, "Table 5: execute-order-in-parallel micro metrics", true) }},
		{"serial", serialComparison},
		{"fig6a", func() {
			figComplex(workload.ComplexJoin, bcrdb.OrderThenExecute, "Figure 6(a): complex-join, order-then-execute")
		}},
		{"fig6b", func() {
			figComplex(workload.ComplexJoin, bcrdb.ExecuteOrder, "Figure 6(b): complex-join, execute-order-in-parallel")
		}},
		{"fig7a", func() {
			figComplex(workload.ComplexGroup, bcrdb.OrderThenExecute, "Figure 7(a): complex-group, order-then-execute")
		}},
		{"fig7b", func() {
			figComplex(workload.ComplexGroup, bcrdb.ExecuteOrder, "Figure 7(b): complex-group, execute-order-in-parallel")
		}},
		{"fig8a", fig8a},
		{"fig8b", fig8b},
		{"contention", contention},
		{"chaos", chaosSmoke},
	}
	ran := 0
	for _, r := range runs {
		if (all && r.name != "chaos") || want[r.name] {
			r.fn()
			ran++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *expFlag)
		os.Exit(2)
	}
}

func run(cfg workload.RunConfig) workload.Result {
	cfg.Duration = *duration
	cfg.Warmup = *warmup
	cfg.Backend = *backend
	res, err := workload.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", err)
		os.Exit(1)
	}
	return res
}

func peak(cfg workload.RunConfig) workload.Result {
	cfg.ArrivalRate = 0
	return run(cfg)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func fig5(flow bcrdb.Flow, title string) {
	header(title)
	base := workload.RunConfig{Contract: workload.Simple, Flow: flow,
		BlockSize: 100, BlockTimeout: 100 * time.Millisecond}
	p := peak(base)
	fmt.Printf("measured peak ≈ %.0f tps (block size 100, saturation)\n", p.Throughput())
	fmt.Printf("%-10s %-12s %-12s %-14s %-14s %-10s\n",
		"blocksize", "rate(tps)", "tput(tps)", "lat-avg(ms)", "lat-p95(ms)", "aborts")
	for _, bs := range []int{10, 100, 500} {
		for _, frac := range []float64{0.4, 0.6, 0.8, 1.0, 1.2} {
			cfg := base
			cfg.BlockSize = bs
			cfg.ArrivalRate = p.Throughput() * frac
			r := run(cfg)
			fmt.Printf("%-10d %-12.0f %-12.1f %-14.2f %-14.2f %-10d\n",
				bs, cfg.ArrivalRate, r.Throughput(), r.AvgLatencyMs, r.P95LatencyMs, r.Diff.TxAborted)
		}
	}
}

func micro(flow bcrdb.Flow, title string, withMT bool) {
	header(title)
	base := workload.RunConfig{Contract: workload.Simple, Flow: flow,
		BlockSize: 100, BlockTimeout: 100 * time.Millisecond}
	p := peak(base)
	rate := p.Throughput() * 0.9
	fmt.Printf("arrival rate %.0f tps (≈0.9× measured peak)\n", rate)
	cols := "%-6s %-8s %-8s %-9s %-9s %-9s %-9s %-9s"
	args := []any{"bs", "brr", "bpr", "bpt(ms)", "bet(ms)", "bct(ms)", "bst(ms)", "tet(ms)"}
	if withMT {
		cols += " %-8s"
		args = append(args, "mt")
	}
	cols += " %-6s\n"
	args = append(args, "su%")
	fmt.Printf(cols, args...)
	for _, bs := range []int{10, 100, 500} {
		cfg := base
		cfg.BlockSize = bs
		cfg.ArrivalRate = rate
		r := run(cfg)
		rowFmt := "%-6d %-8.1f %-8.1f %-9.2f %-9.2f %-9.2f %-9.2f %-9.3f"
		row := []any{bs, r.BRR(), r.BPR(), r.BPT(), r.BET(), r.BCT(), r.BST(), r.TET()}
		if withMT {
			rowFmt += " %-8.1f"
			row = append(row, r.MT())
		}
		rowFmt += " %-6.1f\n"
		row = append(row, r.SU())
		fmt.Printf(rowFmt, row...)
	}
}

func serialComparison() {
	header("§5.1 comparison: Ethereum-style serial execution vs concurrent SSI")
	base := workload.RunConfig{Contract: workload.Simple, Flow: bcrdb.OrderThenExecute,
		BlockSize: 100, BlockTimeout: 100 * time.Millisecond}
	par := peak(base)
	ser := base
	ser.Serial = true
	serRes := peak(ser)
	fmt.Printf("concurrent SSI peak: %.0f tps\n", par.Throughput())
	fmt.Printf("serial peak:         %.0f tps\n", serRes.Throughput())
	fmt.Printf("ratio:               %.2f (paper: ≈0.4)\n", serRes.Throughput()/par.Throughput())
}

// chaosSmoke is the CI chaos gate: on each storage backend, first a
// healthy-fabric control window that must keep every self-healing
// counter at zero (healing machinery firing without faults is a
// regression), then the seeded soak of workload.RunChaos, which fails
// the process when any invocation stays unresolved or the replicas
// diverge. The fixed seed replays a CI failure's crash and partition
// timeline locally (it is printed in the error); link faults differ
// from run to run.
//
// The control runs open-loop at a moderate rate rather than closed-loop
// saturation: at saturation a replica can genuinely trail its peers for
// more than one anti-entropy tick, and the resulting (correct) windowed
// catch-up request would make a strict zero-counter gate flaky. The
// strict invariant belongs to the non-overloaded fabric.
func chaosSmoke() {
	header("Chaos: healthy-fabric control + seeded fault-injection soak (seed 42)")
	for _, be := range []string{"memory", "disk"} {
		ctrl := workload.RunConfig{Contract: workload.Simple, Flow: bcrdb.OrderThenExecute,
			BlockSize: 50, BlockTimeout: 100 * time.Millisecond, Backend: be,
			ArrivalRate: 1000, Duration: *duration, Warmup: *warmup}
		c, err := workload.Run(ctrl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos control:", err)
			os.Exit(1)
		}
		h := c.Diff
		fmt.Printf("%-18s tput %.1f tps, committed %d, catchups %d, failovers %d, retries %d\n",
			be+"/control", c.Throughput(), h.TxCommitted, h.CatchUpRequests, h.OrdererFailovers, h.ClientRetries)
		if h.TxCommitted == 0 {
			fmt.Fprintf(os.Stderr, "chaos: %s control window committed nothing\n", be)
			os.Exit(1)
		}
		if h.CatchUpRequests+h.OrdererFailovers+h.ClientRetries > 0 {
			fmt.Fprintf(os.Stderr, "chaos: self-healing fired on a healthy %s fabric (catchups=%d failovers=%d retries=%d)\n",
				be, h.CatchUpRequests, h.OrdererFailovers, h.ClientRetries)
			os.Exit(1)
		}

		soak, err := workload.RunChaos(workload.ChaosConfig{
			Contract: workload.Simple, Seed: 42, Backend: be, Duration: 3 * time.Second})
		fmt.Printf("%-18s %s\n", be+"/soak", soak.String())
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos soak:", err)
			os.Exit(1)
		}
		if soak.FaultsInjected == 0 {
			fmt.Fprintf(os.Stderr, "chaos: %s soak injected no faults — the gate proved nothing\n", be)
			os.Exit(1)
		}
	}
}

func figComplex(c workload.Contract, flow bcrdb.Flow, title string) {
	header(title)
	fmt.Printf("%-10s %-12s %-9s %-9s %-9s %-9s\n",
		"blocksize", "peak(tps)", "bpt(ms)", "bet(ms)", "bct(ms)", "tet(ms)")
	for _, bs := range []int{10, 50, 100} {
		cfg := workload.RunConfig{Contract: c, Flow: flow,
			BlockSize: bs, BlockTimeout: 100 * time.Millisecond}
		r := peak(cfg)
		fmt.Printf("%-10d %-12.1f %-9.2f %-9.2f %-9.2f %-9.3f\n",
			bs, r.Throughput(), r.BPT(), r.BET(), r.BCT(), r.TET())
	}
}

func fig8a() {
	header("Figure 8(a): complex-join in single-cloud (LAN) vs multi-cloud (WAN)")
	// Peaks use a deep closed-loop pipeline (high in-flight) so WAN
	// round trips do not starve the system; latency is compared at a
	// common sub-saturation open-loop rate, as in the paper.
	fmt.Printf("%-10s %-6s %-12s %-16s %-16s\n", "blocksize", "net", "peak(tps)", "lat@0.5peak(ms)", "lat-p95(ms)")
	for _, bs := range []int{10, 50, 100} {
		base := workload.RunConfig{Contract: workload.ComplexJoin, Flow: bcrdb.ExecuteOrder,
			BlockSize: bs, BlockTimeout: 100 * time.Millisecond, MaxInFlight: 4096}
		lanCfg := base
		lanCfg.Profile = bcrdb.ProfileLAN
		lanPeak := peak(lanCfg)
		rate := lanPeak.Throughput() * 0.5
		for _, p := range []bcrdb.NetProfile{bcrdb.ProfileLAN, bcrdb.ProfileWAN} {
			name := "LAN"
			if p == bcrdb.ProfileWAN {
				name = "WAN"
			}
			cfg := base
			cfg.Profile = p
			pk := lanPeak
			if p == bcrdb.ProfileWAN {
				pk = peak(cfg)
			}
			cfg.ArrivalRate = rate
			lat := run(cfg)
			fmt.Printf("%-10d %-6s %-12.1f %-16.2f %-16.2f\n",
				bs, name, pk.Throughput(), lat.AvgLatencyMs, lat.P95LatencyMs)
		}
	}
}

func contention() {
	header("Contention ablation (§7 proposed study): hotspot workload, 16 hot rows, closed loop")
	fmt.Printf("%-24s %-12s %-12s %-12s %-10s\n", "config", "tput(tps)", "committed", "aborted", "abort%")
	for _, c := range []struct {
		name string
		cfg  workload.RunConfig
	}{
		{"order-then-execute", workload.RunConfig{Flow: bcrdb.OrderThenExecute}},
		{"execute-order-parallel", workload.RunConfig{Flow: bcrdb.ExecuteOrder}},
		{"serial (Ethereum-style)", workload.RunConfig{Flow: bcrdb.OrderThenExecute, Serial: true}},
	} {
		rc := c.cfg
		rc.Contract = workload.Hotspot
		rc.BlockSize = 100
		rc.BlockTimeout = 50 * time.Millisecond
		rc.MaxInFlight = 256
		r := peak(rc)
		committed, aborted := r.Diff.TxCommitted, r.Diff.TxAborted
		pct := 0.0
		if total := committed + aborted; total > 0 {
			pct = 100 * float64(aborted) / float64(total)
		}
		fmt.Printf("%-24s %-12.1f %-12d %-12d %-10.1f\n", c.name, r.Throughput(), committed, aborted, pct)
	}
}

func fig8b() {
	header("Figure 8(b): ordering throughput vs #orderers (offered 3000 tps, ~196 B/tx, 8 MiB/s uplinks)")
	fmt.Printf("%-10s %-14s %-14s\n", "orderers", "kafka(tps)", "bft(tps)")
	// Warm the process so the first row is not penalized.
	_, _ = workload.RunOrderingBench(workload.OrderingBenchConfig{
		Kind: bcrdb.OrderingKafka, Orderers: 4, ArrivalRate: 3000,
		Duration: 500 * time.Millisecond, Warmup: 300 * time.Millisecond})
	for _, n := range []int{4, 8, 16, 24, 32, 36} {
		runOrd := func(kind bcrdb.OrderingKind) float64 {
			res, err := workload.RunOrderingBench(workload.OrderingBenchConfig{
				Kind:         kind,
				Orderers:     n,
				ArrivalRate:  3000,
				BlockSize:    100,
				BlockTimeout: 50 * time.Millisecond,
				Duration:     *duration,
				Warmup:       *warmup,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "ordering bench failed:", err)
				os.Exit(1)
			}
			return res.Throughput
		}
		fmt.Printf("%-10d %-14.1f %-14.1f\n", n, runOrd(bcrdb.OrderingKafka), runOrd(bcrdb.OrderingBFT))
	}
}
