// Command benchmarks is the repository's measuring stick: four named
// workloads, the end-to-end metrics a user of the database would see,
// and — in a second, traced pass — a per-layer latency budget derived
// from outside the program (stamps around calls into public functions,
// public counters read before and after, single-goroutine probes that
// replay the run's own blocks through each layer's exported API).
// BENCHMARK.json at the repository root declares the workloads and
// metrics; README.md in this directory is the manual.
//
//	go run ./benchmarks -seed 1                 every workload, both passes, budget
//	go run ./benchmarks -workload W -trace 0    one untraced pass, result line last
//	go run ./benchmarks -repeat 5 -e2e-only     noise mode: medians, quartiles, bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// Pass shape outside the measured seconds.
const (
	warmupSeconds = 3.0
	tracedSetups  = 1 // set-up time is an end-to-end metric; a traced pass sets up once
	timedSetups   = 5
	probeBudget   = 100 * time.Millisecond
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all four)")
		seed         = flag.Int64("seed", 1, "workload seed: op parameters are a pure function of (seed, workload)")
		seconds      = flag.Float64("seconds", 0, "measured seconds per pass, split evenly between the paced and the saturation phase (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", -1, "0: one untraced pass; 1: one traced pass; both print a JSON result line last (needs -workload)")
		e2eOnly      = flag.Bool("e2e-only", false, "skip the traced pass (for paired A/B loops)")
		repeat       = flag.Int("repeat", 1, "run the whole set this many times, each with the next seed, and report medians, quartiles and spreads against the bounds")
		outDir       = flag.String("out", "benchmarks/out", "directory for trace files, disk-workload data and result sets")
		against      = flag.String("against", "", "result set (written by an earlier -repeat run to <out>/set-seed<N>.json) to compare this one with under BENCHMARK.json's bounds")
		benchFile    = flag.String("bench", "BENCHMARK.json", "path of BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if *trace >= 0 {
		w := workloadByName(*workloadName)
		if w == nil {
			fail(fmt.Errorf("-trace needs -workload, one of %v", workloadNames()))
		}
		if *seconds <= 0 {
			fail(fmt.Errorf("-trace needs -seconds"))
		}
		res, err := runPass(passConfig(w, *seed, *seconds, *trace == 1, *outDir))
		if err != nil {
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		if err := res.report(os.Stdout, w, *trace == 1); err != nil {
			fail(err)
		}
		return
	}

	if err := orchestrate(orchestration{
		only: *workloadName, seed: *seed, seconds: *seconds, e2eOnly: *e2eOnly,
		repeat: *repeat, outDir: *outDir, against: *against, benchFile: *benchFile,
	}); err != nil {
		fail(err)
	}
}

func passConfig(w *workload, seed int64, seconds float64, traced bool, outDir string) runConfig {
	half := time.Duration(seconds / 2 * float64(time.Second))
	cfg := runConfig{
		w: w, seed: seed, traced: traced, outDir: outDir,
		warmup: time.Duration(warmupSeconds * float64(time.Second)),
		paced:  half, sat: half,
		setups: timedSetups, probe: probeBudget,
	}
	if traced {
		cfg.setups = tracedSetups
	}
	return cfg
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmarks:", err)
	os.Exit(1)
}
