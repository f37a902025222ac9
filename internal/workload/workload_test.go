package workload

import (
	"testing"
	"time"

	"bcrdb"
)

func shortCfg(c Contract, flow bcrdb.Flow) RunConfig {
	return RunConfig{
		Contract:     c,
		Flow:         flow,
		BlockSize:    20,
		BlockTimeout: 20 * time.Millisecond,
		ArrivalRate:  300,
		Duration:     600 * time.Millisecond,
		Warmup:       200 * time.Millisecond,
	}
}

func TestGenesisBuilds(t *testing.T) {
	for _, c := range []Contract{Simple, ComplexJoin, ComplexGroup} {
		g := Genesis(c)
		if len(g.SQL) == 0 || len(g.Contracts) == 0 {
			t.Fatalf("%s genesis empty", c)
		}
		name, args := Invocation(c, 42)
		if name == "" || len(args) == 0 {
			t.Fatalf("%s invocation empty", c)
		}
		// Distinct sequences → distinct ids.
		_, a1 := Invocation(c, 1)
		_, a2 := Invocation(c, 2)
		same := true
		for i := range a1 {
			if a1[i].String() != a2[i].String() {
				same = false
			}
		}
		if same {
			t.Fatalf("%s invocations 1 and 2 identical", c)
		}
	}
}

func TestRunSimpleOpenLoopOE(t *testing.T) {
	res, err := Run(shortCfg(Simple, bcrdb.OrderThenExecute))
	if err != nil {
		t.Fatal(err)
	}
	if res.Diff.TxCommitted == 0 {
		t.Fatalf("no commits: %+v", res)
	}
	if res.Throughput() <= 0 {
		t.Fatalf("throughput = %v", res.Throughput())
	}
	if res.AvgLatencyMs <= 0 {
		t.Fatalf("latency = %v", res.AvgLatencyMs)
	}
	if res.BPT() < res.BET() {
		t.Fatalf("bpt (%v) < bet (%v)", res.BPT(), res.BET())
	}
}

func TestRunSimpleOpenLoopEO(t *testing.T) {
	res, err := Run(shortCfg(Simple, bcrdb.ExecuteOrder))
	if err != nil {
		t.Fatal(err)
	}
	if res.Diff.TxCommitted == 0 {
		t.Fatalf("no commits: %+v", res)
	}
}

func TestRunComplexJoinClosedLoop(t *testing.T) {
	cfg := shortCfg(ComplexJoin, bcrdb.OrderThenExecute)
	cfg.ArrivalRate = 0 // saturation
	cfg.MaxInFlight = 64
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diff.TxCommitted == 0 {
		t.Fatalf("no commits: %+v", res)
	}
	if res.TET() <= 0 {
		t.Fatalf("tet = %v", res.TET())
	}
}

func TestRunComplexGroupEO(t *testing.T) {
	cfg := shortCfg(ComplexGroup, bcrdb.ExecuteOrder)
	cfg.ArrivalRate = 150
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diff.TxCommitted == 0 {
		t.Fatalf("no commits: %+v", res)
	}
}

func TestOrderingBenchKafka(t *testing.T) {
	res, err := RunOrderingBench(OrderingBenchConfig{
		Kind: bcrdb.OrderingKafka, Orderers: 2, ArrivalRate: 500,
		BlockSize: 50, BlockTimeout: 20 * time.Millisecond,
		Duration: 400 * time.Millisecond, Warmup: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.Blocks == 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestOrderingBenchBFT(t *testing.T) {
	res, err := RunOrderingBench(OrderingBenchConfig{
		Kind: bcrdb.OrderingBFT, Orderers: 4, ArrivalRate: 300,
		BlockSize: 50, BlockTimeout: 20 * time.Millisecond,
		Duration: 400 * time.Millisecond, Warmup: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatalf("res = %+v", res)
	}
	if _, err := RunOrderingBench(OrderingBenchConfig{Kind: bcrdb.OrderingBFT, Orderers: 3}); err == nil {
		t.Fatal("BFT with 3 orderers should fail")
	}
}
