package workload

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// timelinePath pins the seed-42 chaos schedule TestChaosSoakMemory
// injects (a JSON list of ChaosResult.Timeline entries). The soak's
// network shape (orgs, users, crashable orderers) decides it, so a change
// there moves an event here. Rewrite it only for a deliberate schedule
// change, from the timeline the failure prints.
const timelinePath = "testdata/chaos_timeline_seed42.json"

// The seeded soak is the tentpole's capstone: under link drops, latency
// spikes, node/orderer crashes and partitions, every invocation must
// reach a terminal state in the replicated ledger (client give-ups are
// reconciled against the converged chain after the drain) and the
// replicas must converge once faults heal. A failure reproduces by
// rerunning the same seed (the timeline is in the error message).

func TestChaosSoakMemory(t *testing.T) {
	res, err := RunChaos(ChaosConfig{Contract: Simple, Duration: 2500 * time.Millisecond, Seed: 42})
	t.Log(res.String())
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(timelinePath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Timeline, want) {
		t.Fatalf("seed-42 chaos timeline moved:\n got  %q\n want %q", res.Timeline, want)
	}
	if res.FaultsInjected == 0 {
		t.Fatal("soak injected no link faults — the run proved nothing")
	}
	if res.ChaosEvents == 0 {
		t.Fatal("soak fired no chaos events — the run proved nothing")
	}
}

func TestChaosSoakDisk(t *testing.T) {
	res, err := RunChaos(ChaosConfig{Contract: Simple, Duration: 2500 * time.Millisecond, Seed: 42, Backend: "disk"})
	t.Log(res.String())
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsInjected == 0 {
		t.Fatal("soak injected no link faults — the run proved nothing")
	}
}

// TestChaosSeedThreadsIntoRetryJitter pins the ADR-0005 promise that a
// soak's timeline is a pure function of its printed seed: the chaos
// seed must propagate into RetryPolicy.Seed (the client-side jitter
// source — see bcrdb's TestRetryJitterDeterministic for the proof that
// an equal seed yields an identical backoff schedule), the default seed
// included.
func TestChaosSeedThreadsIntoRetryJitter(t *testing.T) {
	if got := (ChaosConfig{Seed: 1234}).withDefaults().retry().Seed; got != 1234 {
		t.Fatalf("Retry.Seed = %d, want the chaos seed 1234", got)
	}
	if got := (ChaosConfig{}).withDefaults().retry().Seed; got != 42 {
		t.Fatalf("Retry.Seed = %d, want the default chaos seed 42", got)
	}
}
