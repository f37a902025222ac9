// Chaos soak: drive client load through a network whose fabric is
// actively hostile — seeded link faults (drops, latency spikes) plus a
// deterministic chaos schedule of endpoint crashes and partitions — and
// assert the self-healing delivery layer's contract: every invocation
// reaches a terminal state in the replicated ledger and every replica
// converges to the same state hash once the faults stop. A client may
// exhaust its retry budget while its home node is still catching up;
// those transactions are reconciled against the converged ledger after
// the drain, and only transactions absent there count as unresolved.
//
// Orderer↔orderer links are exempt from probabilistic faults: consensus
// protocols own their own fault model (the BFT service tolerates f
// crashed replicas, not silent message loss between live ones), and the
// layer under test here is block DELIVERY, not agreement. See
// docs/adr/0005-self-healing-delivery.md.
package workload

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bcrdb"
	"bcrdb/internal/simnet"
)

// ChaosConfig parameterizes one seeded fault-injection soak. The
// network is benchNetwork's on the Kafka ordering service, whose
// orderers join the crash schedule; blocks cut at 50 transactions or
// 50ms, and one closed-loop worker per user invokes.
type ChaosConfig struct {
	Seed     int64 // drives link faults, the chaos schedule and retry jitter (default 42)
	Contract Contract
	Backend  string // "memory" (default) or "disk"

	// Duration is the fault-injection window; after it the faults heal
	// and the run drains to convergence. Default 4s.
	Duration time.Duration
}

const (
	chaosBlockSize    = 50
	chaosBlockTimeout = 50 * time.Millisecond
)

// chaosLinkFaults is the fault profile of every link touching a database
// node or a client (orderer↔orderer links are exempt).
var chaosLinkFaults = simnet.Faults{DropProb: 0.05, SpikeProb: 0.10, Spike: 20 * time.Millisecond}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Duration == 0 {
		c.Duration = 4 * time.Second
	}
	return c
}

// retry is the clients' resubmission policy: 6 attempts, 2s per attempt,
// 100ms base backoff — enough attempts to rotate past a crashed target
// twice even when every fallback drops. One seed drives everything: link
// faults, the chaos schedule and client retry jitter, which used the
// process-global math/rand source and made soak runs unrepeatable.
func (c ChaosConfig) retry() bcrdb.RetryPolicy {
	return bcrdb.RetryPolicy{Attempts: 6, Timeout: 2 * time.Second, Backoff: 100 * time.Millisecond, Seed: c.Seed}
}

// ChaosResult summarizes a soak.
type ChaosResult struct {
	Invokes   int64 // total Invoke calls
	Committed int64
	Aborted   int64
	// LateResolved counts invokes whose client gave up (retry budget
	// exhausted mid-fault) but whose transaction was found with a
	// terminal state in the converged ledger afterwards. Included in
	// Committed/Aborted.
	LateResolved int64
	Unresolved   int64 // invokes absent from the converged ledger — MUST be 0

	Retries        int64 // client resubmissions (all nodes)
	CatchUps       int64 // peer catch-up range requests (all nodes)
	Failovers      int64 // orderer re-subscriptions (all nodes)
	FaultsInjected int64 // link-level drops and spikes
	ChaosEvents    int64 // crashes and partitions fired
	FinalHeight    int64
	Timeline       []string // the seeded chaos schedule, for reproduction
}

// String renders a one-line summary.
func (r ChaosResult) String() string {
	return fmt.Sprintf("invokes=%d committed=%d aborted=%d late=%d unresolved=%d retries=%d catchups=%d failovers=%d faults=%d events=%d height=%d",
		r.Invokes, r.Committed, r.Aborted, r.LateResolved, r.Unresolved, r.Retries,
		r.CatchUps, r.Failovers, r.FaultsInjected, r.ChaosEvents, r.FinalHeight)
}

// RunChaos executes one seeded soak: build a network, arm link faults
// and the chaos schedule, drive closed-loop invokes through the fault
// window, then heal everything and drain to convergence. It returns an
// error if any invocation stays unresolved or the replicas diverge.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg = cfg.withDefaults()
	orgs, users := benchNetwork()

	var dataDir string
	if cfg.Backend == "disk" {
		tmp, err := os.MkdirTemp("", "bcrdb-chaos-*")
		if err != nil {
			return ChaosResult{}, err
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	}

	nw, err := bcrdb.NewNetwork(bcrdb.Options{
		Orgs:         orgs,
		BlockSize:    chaosBlockSize,
		BlockTimeout: chaosBlockTimeout,
		Backend:      cfg.Backend,
		DataDir:      dataDir,
		Retry:        cfg.retry(),
		// Tight healing loop: orderers send heartbeats every 250ms, so
		// three missed beats trigger failover.
		FailoverTimeout:  750 * time.Millisecond,
		AntiEntropyEvery: 100 * time.Millisecond,
		Genesis:          Genesis(cfg.Contract),
	})
	if err != nil {
		return ChaosResult{}, err
	}
	defer nw.Close()

	net := nw.Net()
	net.SetSeed(cfg.Seed)

	// Probabilistic faults on every link except orderer↔orderer.
	isOrderer := make(map[string]bool)
	for _, o := range nw.Orderers() {
		isOrderer[o] = true
	}
	net.SetFaultsFn(func(from, to string) simnet.Faults {
		if isOrderer[from] && isOrderer[to] {
			return simnet.Faults{}
		}
		return chaosLinkFaults
	})

	// Seeded crash/partition schedule: at most one database node and one
	// orderer down at a time, plus transient peer partitions.
	var nodeNames []string
	for _, n := range nw.Nodes() {
		nodeNames = append(nodeNames, n.Name())
	}
	groups := []simnet.ChaosGroup{{Names: nodeNames, MaxDown: 1}, {Names: nw.Orderers(), MaxDown: 1}}
	var parts [][2]string
	for i := 1; i < len(nodeNames); i++ {
		parts = append(parts, [2]string{nodeNames[i-1], nodeNames[i]})
	}
	chaos := simnet.NewChaos(net, simnet.ChaosConfig{
		Seed:       cfg.Seed,
		EventEvery: 400 * time.Millisecond,
		MinDown:    300 * time.Millisecond,
		MaxDown:    900 * time.Millisecond,
		Groups:     groups,
		Partitions: parts,
	}, cfg.Duration)
	res := ChaosResult{Timeline: chaos.Timeline()}

	// Pre-snapshot counters, then unleash.
	baseline := snapshotHealing(nw)
	chaos.Start()

	var (
		invokes, committed, aborted atomic.Int64
		seq                         atomic.Int64
		wg                          sync.WaitGroup
		pendingMu                   sync.Mutex
		pendingIDs                  []string // retry budget exhausted — reconcile after the drain
		unresolved                  int64    // Invoke errors with no recoverable tx id
	)
	deadline := time.Now().Add(cfg.Duration)
	for _, user := range users {
		wg.Add(1)
		go func(user string) {
			defer wg.Done()
			client := nw.Client(user)
			for time.Now().Before(deadline) {
				name, args := Invocation(cfg.Contract, seq.Add(1))
				invokes.Add(1)
				r, err := client.Invoke(name, args...)
				switch {
				case err != nil:
					// The client gave up mid-fault. The transaction may
					// still land once the fabric heals — defer judgment
					// until after the drain.
					var ue *bcrdb.UnresolvedError
					pendingMu.Lock()
					if errors.As(err, &ue) {
						pendingIDs = append(pendingIDs, ue.ID)
					} else {
						unresolved++
					}
					pendingMu.Unlock()
				case r.Committed:
					committed.Add(1)
				default:
					aborted.Add(1)
				}
			}
		}(user)
	}
	wg.Wait()

	// Heal everything and drain: faults off, crashed endpoints restarted,
	// partitions healed. Replicas must now converge.
	chaos.Stop()
	net.ClearFaults()

	convergeBy := time.Now().Add(30 * time.Second)
	for {
		h := nw.Height()
		if err := nw.WaitHeight(h, time.Until(convergeBy)); err != nil {
			return res, fmt.Errorf("workload: replicas failed to converge to height %d: %w", h, err)
		}
		if nw.Height() == h {
			res.FinalHeight = h
			break
		}
		if time.Now().After(convergeBy) {
			return res, fmt.Errorf("workload: height still moving at drain deadline")
		}
	}
	if err := nw.VerifyConsistency(); err != nil {
		return res, fmt.Errorf("workload: state divergence after chaos: %w", err)
	}

	// Reconcile client give-ups against the converged ledger: the
	// contract is a terminal state in the LEDGER, not a client that
	// outwaited every fault. Only transactions absent from the converged
	// chain are genuinely unresolved.
	node0 := nw.Node(0)
	for _, id := range pendingIDs {
		qr, err := node0.Query(`SELECT status FROM sys_ledger WHERE txid = $1`, bcrdb.Text(id))
		switch {
		case err != nil || len(qr.Rows) == 0:
			unresolved++
		case qr.Rows[0][0].Str() == "committed":
			committed.Add(1)
			res.LateResolved++
		default:
			aborted.Add(1)
			res.LateResolved++
		}
	}

	res.Invokes = invokes.Load()
	res.Committed = committed.Load()
	res.Aborted = aborted.Load()
	res.Unresolved = unresolved
	healed := snapshotHealing(nw)
	res.Retries = healed.retries - baseline.retries
	res.CatchUps = healed.catchUps - baseline.catchUps
	res.Failovers = healed.failovers - baseline.failovers
	res.FaultsInjected = net.FaultsInjected()
	res.ChaosEvents = chaos.Events()

	if res.Unresolved > 0 {
		return res, fmt.Errorf("workload: %d of %d invokes absent from the converged ledger (seed %d, timeline: %s)",
			res.Unresolved, res.Invokes, cfg.Seed, strings.Join(res.Timeline, "; "))
	}
	if res.Invokes == 0 || res.Committed == 0 {
		return res, fmt.Errorf("workload: chaos soak made no progress (invokes=%d committed=%d)", res.Invokes, res.Committed)
	}
	return res, nil
}

// healingCounters sums the self-healing metrics across all nodes.
type healingCounters struct {
	retries, catchUps, failovers int64
}

func snapshotHealing(nw *bcrdb.Network) healingCounters {
	var h healingCounters
	for _, n := range nw.Nodes() {
		m := n.Metrics()
		h.retries += m.ClientRetries.Load()
		h.catchUps += m.CatchUpRequests.Load()
		h.failovers += m.OrdererFailovers.Load()
	}
	return h
}
