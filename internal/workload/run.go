package workload

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bcrdb"
	"bcrdb/internal/core"
)

// RunConfig parameterizes one experiment run (§5: block size, arrival
// rate, contract complexity, deployment model, flow, network size).
type RunConfig struct {
	Contract Contract
	Flow     bcrdb.Flow
	Serial   bool // Ethereum-style serial block execution (§5.1)

	Profile      bcrdb.NetProfile
	BlockSize    int
	BlockTimeout time.Duration

	// Backend selects the nodes' storage backend ("memory" or "disk").
	// The disk backend runs in a temporary data directory, removed after
	// the run.
	Backend string

	// ArrivalRate > 0 drives an open-loop Poisson-like arrival process
	// at that many tx/s. ArrivalRate == 0 saturates the system with a
	// closed loop of MaxInFlight outstanding transactions (peak
	// throughput measurement).
	ArrivalRate float64
	MaxInFlight int // closed loop concurrency (default 512)

	Warmup   time.Duration // excluded from measurement (default 20% of Duration)
	Duration time.Duration // measurement window (default 2s)
}

// Every run, chaos soaks included, has three organizations (one database
// node and one orderer each) with two client users apiece.
const (
	benchOrgs        = 3
	benchUsersPerOrg = 2
)

// benchNetwork returns the organizations of a run and their users'
// names, in submission order.
func benchNetwork() ([]bcrdb.Org, []string) {
	var orgs []bcrdb.Org
	var users []string
	for i := 0; i < benchOrgs; i++ {
		org := bcrdb.Org{Name: fmt.Sprintf("org%d", i+1)}
		for u := 0; u < benchUsersPerOrg; u++ {
			name := fmt.Sprintf("user%d_%d", i+1, u)
			org.Users = append(org.Users, name)
			users = append(users, name)
		}
		orgs = append(orgs, org)
	}
	return orgs, users
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = c.Duration / 5
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 512
	}
	return c
}

// Result is the outcome of one run: node 0's counters over the
// measurement window — the paper's micro metrics of Tables 4 and 5 and
// the self-healing counters — plus submit → commit latency.
type Result struct {
	core.Window
	AvgLatencyMs float64 // committed txs only
	P95LatencyMs float64
}

// Run executes one experiment: build a fresh network, generate load,
// measure a steady-state window, tear down.
func Run(cfg RunConfig) (Result, error) {
	cfg = cfg.withDefaults()
	orgs, users := benchNetwork()

	var dataDir string
	if cfg.Backend == "disk" {
		tmp, err := os.MkdirTemp("", "bcrdb-bench-*")
		if err != nil {
			return Result{}, err
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	}

	nw, err := bcrdb.NewNetwork(bcrdb.Options{
		Orgs:            orgs,
		Flow:            cfg.Flow,
		SerialExecution: cfg.Serial,
		BlockSize:       cfg.BlockSize,
		BlockTimeout:    cfg.BlockTimeout,
		Profile:         cfg.Profile,
		Backend:         cfg.Backend,
		DataDir:         dataDir,
		Genesis:         Genesis(cfg.Contract),
	})
	if err != nil {
		return Result{}, err
	}
	defer nw.Close()

	node0 := nw.Node(0)
	results := node0.SubscribeAll()

	// Latency collector.
	type stamp struct {
		submitted time.Time
	}
	var (
		mu         sync.Mutex
		stamps     = make(map[string]stamp)
		latencies  []time.Duration
		measuring  atomic.Bool
		inFlight   = make(chan struct{}, cfg.MaxInFlight)
		done       = make(chan struct{})
		collectorW sync.WaitGroup
	)
	collectorW.Add(1)
	go func() {
		defer collectorW.Done()
		for {
			select {
			case <-done:
				return
			case r := <-results:
				select {
				case <-inFlight:
				default:
				}
				if !r.Committed {
					continue
				}
				mu.Lock()
				if s, ok := stamps[r.ID]; ok {
					delete(stamps, r.ID)
					if measuring.Load() {
						latencies = append(latencies, time.Since(s.submitted))
					}
				}
				mu.Unlock()
			}
		}
	}()

	// Load generator.
	var seq atomic.Int64
	stopGen := make(chan struct{})
	var genW sync.WaitGroup
	submitOne := func() {
		s := seq.Add(1)
		name, args := Invocation(cfg.Contract, s)
		user := users[int(s)%len(users)]
		id, err := nw.SubmitRaw(user, name, args)
		if err != nil {
			return
		}
		mu.Lock()
		stamps[id] = stamp{submitted: time.Now()}
		mu.Unlock()
	}

	genWorkers := len(users)
	if cfg.ArrivalRate > 0 {
		// Open loop: each worker submits at rate/genWorkers.
		per := cfg.ArrivalRate / float64(genWorkers)
		interval := time.Duration(float64(time.Second) / per)
		for w := 0; w < genWorkers; w++ {
			genW.Add(1)
			go func() {
				defer genW.Done()
				next := time.Now()
				for {
					select {
					case <-stopGen:
						return
					default:
					}
					now := time.Now()
					if now.Before(next) {
						time.Sleep(next.Sub(now))
					}
					next = next.Add(interval)
					submitOne()
				}
			}()
		}
	} else {
		// Closed loop: bounded in-flight saturation.
		for w := 0; w < genWorkers; w++ {
			genW.Add(1)
			go func() {
				defer genW.Done()
				for {
					select {
					case <-stopGen:
						return
					case inFlight <- struct{}{}:
						submitOne()
					case <-time.After(200 * time.Millisecond):
						// Semaphore leak guard: a dropped tx should not
						// stall the generator forever.
						submitOne()
					}
				}
			}()
		}
	}

	// Warmup, then measure.
	time.Sleep(cfg.Warmup)
	measuring.Store(true)
	before := node0.Metrics().Snapshot()
	time.Sleep(cfg.Duration)
	after := node0.Metrics().Snapshot()
	measuring.Store(false)
	close(stopGen)
	genW.Wait()
	close(done)
	collectorW.Wait()

	res := Result{Window: after.Sub(before)}
	mu.Lock()
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		res.AvgLatencyMs = float64(sum) / float64(len(latencies)) / 1e6
		res.P95LatencyMs = float64(latencies[len(latencies)*95/100]) / 1e6
	}
	mu.Unlock()
	return res, nil
}
