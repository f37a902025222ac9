package workload

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bcrdb"
	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/ordering/bft"
	"bcrdb/internal/ordering/kafka"
	"bcrdb/internal/simnet"
	"bcrdb/internal/types"
)

// padding brings bench envelopes to the paper's ~196-byte transaction
// size (§5.3).
var padding = strings.Repeat("x", 100)

// OrderingBenchConfig parameterizes the Figure 8(b) experiment: raw
// ordering throughput versus the number of orderer nodes.
type OrderingBenchConfig struct {
	Kind         bcrdb.OrderingKind
	Orderers     int
	ArrivalRate  float64 // offered tx/s (paper: 3000)
	BlockSize    int
	BlockTimeout time.Duration
	Duration     time.Duration
	Warmup       time.Duration
}

// nicBandwidth caps each orderer's shared uplink (bytes/s). This is what
// makes BFT's O(n) leader dissemination and O(n²) votes bite as the
// cluster grows (8 MiB/s ≈ the paper's inter-VM links).
const nicBandwidth = 8 << 20

// OrderingBenchResult reports delivered transaction throughput.
type OrderingBenchResult struct {
	Config     OrderingBenchConfig
	Throughput float64 // unique ordered tx/s delivered to the sink peer
	Blocks     int64
}

// RunOrderingBench drives one ordering service in isolation: a generator
// submits pre-signed envelopes to the orderers round-robin, and a sink
// peer counts delivered transactions from one orderer.
func RunOrderingBench(cfg OrderingBenchConfig) (OrderingBenchResult, error) {
	if cfg.Orderers == 0 {
		cfg.Orderers = 4
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 100
	}
	if cfg.BlockTimeout == 0 {
		cfg.BlockTimeout = 50 * time.Millisecond
	}
	if cfg.Duration == 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = cfg.Duration / 4
	}
	if cfg.ArrivalRate == 0 {
		cfg.ArrivalRate = 3000
	}

	net := simnet.New(simnet.LAN())
	defer net.Close()

	var delivered atomic.Int64
	var blocks atomic.Int64
	var measuring atomic.Bool
	sink, err := net.Register("sink", func(m simnet.Message) {
		if m.Kind != ordering.KindBlock {
			return
		}
		b, err := ledger.DecodeBlock(m.Payload)
		if err != nil {
			return
		}
		if measuring.Load() {
			delivered.Add(int64(len(b.Txs)))
			blocks.Add(1)
		}
	})
	if err != nil {
		return OrderingBenchResult{}, err
	}
	_ = sink

	ocfg := ordering.Config{BlockSize: cfg.BlockSize, BlockTimeout: cfg.BlockTimeout}
	reg := identity.NewRegistry()
	var names []string
	var signers []*identity.Signer
	for i := 0; i < cfg.Orderers; i++ {
		s, err := identity.NewSigner(fmt.Sprintf("o%d", i), "org", identity.RoleOrderer, nil)
		if err != nil {
			return OrderingBenchResult{}, err
		}
		signers = append(signers, s)
		names = append(names, s.Name)
		_ = reg.Register(s.Public())
		net.SetEgressBandwidth(s.Name, nicBandwidth)
	}

	switch cfg.Kind {
	case bcrdb.OrderingKafka:
		topic := kafka.NewTopic()
		for i := 0; i < cfg.Orderers; i++ {
			peers := []string{}
			if i == 0 {
				peers = []string{"sink"}
			}
			o, err := kafka.NewOrderer(names[i], signers[i], topic, net, peers, ocfg)
			if err != nil {
				return OrderingBenchResult{}, err
			}
			defer o.Stop()
		}
	case bcrdb.OrderingBFT:
		if cfg.Orderers < 4 {
			return OrderingBenchResult{}, fmt.Errorf("workload: BFT needs ≥ 4 orderers")
		}
		for i := 0; i < cfg.Orderers; i++ {
			peers := []string{}
			if i == 0 {
				peers = []string{"sink"}
			}
			o, err := bft.New(i, names, signers[i], reg, net, peers, ocfg)
			if err != nil {
				return OrderingBenchResult{}, err
			}
			defer o.Stop()
		}
	}

	client, err := net.Register("loadgen", nil)
	if err != nil {
		return OrderingBenchResult{}, err
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var seq atomic.Int64
	workers := 4
	per := cfg.ArrivalRate / float64(workers)
	interval := time.Duration(float64(time.Second) / per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			next := time.Now()
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := time.Now()
				if now.Before(next) {
					time.Sleep(next.Sub(now))
				}
				next = next.Add(interval)
				s := seq.Add(1)
				// Envelopes padded to the paper's §5.3 transaction size
				// (~196 bytes) so dissemination bandwidth is realistic.
				tx := &ledger.Transaction{
					ID:        fmt.Sprintf("tx-%d", s),
					Username:  "bench",
					Contract:  "noop",
					Args:      []types.Value{types.NewInt(s), types.NewString(padding)},
					Signature: make([]byte, 64),
				}
				target := names[int(s)%len(names)]
				_ = client.Send(target, ordering.KindSubmit, ledger.MarshalTransaction(tx))
			}
		}(w)
	}

	time.Sleep(cfg.Warmup)
	measuring.Store(true)
	start := time.Now()
	time.Sleep(cfg.Duration)
	measuring.Store(false)
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	return OrderingBenchResult{
		Config:     cfg,
		Throughput: float64(delivered.Load()) / elapsed.Seconds(),
		Blocks:     blocks.Load(),
	}, nil
}
