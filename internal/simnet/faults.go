// Fault injection: per-link failure profiles layered *under* the bus's
// FIFO guarantees. A faulty link may lose messages or delay them with
// latency spikes, and may flap up/down on a duty cycle — but it never
// duplicates and never reorders (a spike extends the link's busy period,
// so later messages queue behind it). Loss therefore remains attributable:
// explicit partitions, crashed endpoints, or an injected fault, all of
// which the FaultsInjected counter accounts for.
//
// Everything is driven by the network's seeded RNG (SetSeed), so a run
// with the same seed injects the same faults at the same decision points.

package simnet

import (
	"math/rand"
	"time"
)

// Faults models one link's failure behavior.
type Faults struct {
	// DropProb is the probability in [0,1] that a message is lost in
	// flight.
	DropProb float64
	// SpikeProb adds a latency spike of Spike to a message with the given
	// probability (bufferbloat, retransmission stalls).
	SpikeProb float64
	Spike     time.Duration
	// UpFor/DownFor, when both positive, impose a flaky duty cycle: the
	// link repeats UpFor of normal service followed by DownFor of total
	// loss. The phase offset is derived from the network seed and the
	// link's endpoints, so different links flap at different times.
	UpFor   time.Duration
	DownFor time.Duration
}

// active reports whether the profile injects anything at all.
func (f Faults) active() bool {
	return f.DropProb > 0 || (f.SpikeProb > 0 && f.Spike > 0) || (f.UpFor > 0 && f.DownFor > 0)
}

// FaultsFn selects the fault profile for a (from, to) pair.
type FaultsFn func(from, to string) Faults

// SetSeed reseeds the network's RNG, making jitter and fault decisions
// reproducible for a given seed. Call before traffic starts.
func (n *Network) SetSeed(seed int64) {
	n.mu.Lock()
	n.seed = seed
	n.mu.Unlock()
	n.rngMu.Lock()
	n.rng = rand.New(rand.NewSource(seed))
	n.rngMu.Unlock()
}

// SetFaultsFn installs the per-pair fault profile. nil clears it.
func (n *Network) SetFaultsFn(fn FaultsFn) {
	n.mu.Lock()
	n.faultsFn = fn
	n.mu.Unlock()
}

// ClearFaults removes every fault profile (the chaos teardown path).
func (n *Network) ClearFaults() {
	n.mu.Lock()
	n.faultsFn = nil
	n.mu.Unlock()
}

// FaultsInjected returns how many messages were dropped or spiked by
// fault injection since the network started.
func (n *Network) FaultsInjected() int64 { return n.faults.Load() }

// faultsFor resolves the profile for a link.
func (n *Network) faultsFor(key [2]string) Faults {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.faultsFn != nil {
		return n.faultsFn(key[0], key[1])
	}
	return Faults{}
}

// faultVerdict decides one message's fate on a faulty link: dropped by
// the duty cycle or the loss probability, or delayed by a spike.
func (n *Network) faultVerdict(key [2]string, f Faults, sentAt time.Time) (drop bool, spike time.Duration) {
	if f.UpFor > 0 && f.DownFor > 0 {
		cycle := f.UpFor + f.DownFor
		n.mu.RLock()
		elapsed := sentAt.Sub(n.start) + time.Duration(linkPhase(key, n.seed)%uint64(cycle))
		n.mu.RUnlock()
		if elapsed%cycle >= f.UpFor {
			return true, 0
		}
	}
	if f.DropProb > 0 || (f.SpikeProb > 0 && f.Spike > 0) {
		n.rngMu.Lock()
		if f.DropProb > 0 && n.rng.Float64() < f.DropProb {
			drop = true
		}
		if !drop && f.SpikeProb > 0 && n.rng.Float64() < f.SpikeProb {
			spike = f.Spike
		}
		n.rngMu.Unlock()
	}
	return drop, spike
}

// linkPhase derives a deterministic per-link duty-cycle phase offset
// from the seed (FNV-1a over the endpoint names and seed bytes).
func linkPhase(key [2]string, seed int64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(key[0])
	mix("→")
	mix(key[1])
	for i := 0; i < 8; i++ {
		h ^= uint64(seed>>(8*i)) & 0xff
		h *= 1099511628211
	}
	return h
}

// StopEndpoint crashes an endpoint by name (chaos scheduler entry
// point). Reports whether the endpoint exists.
func (n *Network) StopEndpoint(name string) bool {
	n.mu.RLock()
	ep := n.endpoints[name]
	n.mu.RUnlock()
	if ep == nil {
		return false
	}
	ep.Stop()
	return true
}

// RestartEndpoint brings a crashed endpoint back by name.
func (n *Network) RestartEndpoint(name string) bool {
	n.mu.RLock()
	ep := n.endpoints[name]
	n.mu.RUnlock()
	if ep == nil {
		return false
	}
	ep.Restart()
	return true
}
