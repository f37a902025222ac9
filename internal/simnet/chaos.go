// Chaos is the deterministic fault scheduler: given a seed and a
// horizon, it precomputes a timeline of crash/restart and
// partition/heal events and then replays it against the live network.
// The timeline is a pure function of the configuration and seed — two
// schedulers built with the same inputs inject the identical event
// sequence. Only the timeline is: the link faults beside it draw from
// the network's shared RNG in the order traffic arrives (faults.go), so
// rerunning a seed replays the same events, not the same run.
//
// Crashes are endpoint-level (Stop/Restart): the "process" keeps
// running but its network interface drops all traffic both ways, which
// is exactly the failure the self-healing delivery layer must absorb.
// Capacity limits per group (e.g. "at most one orderer down") keep the
// schedule from destroying quorum.

package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ChaosGroup is a set of endpoints of one kind with a bound on how many
// may be down simultaneously.
type ChaosGroup struct {
	Names   []string
	MaxDown int
}

// ChaosConfig parameterizes the scheduler.
type ChaosConfig struct {
	Seed int64
	// EventEvery is the mean pause between injected events (exponential
	// spacing). Default 250ms.
	EventEvery time.Duration
	// MinDown/MaxDown bound how long a crash or partition lasts.
	// Defaults 200ms / 1s.
	MinDown, MaxDown time.Duration
	// Groups lists crashable endpoints with per-group down caps.
	Groups []ChaosGroup
	// Partitions are candidate endpoint pairs to sever (both ways); one
	// pair at most is severed at a time.
	Partitions [][2]string
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.EventEvery <= 0 {
		c.EventEvery = 250 * time.Millisecond
	}
	if c.MinDown <= 0 {
		c.MinDown = 200 * time.Millisecond
	}
	if c.MaxDown < c.MinDown {
		c.MaxDown = 5 * c.MinDown
	}
	return c
}

// chaosEvent is one scheduled injection.
type chaosEvent struct {
	at   time.Duration // offset from Start
	dur  time.Duration // how long the fault persists
	kind chaosKind
	name string    // crash target
	pair [2]string // partition target
}

type chaosKind uint8

const (
	chaosCrash chaosKind = iota
	chaosPartition
)

func (e chaosEvent) String() string {
	switch e.kind {
	case chaosCrash:
		return fmt.Sprintf("crash %s for %s", e.name, e.dur)
	default:
		return fmt.Sprintf("partition %s|%s for %s", e.pair[0], e.pair[1], e.dur)
	}
}

// Chaos replays a precomputed fault timeline against a network.
type Chaos struct {
	net *Network
	cfg ChaosConfig

	timeline []chaosEvent

	mu     sync.Mutex
	timers []*time.Timer
	downs  map[string]bool
	parts  map[[2]string]bool
	fired  int64

	stopOnce sync.Once
	stopped  chan struct{}
}

// NewChaos builds a scheduler with a deterministic timeline covering the
// given horizon. Call Start to begin injection.
func NewChaos(net *Network, cfg ChaosConfig, horizon time.Duration) *Chaos {
	cfg = cfg.withDefaults()
	return &Chaos{
		net:      net,
		cfg:      cfg,
		timeline: buildTimeline(cfg, horizon),
		downs:    make(map[string]bool),
		parts:    make(map[[2]string]bool),
		stopped:  make(chan struct{}),
	}
}

// buildTimeline rolls the seeded schedule on a nominal clock: event
// times, targets and durations are all drawn from one RNG, with group
// capacity and partition caps enforced against the nominal timeline.
func buildTimeline(cfg ChaosConfig, horizon time.Duration) []chaosEvent {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var events []chaosEvent
	downUntil := make(map[string]time.Duration)
	partUntil := make(map[[2]string]time.Duration)
	now := time.Duration(0)
	for {
		// Exponential spacing around the mean, clamped to keep the
		// schedule from bunching into a single instant.
		gap := time.Duration(rng.ExpFloat64() * float64(cfg.EventEvery))
		if gap < cfg.EventEvery/4 {
			gap = cfg.EventEvery / 4
		}
		now += gap
		if now >= horizon {
			return events
		}
		dur := cfg.MinDown + time.Duration(rng.Int63n(int64(cfg.MaxDown-cfg.MinDown)+1))
		// Choose crash vs partition; fall through when a category has no
		// capacity left at this nominal instant.
		wantPartition := len(cfg.Partitions) > 0 && rng.Intn(3) == 0 // 1/3 partitions
		if wantPartition {
			var open [][2]string
			active := 0
			for _, p := range cfg.Partitions {
				if partUntil[p] > now {
					active++
				} else {
					open = append(open, p)
				}
			}
			if active == 0 && len(open) > 0 {
				p := open[rng.Intn(len(open))]
				partUntil[p] = now + dur
				events = append(events, chaosEvent{at: now, dur: dur, kind: chaosPartition, pair: p})
			}
			continue
		}
		if len(cfg.Groups) == 0 {
			continue
		}
		g := cfg.Groups[rng.Intn(len(cfg.Groups))]
		down := 0
		var up []string
		for _, name := range g.Names {
			if downUntil[name] > now {
				down++
			} else {
				up = append(up, name)
			}
		}
		if down >= g.MaxDown || len(up) == 0 {
			continue
		}
		name := up[rng.Intn(len(up))]
		downUntil[name] = now + dur
		events = append(events, chaosEvent{at: now, dur: dur, kind: chaosCrash, name: name})
	}
}

// Timeline returns the scheduled injections as strings, in order
// (diagnostics and determinism tests).
func (c *Chaos) Timeline() []string {
	out := make([]string, len(c.timeline))
	for i, e := range c.timeline {
		out[i] = e.String()
	}
	return out
}

// Events returns how many injections have fired so far.
func (c *Chaos) Events() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// Start arms the timeline. Each event applies its fault and schedules
// its own recovery.
func (c *Chaos) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.timeline {
		e := e
		c.timers = append(c.timers, time.AfterFunc(e.at, func() { c.apply(e) }))
	}
}

func (c *Chaos) apply(e chaosEvent) {
	select {
	case <-c.stopped:
		return
	default:
	}
	c.mu.Lock()
	c.fired++
	switch e.kind {
	case chaosCrash:
		c.downs[e.name] = true
		c.net.StopEndpoint(e.name)
		c.timers = append(c.timers, time.AfterFunc(e.dur, func() { c.recoverCrash(e.name) }))
	case chaosPartition:
		c.parts[e.pair] = true
		c.net.Partition(e.pair[0], e.pair[1])
		c.timers = append(c.timers, time.AfterFunc(e.dur, func() { c.recoverPartition(e.pair) }))
	}
	c.mu.Unlock()
}

func (c *Chaos) recoverCrash(name string) {
	c.mu.Lock()
	if c.downs[name] {
		delete(c.downs, name)
		c.net.RestartEndpoint(name)
	}
	c.mu.Unlock()
}

func (c *Chaos) recoverPartition(pair [2]string) {
	c.mu.Lock()
	if c.parts[pair] {
		delete(c.parts, pair)
		c.net.Heal(pair[0], pair[1])
	}
	c.mu.Unlock()
}

// Stop halts injection and rolls every outstanding fault back: crashed
// endpoints restart, partitions heal. Idempotent.
func (c *Chaos) Stop() {
	c.stopOnce.Do(func() {
		close(c.stopped)
		c.mu.Lock()
		for _, t := range c.timers {
			t.Stop()
		}
		for name := range c.downs {
			delete(c.downs, name)
			c.net.RestartEndpoint(name)
		}
		for pair := range c.parts {
			delete(c.parts, pair)
			c.net.Heal(pair[0], pair[1])
		}
		c.mu.Unlock()
	})
}
