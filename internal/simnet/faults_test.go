package simnet

import (
	"sync/atomic"
	"testing"
	"time"
)

// onLink injects f on the directed link from → to only.
func onLink(from, to string, f Faults) FaultsFn {
	return func(a, b string) Faults {
		if a == from && b == to {
			return f
		}
		return Faults{}
	}
}

func TestLinkDropProbability(t *testing.T) {
	n := New(Profile{})
	defer n.Close()
	n.SetSeed(7)
	n.SetFaultsFn(onLink("a", "b", Faults{DropProb: 0.5}))

	var got atomic.Int64
	if _, err := n.Register("b", func(m Message) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	a, err := n.Register("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	const sent = 400
	for i := 0; i < sent; i++ {
		if err := a.Send("b", "k", []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && got.Load()+n.FaultsInjected() < sent {
		time.Sleep(time.Millisecond)
	}
	delivered := got.Load()
	if delivered == 0 || delivered == sent {
		t.Fatalf("drop prob 0.5 delivered %d/%d", delivered, sent)
	}
	if delivered < sent/4 || delivered > 3*sent/4 {
		t.Fatalf("drop prob 0.5 delivered %d/%d, far from half", delivered, sent)
	}
	if f := n.FaultsInjected(); f != sent-delivered {
		t.Fatalf("FaultsInjected = %d, want %d", f, sent-delivered)
	}
}

func TestLinkSpikeDelaysButDelivers(t *testing.T) {
	n := New(Profile{})
	defer n.Close()
	n.SetSeed(1)
	n.SetFaultsFn(onLink("a", "b", Faults{SpikeProb: 1.0, Spike: 30 * time.Millisecond}))

	done := make(chan time.Time, 1)
	if _, err := n.Register("b", func(m Message) { done <- time.Now() }); err != nil {
		t.Fatal(err)
	}
	a, _ := n.Register("a", nil)
	start := time.Now()
	if err := a.Send("b", "k", []byte{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-done:
		if d := at.Sub(start); d < 25*time.Millisecond {
			t.Fatalf("spiked delivery took only %s", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("spiked message never delivered")
	}
	if n.FaultsInjected() == 0 {
		t.Fatal("spike not counted as injected fault")
	}
}

func TestDutyCycleFlapsLink(t *testing.T) {
	n := New(Profile{})
	defer n.Close()
	n.SetSeed(3)
	// 20ms up / 20ms down: over 200ms of steady traffic roughly half
	// must vanish, and both outcomes must occur.
	n.SetFaultsFn(onLink("a", "b", Faults{UpFor: 20 * time.Millisecond, DownFor: 20 * time.Millisecond}))

	var got atomic.Int64
	if _, err := n.Register("b", func(m Message) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	a, _ := n.Register("a", nil)
	sent := 0
	end := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(end) {
		_ = a.Send("b", "k", []byte{1})
		sent++
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	delivered := got.Load()
	if delivered == 0 {
		t.Fatalf("duty-cycled link delivered nothing (%d sent)", sent)
	}
	if delivered == int64(sent) {
		t.Fatalf("duty-cycled link dropped nothing (%d sent)", sent)
	}
}

func TestSenderCrashBlocksSend(t *testing.T) {
	n := New(Profile{})
	defer n.Close()
	if _, err := n.Register("b", func(Message) {}); err != nil {
		t.Fatal(err)
	}
	a, _ := n.Register("a", nil)
	if err := a.Send("b", "k", nil); err != nil {
		t.Fatalf("healthy send failed: %v", err)
	}
	a.Stop()
	if err := a.Send("b", "k", nil); err == nil {
		t.Fatal("send from crashed endpoint succeeded")
	}
	a.Restart()
	if err := a.Send("b", "k", nil); err != nil {
		t.Fatalf("send after restart failed: %v", err)
	}
}

func TestChaosTimelineDeterministic(t *testing.T) {
	cfg := ChaosConfig{
		Seed:       99,
		EventEvery: 50 * time.Millisecond,
		MinDown:    20 * time.Millisecond,
		MaxDown:    80 * time.Millisecond,
		Groups: []ChaosGroup{
			{Names: []string{"db.org1", "db.org2", "db.org3"}, MaxDown: 1},
			{Names: []string{"orderer0", "orderer1", "orderer2"}, MaxDown: 1},
		},
		Partitions: [][2]string{{"db.org1", "db.org2"}, {"db.org2", "db.org3"}},
	}
	n1, n2 := New(Profile{}), New(Profile{})
	defer n1.Close()
	defer n2.Close()
	c1 := NewChaos(n1, cfg, 5*time.Second)
	c2 := NewChaos(n2, cfg, 5*time.Second)
	t1, t2 := c1.Timeline(), c2.Timeline()
	if len(t1) == 0 {
		t.Fatal("empty chaos timeline")
	}
	if len(t1) != len(t2) {
		t.Fatalf("timeline lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("timelines diverge at %d: %q vs %q", i, t1[i], t2[i])
		}
	}
	other := cfg
	other.Seed = 100
	c3 := NewChaos(n1, other, 5*time.Second)
	t3 := c3.Timeline()
	same := len(t3) == len(t1)
	if same {
		for i := range t1 {
			if t1[i] != t3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical timelines")
	}
}

func TestChaosRespectsGroupCapacityAndStops(t *testing.T) {
	n := New(Profile{})
	defer n.Close()
	for _, name := range []string{"x", "y", "z"} {
		if _, err := n.Register(name, func(Message) {}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := ChaosConfig{
		Seed:       5,
		EventEvery: 5 * time.Millisecond,
		MinDown:    30 * time.Millisecond,
		MaxDown:    60 * time.Millisecond,
		Groups:     []ChaosGroup{{Names: []string{"x", "y", "z"}, MaxDown: 1}},
	}
	// Nominal capacity: never two crashes overlapping in the timeline.
	c := NewChaos(n, cfg, 2*time.Second)
	type span struct{ from, to time.Duration }
	var spans []span
	for _, e := range c.timeline {
		for _, s := range spans {
			if e.at < s.to && e.at >= s.from {
				t.Fatalf("timeline overlaps crashes: %s at %s inside [%s,%s)", e.name, e.at, s.from, s.to)
			}
		}
		spans = append(spans, span{e.at, e.at + e.dur})
	}
	c.Start()
	time.Sleep(100 * time.Millisecond)
	if c.Events() == 0 {
		t.Fatal("chaos injected nothing")
	}
	c.Stop()
	for _, name := range []string{"x", "y", "z"} {
		if n.EndpointStopped(name) {
			t.Fatalf("endpoint %s still down after chaos Stop", name)
		}
	}
}
