package simnet

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fastProfile keeps tests quick.
func fastProfile() Profile { return Profile{Latency: 100 * time.Microsecond} }

func TestSendAndReceive(t *testing.T) {
	n := New(fastProfile())
	defer n.Close()

	got := make(chan Message, 1)
	_, err := n.Register("b", func(m Message) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	a, err := n.Register("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", "ping", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.From != "a" || m.Kind != "ping" || string(m.Payload) != "hello" {
			t.Fatalf("message = %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message never delivered")
	}
}

func TestFIFOPerLink(t *testing.T) {
	n := New(Profile{Latency: 50 * time.Microsecond, Jitter: 200 * time.Microsecond})
	defer n.Close()

	var mu sync.Mutex
	var order []byte
	done := make(chan struct{})
	_, _ = n.Register("dst", func(m Message) {
		mu.Lock()
		order = append(order, m.Payload[0])
		if len(order) == 100 {
			close(done)
		}
		mu.Unlock()
	})
	src, _ := n.Register("src", nil)
	for i := 0; i < 100; i++ {
		if err := src.Send("dst", "seq", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("not all messages delivered")
	}
	for i := 0; i < 100; i++ {
		if order[i] != byte(i) {
			t.Fatalf("out of order at %d: %d", i, order[i])
		}
	}
}

func TestUnknownAndDuplicateEndpoints(t *testing.T) {
	n := New(fastProfile())
	defer n.Close()
	a, _ := n.Register("a", nil)
	if err := a.Send("ghost", "x", nil); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v", err)
	}
	if _, err := n.Register("a", nil); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(fastProfile())
	defer n.Close()
	got := make(chan Message, 10)
	_, _ = n.Register("b", func(m Message) { got <- m })
	a, _ := n.Register("a", nil)

	n.Partition("a", "b")
	if err := a.Send("b", "x", nil); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("err = %v", err)
	}
	n.Heal("a", "b")
	if err := a.Send("b", "x", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("message after heal never arrived")
	}
}

func TestStopDropsTraffic(t *testing.T) {
	n := New(fastProfile())
	defer n.Close()
	got := make(chan Message, 10)
	b, _ := n.Register("b", func(m Message) { got <- m })
	a, _ := n.Register("a", nil)

	b.Stop()
	if err := a.Send("b", "x", nil); !errors.Is(err, ErrEndpointDown) {
		t.Fatalf("err = %v", err)
	}
	b.Restart()
	if err := a.Send("b", "x", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("message after restart never arrived")
	}
}

func TestBroadcast(t *testing.T) {
	n := New(fastProfile())
	defer n.Close()
	var mu sync.Mutex
	count := 0
	done := make(chan struct{})
	handler := func(m Message) {
		mu.Lock()
		count++
		if count == 2 {
			close(done)
		}
		mu.Unlock()
	}
	_, _ = n.Register("b", handler)
	_, _ = n.Register("c", handler)
	a, _ := n.Register("a", handler)
	a.Broadcast([]string{"a", "b", "c"}, "x", nil) // self skipped
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("broadcast incomplete")
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
}

func TestLatencyIsApplied(t *testing.T) {
	n := New(Profile{Latency: 30 * time.Millisecond})
	defer n.Close()
	got := make(chan time.Time, 1)
	_, _ = n.Register("b", func(m Message) { got <- time.Now() })
	a, _ := n.Register("a", nil)
	start := time.Now()
	_ = a.Send("b", "x", nil)
	arrival := <-got
	if d := arrival.Sub(start); d < 25*time.Millisecond {
		t.Fatalf("delivered too fast: %v", d)
	}
}

func TestBandwidthDelay(t *testing.T) {
	// 1 MB over 10 MB/s ≈ 100ms transmission delay.
	n := New(Profile{Bandwidth: 10 << 20})
	defer n.Close()
	got := make(chan time.Time, 1)
	_, _ = n.Register("b", func(m Message) { got <- time.Now() })
	a, _ := n.Register("a", nil)
	start := time.Now()
	_ = a.Send("b", "x", make([]byte, 1<<20))
	arrival := <-got
	if d := arrival.Sub(start); d < 50*time.Millisecond {
		t.Fatalf("bandwidth delay not applied: %v", d)
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	n := New(fastProfile())
	a, _ := n.Register("a", nil)
	_, _ = n.Register("b", func(m Message) {})
	n.Close()
	if err := a.Send("b", "x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	if _, err := n.Register("c", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close err = %v", err)
	}
}

func TestStats(t *testing.T) {
	n := New(fastProfile())
	defer n.Close()
	done := make(chan struct{}, 2)
	_, _ = n.Register("b", func(m Message) { done <- struct{}{} })
	a, _ := n.Register("a", nil)
	_ = a.Send("b", "x", []byte{1, 2, 3})
	_ = a.Send("b", "x", []byte{4})
	<-done
	<-done
	msgs, bytes := n.Stats()
	if msgs != 2 || bytes != 4 {
		t.Fatalf("stats = %d msgs %d bytes", msgs, bytes)
	}
}

func TestUnregisterFreesName(t *testing.T) {
	n := New(fastProfile())
	defer n.Close()
	a, _ := n.Register("a", nil)
	a.Unregister()
	// The name is free again.
	a2, err := n.Register("a", nil)
	if err != nil {
		t.Fatalf("re-register after unregister: %v", err)
	}
	// Unregistering the old handle must not remove the new one.
	a.Unregister()
	n.mu.RLock()
	ep := n.endpoints["a"]
	n.mu.RUnlock()
	if ep != a2 {
		t.Fatal("unregistering the old handle removed the new one")
	}
}

func TestEgressBandwidthSerializesBroadcast(t *testing.T) {
	// 10 messages of 100 KB over a 1 MB/s uplink ≈ 1s of transmission;
	// without the NIC cap the fan-out would complete in ~zero time
	// (parallel links). Use a shorter variant: 6 × 50 KB over 1 MB/s ≈
	// 300 ms.
	n := New(Profile{})
	defer n.Close()
	var mu sync.Mutex
	arrivals := 0
	done := make(chan struct{})
	for i := 0; i < 6; i++ {
		name := string(rune('b' + i))
		_, _ = n.Register(name, func(m Message) {
			mu.Lock()
			arrivals++
			if arrivals == 6 {
				close(done)
			}
			mu.Unlock()
		})
	}
	src, _ := n.Register("src", nil)
	n.SetEgressBandwidth("src", 1<<20)
	start := time.Now()
	payload := make([]byte, 50<<10)
	for i := 0; i < 6; i++ {
		_ = src.Send(string(rune('b'+i)), "x", payload)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast never completed")
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Fatalf("NIC serialization not applied: fan-out took %v", d)
	}
	// Removing the cap restores parallel fan-out.
	n.SetEgressBandwidth("src", 0)
	start = time.Now()
	got := make(chan struct{}, 1)
	_, _ = n.Register("fastdst", func(m Message) { got <- struct{}{} })
	_ = src.Send("fastdst", "x", payload)
	<-got
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("uncapped send took %v", d)
	}
}

func TestPipeliningOnHighLatencyLink(t *testing.T) {
	// 100 messages over a 30ms link must NOT take 100×30ms: propagation
	// pipelines. Total should be ≈ one latency plus scheduling slack.
	n := New(Profile{Latency: 30 * time.Millisecond})
	defer n.Close()
	var mu sync.Mutex
	count := 0
	done := make(chan struct{})
	_, _ = n.Register("dst", func(m Message) {
		mu.Lock()
		count++
		if count == 100 {
			close(done)
		}
		mu.Unlock()
	})
	src, _ := n.Register("src", nil)
	start := time.Now()
	for i := 0; i < 100; i++ {
		_ = src.Send("dst", "x", []byte{byte(i)})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("messages never arrived")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("link is store-and-forward, not pipelined: %v for 100 msgs", d)
	}
}

func TestPerPairProfiles(t *testing.T) {
	n := New(Profile{})
	defer n.Close()
	n.SetProfileFn(func(from, to string) Profile {
		if from == "slow" {
			return Profile{Latency: 50 * time.Millisecond}
		}
		return Profile{}
	})
	got := make(chan string, 2)
	_, _ = n.Register("dst", func(m Message) { got <- m.From })
	slow, _ := n.Register("slow", nil)
	fast, _ := n.Register("fast", nil)
	_ = slow.Send("dst", "x", nil)
	time.Sleep(time.Millisecond)
	_ = fast.Send("dst", "x", nil)
	first := <-got
	if first != "fast" {
		t.Fatalf("fast link should win, got %s first", first)
	}
	<-got
}
