package bcrdb

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// stalledNetwork builds a network whose transactions can never resolve
// (every orderer is stopped), forcing Invoke into its retry loop.
func stalledNetwork(t *testing.T, retry RetryPolicy) *Network {
	t.Helper()
	opts := demoOptions(ExecuteOrder)
	opts.Retry = retry
	nw, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nw.Orderers() {
		nw.StopOrderer(i)
	}
	return nw
}

// TestInvokeBackoffWakesOnClose is the regression test for the
// uncancelable retry sleep: Invoke used time.Sleep between attempts, so
// closing the network left the goroutine sleeping out its full backoff
// before firing another attempt into a stopped fabric. The wait must
// end the moment the network closes, with the typed ErrClosed.
func TestInvokeBackoffWakesOnClose(t *testing.T) {
	nw := stalledNetwork(t, RetryPolicy{
		Attempts: 10,
		Timeout:  50 * time.Millisecond,
		Backoff:  10 * time.Second, // pre-fix: Close would strand Invoke for seconds
	})
	defer nw.Close()

	alice := nw.Client("alice")
	done := make(chan error, 1)
	go func() {
		_, err := alice.Invoke("transfer", Int(1), Int(2), Float(1))
		done <- err
	}()

	// Let the first attempt time out and the retry enter its backoff.
	time.Sleep(300 * time.Millisecond)
	start := time.Now()
	nw.Close()

	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Invoke after close returned %v, want ErrClosed", err)
		}
		var ue *UnresolvedError
		if !errors.As(err, &ue) {
			t.Fatalf("want *UnresolvedError, got %T", err)
		}
		if woke := time.Since(start); woke > 2*time.Second {
			t.Fatalf("Invoke took %v to observe close (backoff not interrupted)", woke)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Invoke still blocked 5s after Close — backoff sleep is uncancelable")
	}
}

// TestCloseFencesConcurrentUse is the regression test for the unfenced
// Network.Close: submissions racing or following Close must fail fast
// with ErrClosed instead of hanging on a dead fabric.
func TestCloseFencesConcurrentUse(t *testing.T) {
	opts := demoOptions(ExecuteOrder)
	opts.Retry = RetryPolicy{Attempts: 3, Timeout: 10 * time.Second, Backoff: 50 * time.Millisecond}
	nw, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	alice := nw.Client("alice")

	// Concurrent invokes racing Close: none may hang or panic.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = alice.Invoke("transfer", Int(1), Int(2), Float(1))
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	nw.Close()
	nw.Close() // idempotent

	raced := make(chan struct{})
	go func() { wg.Wait(); close(raced) }()
	select {
	case <-raced:
	case <-time.After(10 * time.Second):
		t.Fatal("invokes racing Close did not finish")
	}
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrClosed) {
			// A racing invoke may legitimately have committed before
			// Close, or timed out mid-teardown; what it must never do
			// is return an unrelated failure mode like a panic value.
			var ue *UnresolvedError
			if !errors.As(err, &ue) {
				t.Fatalf("invoke %d: unexpected error %v", i, err)
			}
		}
	}

	// Use strictly after Close: typed error, immediately.
	start := time.Now()
	_, err = alice.Invoke("transfer", Int(1), Int(2), Float(1))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Invoke after Close returned %v, want ErrClosed", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Invoke after Close took %v, want immediate failure", d)
	}
	if _, err := nw.SubmitRaw("alice", "transfer", []Value{Int(1), Int(2), Float(1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitRaw after Close returned %v, want ErrClosed", err)
	}
	if _, err := nw.Client("bob").Invoke("transfer", Int(2), Int(1), Float(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Invoke by a user first seen after Close returned %v, want ErrClosed", err)
	}
	if !nw.Closed() {
		t.Fatal("Closed() = false after Close")
	}
}

// TestRetryJitterDeterministic is the regression test for jitter drawn
// from the process-global math/rand source: with RetryPolicy.Seed set,
// two networks must produce identical backoff schedules for the same
// client, whatever else the process has done with math/rand. Each
// backoff also counts once in the home node's ClientRetries.
func TestRetryJitterDeterministic(t *testing.T) {
	schedule := func() []time.Duration {
		nw := stalledNetwork(t, RetryPolicy{
			Attempts: 4,
			Timeout:  20 * time.Millisecond,
			Backoff:  80 * time.Millisecond,
			Seed:     7,
		})
		defer nw.Close()
		alice := nw.Client("alice")
		var waits []time.Duration
		alice.backoffHook = func(d time.Duration) { waits = append(waits, d) }
		retries := &alice.Home().Metrics().ClientRetries
		before := retries.Load()
		_, err := alice.Invoke("transfer", Int(1), Int(2), Float(1))
		var ue *UnresolvedError
		if !errors.As(err, &ue) {
			t.Fatalf("stalled invoke returned %v, want UnresolvedError", err)
		}
		// Every backoff is one retry on the home node's counter.
		if got := retries.Load() - before; got != int64(len(waits)) {
			t.Fatalf("home node's ClientRetries rose by %d over %d backoffs", got, len(waits))
		}
		return waits
	}

	a := schedule()
	b := schedule()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("want 3 recorded backoffs per run, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed backoff schedules diverge at attempt %d: %v vs %v\nfull: %v vs %v",
				i+1, a[i], b[i], a, b)
		}
	}
}
