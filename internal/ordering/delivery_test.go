package ordering

import (
	"math"
	"sync"
	"testing"
	"time"

	"bcrdb/internal/codec"
	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/simnet"
)

// TestDeliveryWindow pins the retained window: a fetch gets back exactly
// the blocks still retained, as ordinary signed KindBlock deliveries; the
// window is bounded; and no range a stranger can send makes the orderer
// loop or answer.
func TestDeliveryWindow(t *testing.T) {
	net := simnet.New(simnet.Loopback())
	defer net.Close()
	signer, err := identity.NewSigner("o", "org", identity.RoleOrderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.Register("o", nil)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelivery("o", signer, ep, nil) // no subscribed peer: only fetches are answered
	ep.SetHandler(func(m simnet.Message) { d.Handle(m) })

	var mu sync.Mutex
	var got []uint64
	asker, err := net.Register("db", func(m simnet.Message) {
		b, err := ledger.DecodeBlock(m.Payload)
		if m.Kind != KindBlock || err != nil || len(b.Sigs) != 1 || b.Sigs[0].Orderer != "o" {
			t.Errorf("fetch answered with %s %v", m.Kind, err)
			return
		}
		mu.Lock()
		got = append(got, b.Number)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	const delivered = retainBlocks + 44
	for i := uint64(1); i <= delivered; i++ {
		b := &ledger.Block{Number: i}
		b.ComputeHash()
		d.Deliver(b)
	}
	fetch := func(from, to uint64) {
		e := codec.NewBuf(16)
		e.Uvarint(from)
		e.Uvarint(to)
		if err := asker.Send("o", KindBlockFetch, e.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	fetch(math.MaxUint64-3, math.MaxUint64) // beyond the tip: nothing, and it terminates
	fetch(1, math.MaxUint64)                // over the range cap: ignored
	fetch(5, 2)                             // inverted: ignored
	fetch(0, delivered+10)                  // everything: only the window comes back

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= retainBlocks || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // anything beyond the window would arrive now
	mu.Lock()
	defer mu.Unlock()
	if len(got) != retainBlocks {
		t.Fatalf("fetch returned %d blocks, want the last %d of %d", len(got), retainBlocks, delivered)
	}
	if got[0] != delivered-retainBlocks+1 || got[len(got)-1] != delivered {
		t.Fatalf("fetch returned blocks %d..%d, want %d..%d", got[0], got[len(got)-1], delivered-retainBlocks+1, delivered)
	}
}
