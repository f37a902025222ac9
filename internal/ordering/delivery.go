package ordering

import (
	"slices"
	"sync"
	"time"

	"bcrdb/internal/codec"
	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/simnet"
)

// retainBlocks is how many of its most recent deliveries an orderer keeps
// for KindBlockFetch. A constant, not an option: ≈ 4.5 MB per orderer at
// 100 transactions a block, and a node further behind than this pulls
// from its peers, which hold the whole chain.
const retainBlocks = 256

// Delivery is the orderer → peer half the kafka and bft services share:
// the database nodes subscribed to this orderer, the idle heartbeat that
// proves its liveness, signing and sending each agreed block, and a
// bounded window of the last blocks sent, re-served on KindBlockFetch.
//
// The window closes a hole peer-to-peer catch-up cannot: a block whose
// delivery is lost on every orderer → peer link is held by no database
// node, so every node would ask its peers for it forever while later
// blocks pile up behind the gap (docs/adr/0005).
type Delivery struct {
	name   string
	signer *identity.Signer
	ep     *simnet.Endpoint

	mu     sync.Mutex
	peers  []string
	last   uint64                      // highest block number delivered
	window [retainBlocks]retainedBlock // slot = number % retainBlocks
}

// retainedBlock is one delivered block's signed encoding.
type retainedBlock struct {
	number uint64
	data   []byte
}

// NewDelivery returns the delivery state of the orderer behind ep; peers
// are the database nodes it delivers to from the start.
func NewDelivery(name string, signer *identity.Signer, ep *simnet.Endpoint, peers []string) *Delivery {
	return &Delivery{name: name, signer: signer, ep: ep, peers: slices.Clone(peers)}
}

// heartbeatEvery is how often an idle orderer proves liveness to its
// delivery peers (KindHeartbeat). Peers treat several missed heartbeats
// as an orderer crash and fail over.
const heartbeatEvery = 250 * time.Millisecond

// Heartbeats proves liveness to the delivery peers between blocks until
// done closes, so a peer hearing nothing can conclude its orderer crashed
// and fail over. The payload carries the last delivered block number: a
// peer behind it knows to catch up.
func (d *Delivery) Heartbeats(done <-chan struct{}) {
	t := time.NewTicker(heartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			d.mu.Lock()
			last := d.last
			d.mu.Unlock()
			d.broadcast(KindHeartbeat, EncodeHeartbeat(last))
		}
	}
}

// broadcast sends one message to every delivery peer.
func (d *Delivery) broadcast(kind string, payload []byte) {
	d.mu.Lock()
	peers := slices.Clone(d.peers)
	d.mu.Unlock()
	for _, p := range peers {
		_ = d.ep.Send(p, kind, payload)
	}
}

// Handle serves the delivery-side message kinds (KindSubscribe,
// KindUnsubscribe, KindBlockFetch) and reports whether m was one.
func (d *Delivery) Handle(m simnet.Message) bool {
	switch m.Kind {
	case KindSubscribe:
		d.addPeer(m.From)
	case KindUnsubscribe:
		d.removePeer(m.From)
	case KindBlockFetch:
		d.resend(m)
	default:
		return false
	}
	return true
}

// addPeer subscribes a database node to the deliveries (orderer
// failover). Idempotent.
func (d *Delivery) addPeer(name string) {
	d.mu.Lock()
	known := slices.Contains(d.peers, name)
	if !known {
		d.peers = append(d.peers, name)
	}
	last := d.last
	d.mu.Unlock()
	if !known {
		// Answer immediately so the failed-over peer's delivery deadline
		// resets without waiting a heartbeat period.
		_ = d.ep.Send(name, KindHeartbeat, EncodeHeartbeat(last))
	}
}

// removePeer drops a database node from the delivery peers (the node
// failed over to another orderer while this one was unreachable).
func (d *Delivery) removePeer(name string) {
	d.mu.Lock()
	if i := slices.Index(d.peers, name); i >= 0 {
		d.peers = slices.Delete(d.peers, i, i+1)
	}
	d.mu.Unlock()
}

// resend answers KindBlockFetch: every retained block in [from, to] goes
// back to the asker as an ordinary KindBlock delivery.
func (d *Delivery) resend(m simnet.Message) {
	dec := codec.NewDec(m.Payload)
	from := dec.Uvarint()
	to := dec.Uvarint()
	if dec.Done() != nil || to < from || to-from > 10000 {
		return
	}
	var blocks [][]byte
	d.mu.Lock()
	for i := from; i <= min(to, d.last); i++ {
		if r := d.window[i%retainBlocks]; r.number == i && r.data != nil {
			blocks = append(blocks, r.data)
		}
	}
	d.mu.Unlock()
	for _, data := range blocks {
		_ = d.ep.Send(m.From, KindBlock, data)
	}
}

// Deliver signs the block, retains its encoding and sends it to the
// delivery peers.
func (d *Delivery) Deliver(b *ledger.Block) {
	signed := *b // shallow copy; Txs shared (immutable)
	signed.Sigs = []ledger.BlockSig{{
		Orderer:   d.name,
		Signature: d.signer.Sign(b.Hash[:]),
	}}
	data := signed.Encode()
	d.mu.Lock()
	d.window[b.Number%retainBlocks] = retainedBlock{number: b.Number, data: data}
	d.mu.Unlock()
	d.broadcast(KindBlock, data)
	// Advertised only once it is on every link: links are FIFO, so a peer
	// that hears a heartbeat naming this block and lacks it has lost it.
	d.mu.Lock()
	d.last = max(d.last, b.Number)
	d.mu.Unlock()
}
