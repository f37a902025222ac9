// Package simnet is the in-process network substrate. It substitutes for
// the paper's TLS links between organizations (single cloud LAN and the
// 4-continent multi-cloud WAN of §5) with a message bus whose links model
// propagation latency, jitter and bandwidth.
//
// Guarantees, chosen to mirror TCP connections:
//
//   - per-link FIFO: messages from A to B arrive in send order;
//   - no duplication; loss only through explicit partitions or endpoint
//     crashes;
//   - authenticity is the application's business (everything of value is
//     signed; see identity).
//
// Handlers run on the delivering link's goroutine: they must be fast or
// hand off.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Message is one datagram between endpoints.
type Message struct {
	From    string
	To      string
	Kind    string
	Payload []byte

	// notBefore carries the sender-NIC serialization deadline: the
	// moment this message finishes transmitting on the shared uplink.
	notBefore time.Time
	// sentAt is when the sender handed the message to the network;
	// propagation is measured from here so in-flight messages pipeline
	// like they do on a real link.
	sentAt time.Time
}

// Handler consumes delivered messages.
type Handler func(msg Message)

// Profile models one link's behavior.
type Profile struct {
	Latency   time.Duration // one-way propagation delay
	Jitter    time.Duration // uniform extra [0, Jitter)
	Bandwidth int64         // bytes/second; 0 = infinite
}

// LAN returns the single-datacenter profile (scaled from the paper's
// 5 Gbps, sub-millisecond fabric).
func LAN() Profile {
	return Profile{Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond, Bandwidth: 600 << 20}
}

// WAN returns the multi-cloud profile (scaled from the paper's 50–60 Mbps,
// ~100 ms RTT four-continent deployment; scaled 5× down so experiments
// finish quickly while keeping the LAN:WAN ratio two orders of magnitude).
func WAN() Profile {
	return Profile{Latency: 20 * time.Millisecond, Jitter: 4 * time.Millisecond, Bandwidth: 7 << 20}
}

// Loopback is the profile for messages a node sends itself.
func Loopback() Profile { return Profile{} }

// ProfileFn selects the profile for a (from, to) pair, letting tests give
// different organizations different inter-DC links.
type ProfileFn func(from, to string) Profile

// Gateway forwards messages whose destination is not registered on this
// network — the multi-process escape hatch: a cluster process installs a
// gateway that relays such messages to the process owning the endpoint
// (internal/transport's relay pool), where they re-enter that process's
// simnet via Inject. A gateway must not block: relaying happens on the
// sender's goroutine.
type Gateway func(msg Message) error

// Network is the bus.
type Network struct {
	mu        sync.RWMutex
	endpoints map[string]*Endpoint
	links     map[[2]string]*link
	profileFn ProfileFn
	blocked   map[[2]string]bool
	closed    bool

	// egressBW serializes a node's outgoing transmissions through one
	// shared uplink (bytes/second), like a real NIC: broadcasting a block
	// to n peers costs n transmission times at the sender. 0 = unlimited.
	egressBW map[string]int64

	// Fault injection (faults.go): per-link failure profiles layered
	// under the FIFO guarantees.
	faultsFn FaultsFn
	seed     int64
	start    time.Time

	// gateway, when set, receives messages addressed to endpoints this
	// process does not host (cluster mode). Atomic so the hot send path
	// never takes the network mutex twice.
	gateway atomic.Value // Gateway

	rngMu sync.Mutex
	rng   *rand.Rand

	msgs   atomic.Int64
	bytes  atomic.Int64
	faults atomic.Int64
}

type link struct {
	ch   chan Message
	done chan struct{}
}

// New returns a network where every link uses the given default profile.
func New(def Profile) *Network {
	n := &Network{
		endpoints: make(map[string]*Endpoint),
		links:     make(map[[2]string]*link),
		blocked:   make(map[[2]string]bool),
		egressBW:  make(map[string]int64),
		profileFn: func(from, to string) Profile {
			if from == to {
				return Loopback()
			}
			return def
		},
		seed:  42,
		start: time.Now(),
		rng:   rand.New(rand.NewSource(42)),
	}
	return n
}

// SetEgressBandwidth caps an endpoint's shared uplink (bytes/second).
// All of the endpoint's sends serialize through it before entering the
// per-destination links. 0 removes the cap.
func (n *Network) SetEgressBandwidth(endpoint string, bps int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if bps <= 0 {
		delete(n.egressBW, endpoint)
	} else {
		n.egressBW[endpoint] = bps
	}
}

// SetProfileFn overrides per-pair link profiles.
func (n *Network) SetProfileFn(fn ProfileFn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.profileFn = fn
}

// SetGateway installs the forwarder for messages addressed to endpoints
// not registered locally. nil restores the default (ErrUnknownPeer).
func (n *Network) SetGateway(gw Gateway) { n.gateway.Store(gw) }

// Inject delivers a message that arrived from another process (via a
// relay) into this network as if the remote endpoint had sent it
// locally: it flows through the normal per-link FIFO machinery, so link
// profiles, partitions and fault injection still apply. Unknown
// destinations are an error — an injected message is never re-gatewayed,
// which would loop two relays against each other.
func (n *Network) Inject(from, to, kind string, payload []byte) error {
	return n.send(Message{From: from, To: to, Kind: kind, Payload: payload}, false)
}

// Endpoint is one addressable node.
type Endpoint struct {
	name    string
	net     *Network
	handler atomic.Value // Handler
	stopped atomic.Bool

	nicMu     sync.Mutex
	nicFreeAt time.Time
}

// Errors.
var (
	ErrClosed       = errors.New("simnet: network closed")
	ErrUnknownPeer  = errors.New("simnet: unknown endpoint")
	ErrDuplicate    = errors.New("simnet: endpoint name in use")
	ErrPartitioned  = errors.New("simnet: link partitioned")
	ErrEndpointDown = errors.New("simnet: endpoint stopped")
)

// Register creates an endpoint.
func (n *Network) Register(name string, h Handler) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	ep := &Endpoint{name: name, net: n}
	if h != nil {
		ep.handler.Store(h)
	}
	n.endpoints[name] = ep
	return ep, nil
}

// SetHandler installs or replaces the endpoint's handler.
func (ep *Endpoint) SetHandler(h Handler) { ep.handler.Store(h) }

// Unregister removes the endpoint from the network, freeing its name for
// a restarted node.
func (ep *Endpoint) Unregister() {
	ep.Stop()
	ep.net.mu.Lock()
	if cur, ok := ep.net.endpoints[ep.name]; ok && cur == ep {
		delete(ep.net.endpoints, ep.name)
	}
	ep.net.mu.Unlock()
}

// Stop makes the endpoint drop all future traffic (crash simulation).
func (ep *Endpoint) Stop() { ep.stopped.Store(true) }

// Restart brings a stopped endpoint back.
func (ep *Endpoint) Restart() { ep.stopped.Store(false) }

// Send queues a message from this endpoint. Delivery is asynchronous;
// errors reflect immediately-known conditions only. A stopped (crashed)
// endpoint cannot transmit: its process may still be running, but its
// network interface is gone until Restart.
func (ep *Endpoint) Send(to, kind string, payload []byte) error {
	if ep.stopped.Load() {
		return fmt.Errorf("%w: %s (sender)", ErrEndpointDown, ep.name)
	}
	msg := Message{From: ep.name, To: to, Kind: kind, Payload: payload}
	ep.net.mu.RLock()
	bw := ep.net.egressBW[ep.name]
	ep.net.mu.RUnlock()
	if bw > 0 && len(payload) > 0 {
		tx := time.Duration(int64(time.Second) * int64(len(payload)) / bw)
		ep.nicMu.Lock()
		now := time.Now()
		if ep.nicFreeAt.Before(now) {
			ep.nicFreeAt = now
		}
		ep.nicFreeAt = ep.nicFreeAt.Add(tx)
		msg.notBefore = ep.nicFreeAt
		ep.nicMu.Unlock()
	}
	return ep.net.send(msg, true)
}

// Broadcast sends to every named destination (skipping self).
func (ep *Endpoint) Broadcast(tos []string, kind string, payload []byte) {
	for _, to := range tos {
		if to != ep.name {
			_ = ep.Send(to, kind, payload)
		}
	}
}

func (n *Network) send(msg Message, mayGateway bool) error {
	msg.sentAt = time.Now()
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return ErrClosed
	}
	if n.blocked[[2]string{msg.From, msg.To}] {
		n.mu.RUnlock()
		return ErrPartitioned
	}
	dst, ok := n.endpoints[msg.To]
	if !ok {
		n.mu.RUnlock()
		if mayGateway {
			if gw, _ := n.gateway.Load().(Gateway); gw != nil {
				return gw(msg)
			}
		}
		return fmt.Errorf("%w: %s", ErrUnknownPeer, msg.To)
	}
	if dst.stopped.Load() {
		n.mu.RUnlock()
		return fmt.Errorf("%w: %s", ErrEndpointDown, msg.To)
	}
	key := [2]string{msg.From, msg.To}
	l := n.links[key]
	n.mu.RUnlock()

	if l == nil {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return ErrClosed
		}
		l = n.links[key]
		if l == nil {
			l = &link{ch: make(chan Message, 4096), done: make(chan struct{})}
			n.links[key] = l
			go n.runLink(key, l)
		}
		n.mu.Unlock()
	}
	select {
	case l.ch <- msg:
		n.msgs.Add(1)
		n.bytes.Add(int64(len(msg.Payload)))
		return nil
	case <-l.done:
		return ErrClosed
	}
}

// runLink delivers one link's traffic in FIFO order. Propagation delay is
// measured from each message's send time, so in-flight messages pipeline
// (a 20 ms link still carries thousands of messages per second);
// transmission time serializes against the link's own busy period, which
// is what caps a link's throughput at its bandwidth.
func (n *Network) runLink(key [2]string, l *link) {
	var busyUntil time.Time
	for {
		select {
		case msg := <-l.ch:
			n.mu.RLock()
			prof := n.profileFn(msg.From, msg.To)
			blocked := n.blocked[key]
			dst := n.endpoints[msg.To]
			n.mu.RUnlock()

			prop := prof.Latency
			if prof.Jitter > 0 {
				n.rngMu.Lock()
				prop += time.Duration(n.rng.Int63n(int64(prof.Jitter)))
				n.rngMu.Unlock()
			}
			// Fault injection (faults.go): a faulty link may lose the
			// message outright or add a latency spike, but never
			// duplicates or reorders (the spike delays the link's whole
			// busy period, preserving FIFO).
			if f := n.faultsFor(key); f.active() {
				drop, spike := n.faultVerdict(key, f, msg.sentAt)
				if drop {
					n.faults.Add(1)
					continue
				}
				if spike > 0 {
					n.faults.Add(1)
					prop += spike
				}
			}
			// Transmission starts when both the sender NIC and this
			// link are free.
			txStart := msg.sentAt
			if msg.notBefore.After(txStart) {
				txStart = msg.notBefore
			}
			if busyUntil.After(txStart) {
				txStart = busyUntil
			}
			var tx time.Duration
			if prof.Bandwidth > 0 && len(msg.Payload) > 0 {
				tx = time.Duration(int64(time.Second) * int64(len(msg.Payload)) / prof.Bandwidth)
			}
			busyUntil = txStart.Add(tx)
			deliverAt := busyUntil.Add(prop)
			if wait := time.Until(deliverAt); wait > 0 {
				select {
				case <-time.After(wait):
				case <-l.done:
					return
				}
			}
			if blocked || dst == nil || dst.stopped.Load() {
				continue // dropped in flight
			}
			if h, ok := dst.handler.Load().(Handler); ok && h != nil {
				h(msg)
			}
		case <-l.done:
			return
		}
	}
}

// Partition blocks both directions between a and b.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]string{a, b}] = true
	n.blocked[[2]string{b, a}] = true
}

// Heal removes a partition.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, [2]string{a, b})
	delete(n.blocked, [2]string{b, a})
}

// Close shuts down all links.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for _, l := range n.links {
		close(l.done)
	}
}

// Stats returns (messages sent, payload bytes sent).
func (n *Network) Stats() (int64, int64) { return n.msgs.Load(), n.bytes.Load() }
