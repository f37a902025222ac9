package transport

import (
	"context"
	"sync"
	"time"

	"bcrdb/internal/simnet"
)

// RelayPool ships fabric messages to the processes hosting their
// destination endpoints. It is installed as the simnet Gateway of a
// cluster-mode process: a message addressed to an endpoint that is not
// registered locally is matched to a peer process by endpoint-name
// prefix and POSTed to that peer's /v1/relay.
//
// Each destination gets one ordered queue drained by one sender
// goroutine — simnet links are FIFO and the relay must not reorder what
// the fabric guarantees (topic records, block delivery). Delivery is
// best-effort: a full queue or failed POST is a dropped packet,
// which the self-healing layer (anti-entropy catch-up, client retry)
// recovers from, exactly as it does for injected link faults.
type RelayPool struct {
	routes []relayRoute
	mu     sync.Mutex
	queues map[string]chan simnet.Message
	done   chan struct{}
	wg     sync.WaitGroup
}

type relayRoute struct {
	prefixes []string // endpoint-name prefixes owned by the peer
	client   *HTTPClient
}

// NewRelayPool builds a pool from peer base URLs keyed by a route name.
// AddRoute attaches the endpoint prefixes each peer owns.
func NewRelayPool() *RelayPool {
	return &RelayPool{
		queues: make(map[string]chan simnet.Message),
		done:   make(chan struct{}),
	}
}

// AddRoute declares that endpoints matching any of the prefixes live in
// the process at baseURL.
func (p *RelayPool) AddRoute(baseURL string, prefixes ...string) {
	p.routes = append(p.routes, relayRoute{
		prefixes: append([]string(nil), prefixes...),
		client:   Dial(baseURL),
	})
}

// Gateway returns the function to install via simnet.SetGateway.
func (p *RelayPool) Gateway() simnet.Gateway {
	return func(msg simnet.Message) error {
		for _, rt := range p.routes {
			for _, pre := range rt.prefixes {
				if routeMatch(msg.To, pre) {
					p.enqueue(rt.client, msg)
					return nil
				}
			}
		}
		return simnet.ErrUnknownPeer
	}
}

func (p *RelayPool) enqueue(c *HTTPClient, msg simnet.Message) {
	p.mu.Lock()
	select {
	case <-p.done:
		p.mu.Unlock()
		return
	default:
	}
	q, ok := p.queues[c.base]
	if !ok {
		q = make(chan simnet.Message, 4096)
		p.queues[c.base] = q
		p.wg.Add(1)
		go p.sender(c, q)
	}
	p.mu.Unlock()
	select {
	case q <- msg:
	default: // backpressure: drop, like a congested link
	}
}

func (p *RelayPool) sender(c *HTTPClient, q chan simnet.Message) {
	defer p.wg.Done()
	for {
		select {
		case <-p.done:
			return
		case msg := <-q:
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = c.Relay(ctx, msg.From, msg.To, msg.Kind, msg.Payload)
			cancel()
		}
	}
}

// Close stops the sender goroutines. Queued messages are discarded —
// indistinguishable from link loss at shutdown.
func (p *RelayPool) Close() {
	p.mu.Lock()
	select {
	case <-p.done:
	default:
		close(p.done)
	}
	p.mu.Unlock()
	p.wg.Wait()
	for _, rt := range p.routes {
		_ = rt.client.Close()
	}
}

// routeMatch matches an endpoint name against a route entry: exact, or
// a dot-separated extension ("orderer2" owns "orderer2.seq" but not
// "orderer20" — plain prefix matching would misroute that).
func routeMatch(name, route string) bool {
	if name == route {
		return true
	}
	return len(name) > len(route)+1 && name[:len(route)] == route && name[len(route)] == '.'
}
