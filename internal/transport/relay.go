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
// registered locally goes to the peer process that declared that
// endpoint name, POSTed to its /v1/relay.
//
// Each destination gets one ordered queue drained by one sender
// goroutine — simnet links are FIFO and the relay must not reorder what
// the fabric guarantees (block delivery, consensus votes). Delivery is
// best-effort: a full queue or failed POST is a dropped packet,
// which the self-healing layer (anti-entropy catch-up, client retry)
// recovers from, exactly as it does for injected link faults.
type RelayPool struct {
	owners map[string]*HTTPClient // endpoint name → its process's client
	mu     sync.Mutex
	queues map[string]chan simnet.Message
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewRelayPool returns a pool with no routes; AddRoute adds them.
func NewRelayPool() *RelayPool {
	return &RelayPool{
		owners: make(map[string]*HTTPClient),
		queues: make(map[string]chan simnet.Message),
		done:   make(chan struct{}),
	}
}

// AddRoute declares that the named endpoints live in the process at
// baseURL. Add every route before installing the Gateway, which reads
// them without a lock.
func (p *RelayPool) AddRoute(baseURL string, endpoints ...string) {
	c := Dial(baseURL)
	for _, name := range endpoints {
		p.owners[name] = c
	}
}

// Gateway returns the function to install via simnet.SetGateway.
func (p *RelayPool) Gateway() simnet.Gateway {
	return func(msg simnet.Message) error {
		c, ok := p.owners[msg.To]
		if !ok {
			return simnet.ErrUnknownPeer
		}
		p.enqueue(c, msg)
		return nil
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
	for _, c := range p.owners {
		_ = c.Close() // idempotent; a process hosting several endpoints repeats it
	}
}
