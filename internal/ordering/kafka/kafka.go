// Package kafka implements the crash-fault-tolerant ordering service of
// §4.4: orderer nodes publish transactions and time-to-cut markers to a
// totally ordered topic (the Kafka+ZooKeeper cluster, simulated here as a
// trusted in-process sequencer) and independently cut identical blocks
// from the topic stream.
//
// Substitution note (docs/adr/0010-substitutions.md): the real system trusts the Kafka cluster
// to order and retain messages across orderer crashes; Topic provides
// exactly those guarantees. Orderer nodes remain untrusted by peers —
// each signs the blocks it delivers.
package kafka

import (
	"sync"
	"time"

	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
)

// msgKind tags topic records.
type msgKind uint8

const (
	msgTx msgKind = iota
	msgTTC
	msgCheckpoint
)

// record is one entry of the totally ordered topic.
type record struct {
	kind msgKind
	tx   *ledger.Transaction
	ttc  uint64
	cp   *ledger.Checkpoint
	ts   int64 // sequencer timestamp: identical for all consumers
}

// Topic is the trusted totally-ordered log. Every subscriber observes the
// same records in the same order with the same timestamps.
type Topic struct {
	mu      sync.Mutex
	subs    map[int]chan record
	nextSub int
}

// NewTopic returns an empty topic.
func NewTopic() *Topic {
	return &Topic{subs: make(map[int]chan record)}
}

// subscribe returns an ordered stream of all future records and the
// subscription id for unsubscribe.
func (t *Topic) subscribe() (int, chan record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextSub
	t.nextSub++
	ch := make(chan record, 65536)
	t.subs[id] = ch
	return id, ch
}

// unsubscribe detaches a crashed consumer so it cannot stall the topic.
func (t *Topic) unsubscribe(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.subs, id)
}

func (t *Topic) publish(r record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.ts = time.Now().UnixNano()
	for _, ch := range t.subs {
		ch <- r // buffered; a stalled consumer blocks the topic like a slow Kafka consumer group member
	}
}

// Orderer is one ordering-service node. It receives transactions and
// checkpoints from peers over the network, publishes them to the topic,
// consumes the topic, cuts blocks and delivers them (signed) to its
// connected peers.
type Orderer struct {
	name  string
	topic TopicRef
	cfg   ordering.Config
	ep    *simnet.Endpoint
	dlv   *ordering.Delivery

	mu      sync.Mutex
	cutter  *ordering.Cutter
	timer   *time.Timer
	stopped bool
	done    chan struct{}
	subID   int
}

// NewOrderer creates and starts an orderer node attached to the topic —
// the in-process *Topic, or a *TopicClient reaching a topic hosted in
// another process. peers are the endpoint names this orderer delivers
// blocks to.
func NewOrderer(name string, signer *identity.Signer, topic TopicRef, net *simnet.Network, peers []string, cfg ordering.Config) (*Orderer, error) {
	o := &Orderer{
		name:   name,
		topic:  topic,
		cfg:    cfg.WithDefaults(),
		cutter: ordering.NewCutter(cfg),
		done:   make(chan struct{}),
	}
	// The handler goes in once the delivery state it reaches exists.
	ep, err := net.Register(name, nil)
	if err != nil {
		return nil, err
	}
	o.ep = ep
	o.dlv = ordering.NewDelivery(name, signer, ep, peers)
	ep.SetHandler(o.onMessage)
	id, ch := topic.subscribe()
	o.subID = id
	go o.consume(ch)
	go o.dlv.Heartbeats(o.done)
	return o, nil
}

// Stop halts the orderer (crash simulation).
func (o *Orderer) Stop() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stopped {
		return
	}
	o.stopped = true
	close(o.done)
	o.ep.Stop()
	o.topic.unsubscribe(o.subID)
	if o.timer != nil {
		o.timer.Stop()
	}
}

// onMessage handles peer traffic: delivery requests are answered here,
// everything else is published to the topic.
func (o *Orderer) onMessage(m simnet.Message) {
	if o.dlv.Handle(m) {
		return
	}
	switch m.Kind {
	case ordering.KindSubmit:
		tx, err := ledger.UnmarshalTransaction(m.Payload)
		if err != nil {
			return
		}
		o.topic.publish(record{kind: msgTx, tx: tx})
	case ordering.KindCheckpoint:
		cp, err := ledger.UnmarshalCheckpoint(m.Payload)
		if err != nil {
			return
		}
		o.topic.publish(record{kind: msgCheckpoint, cp: cp})
	}
}

// consume drives the cutter from the topic stream.
func (o *Orderer) consume(ch chan record) {
	for {
		select {
		case <-o.done:
			return
		case r := <-ch:
			o.mu.Lock()
			var blocks []*ledger.Block
			switch r.kind {
			case msgTx:
				hadPending := o.cutter.Pending() > 0
				if b := o.cutter.AddTx(r.tx, r.ts); b != nil {
					blocks = append(blocks, b)
				} else if !hadPending && o.cutter.Pending() > 0 {
					o.armTimerLocked(o.cutter.NextBlock())
				}
			case msgTTC:
				if b := o.cutter.TimeToCut(r.ttc, r.ts); b != nil {
					blocks = append(blocks, b)
				}
			case msgCheckpoint:
				o.cutter.AddCheckpoint(r.cp)
			}
			// Rearm the timer when transactions remain pending.
			if len(blocks) > 0 && o.cutter.Pending() > 0 {
				o.armTimerLocked(o.cutter.NextBlock())
			}
			o.mu.Unlock()
			for _, b := range blocks {
				o.dlv.Deliver(b)
			}
		}
	}
}

// armTimerLocked schedules a time-to-cut for the given block number.
func (o *Orderer) armTimerLocked(block uint64) {
	if o.stopped {
		return
	}
	if o.timer != nil {
		o.timer.Stop()
	}
	o.timer = time.AfterFunc(o.cfg.BlockTimeout, func() {
		o.mu.Lock()
		stopped := o.stopped
		o.mu.Unlock()
		if !stopped {
			o.topic.publish(record{kind: msgTTC, ttc: block})
		}
	})
}
