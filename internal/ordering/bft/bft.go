// Package bft implements the byzantine-fault-tolerant ordering service of
// §4.4 — the BFT-SMaRt substitution — as a from-scratch PBFT state
// machine over the simulated network:
//
//	request → pre-prepare → prepare (2f) → commit (2f+1) → deliver
//
// with n = 3f+1 orderer nodes, Ed25519-signed protocol messages, in-order
// block delivery, and a simplified view change that restores liveness
// after a crashed leader (equivocation within a view is prevented by the
// prepare quorum; the view-change sub-protocol does not carry prepared
// certificates across views, which is sufficient for crash-faulty
// leaders and documented as a simplification in
// docs/adr/0010-substitutions.md).
//
// The quadratic message complexity per block is intrinsic and reproduces
// the throughput decay of Figure 8(b).
package bft

import (
	"fmt"
	"sync"
	"time"

	"bcrdb/internal/codec"
	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
)

// Protocol message kinds.
const (
	kindRequest    = "bft.request"
	kindPrePrepare = "bft.preprepare"
	kindPrepare    = "bft.prepare"
	kindCommit     = "bft.commit"
	kindViewChange = "bft.viewchange"
	// kindWatch tells every replica that client work is pending, so all
	// of them monitor leader progress (PBFT's client-broadcast fallback).
	kindWatch = "bft.watch"
)

// entry is one consensus slot.
type entry struct {
	view     uint64
	block    *ledger.Block
	digest   ledger.Hash
	prepares map[string]bool
	commits  map[string]bool
	sentCm   bool
	done     bool
}

// Orderer is one PBFT ordering node.
type Orderer struct {
	name   string
	idx    int
	all    []string // orderer endpoint names in index order
	n, f   int
	signer *identity.Signer
	reg    *identity.Registry
	ep     *simnet.Endpoint
	dlv    *ordering.Delivery
	cfg    ordering.Config

	mu          sync.Mutex
	view        uint64
	cutter      *ordering.Cutter // leader-side batching
	batchTimer  *time.Timer
	entries     map[uint64]*entry
	deliverNext uint64
	lastHash    ledger.Hash
	vcVotes     map[uint64]map[string]bool
	vcTimer     *time.Timer
	lastWatch   time.Time
	stopped     bool
	done        chan struct{}
	deliverMu   sync.Mutex // orders deliveries; taken under mu, held across the sends

	// held keeps each request this replica received until a delivered
	// block carries its id: adopting a view hands it to the new leader,
	// so a request forwarded to a dead leader is not lost. delivered is
	// every id on the chain; none is held or proposed again. Both under mu.
	held      map[string]*ledger.Transaction
	delivered map[string]bool
}

// New creates and starts a PBFT orderer. all lists every orderer endpoint
// name in index order; idx identifies this node. peers receive delivered
// blocks.
func New(idx int, all []string, signer *identity.Signer, reg *identity.Registry,
	net *simnet.Network, peers []string, cfg ordering.Config) (*Orderer, error) {
	n := len(all)
	if n < 4 {
		return nil, fmt.Errorf("bft: need at least 4 orderers, got %d", n)
	}
	o := &Orderer{
		name:        all[idx],
		idx:         idx,
		all:         append([]string(nil), all...),
		n:           n,
		f:           (n - 1) / 3,
		signer:      signer,
		reg:         reg,
		cfg:         cfg.WithDefaults(),
		cutter:      ordering.NewCutter(cfg),
		entries:     make(map[uint64]*entry),
		held:        make(map[string]*ledger.Transaction),
		delivered:   make(map[string]bool),
		deliverNext: 1,
		vcVotes:     make(map[uint64]map[string]bool),
		done:        make(chan struct{}),
	}
	// The handler goes in once the delivery state it reaches exists.
	ep, err := net.Register(o.name, nil)
	if err != nil {
		return nil, err
	}
	o.ep = ep
	o.dlv = ordering.NewDelivery(o.name, signer, ep, peers)
	ep.SetHandler(o.onMessage)
	go o.dlv.Heartbeats(o.done)
	return o, nil
}

// Stop crashes the orderer.
func (o *Orderer) Stop() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stopped {
		return
	}
	o.stopped = true
	close(o.done)
	o.ep.Stop()
	if o.batchTimer != nil {
		o.batchTimer.Stop()
	}
	if o.vcTimer != nil {
		o.vcTimer.Stop()
	}
}

func (o *Orderer) leaderOf(view uint64) string { return o.all[int(view)%o.n] }

func (o *Orderer) isLeader() bool { return o.leaderOf(o.view) == o.name }

// onMessage dispatches protocol traffic.
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
		o.handleRequest(tx, m.Payload)
	case ordering.KindCheckpoint:
		cp, err := ledger.UnmarshalCheckpoint(m.Payload)
		if err != nil {
			return
		}
		o.handleCheckpoint(cp, m.Payload)
	case kindRequest:
		tx, err := ledger.UnmarshalTransaction(m.Payload)
		if err != nil {
			return
		}
		o.leaderEnqueue(tx)
	case kindPrePrepare:
		o.handlePrePrepare(m)
	case kindPrepare, kindCommit:
		o.handleVote(m)
	case kindViewChange:
		o.handleViewChange(m)
	case kindWatch:
		// Only fellow orderers may arm our liveness timer.
		for _, n := range o.all {
			if n == m.From {
				o.mu.Lock()
				if !o.isLeader() {
					o.armViewChangeTimerLocked()
				}
				o.mu.Unlock()
				break
			}
		}
	}
}

// handleRequest accepts a client/peer submission: every replica holds it
// until it is delivered, leaders enqueue it, followers forward it to the
// current leader and watch the leader's progress.
func (o *Orderer) handleRequest(tx *ledger.Transaction, raw []byte) {
	o.mu.Lock()
	if o.delivered[tx.ID] {
		o.mu.Unlock()
		return
	}
	o.held[tx.ID] = tx
	leader := o.leaderOf(o.view)
	isLeader := leader == o.name
	gossipWatch := !isLeader && o.watchLeaderLocked()
	o.mu.Unlock()
	if isLeader {
		o.leaderEnqueue(tx)
	} else {
		_ = o.ep.Send(leader, kindRequest, raw)
		if gossipWatch {
			o.ep.Broadcast(o.all, kindWatch, nil)
		}
	}
}

// watchLeaderLocked arms a follower's liveness timer, and reports whether
// to tell every replica to watch for leader progress too, so a crashed
// leader is voted out even if only one replica holds client work — at
// most once per block timeout, to keep the O(n) gossip off the hot path.
func (o *Orderer) watchLeaderLocked() bool {
	o.armViewChangeTimerLocked()
	if time.Since(o.lastWatch) < o.cfg.BlockTimeout {
		return false
	}
	o.lastWatch = time.Now()
	return true
}

func (o *Orderer) handleCheckpoint(cp *ledger.Checkpoint, raw []byte) {
	o.mu.Lock()
	leader := o.leaderOf(o.view)
	isLeader := leader == o.name
	if isLeader {
		o.cutter.AddCheckpoint(cp)
	}
	o.mu.Unlock()
	if !isLeader {
		_ = o.ep.Send(leader, ordering.KindCheckpoint, raw)
	}
}

// leaderEnqueue batches a transaction and proposes when full. A replica
// that does not lead holds it instead: a follower that adopted a view
// before its new leader did hands its requests over early.
func (o *Orderer) leaderEnqueue(tx *ledger.Transaction) {
	o.mu.Lock()
	if o.stopped || o.delivered[tx.ID] {
		o.mu.Unlock()
		return
	}
	if !o.isLeader() {
		o.held[tx.ID] = tx
		o.mu.Unlock()
		return
	}
	hadPending := o.cutter.Pending() > 0
	b := o.cutter.AddTx(tx, time.Now().UnixNano())
	if b == nil && !hadPending && o.cutter.Pending() > 0 {
		o.armBatchTimerLocked(o.cutter.NextBlock())
	}
	o.mu.Unlock()
	if b != nil {
		o.propose(b)
	}
}

func (o *Orderer) armBatchTimerLocked(block uint64) {
	if o.batchTimer != nil {
		o.batchTimer.Stop()
	}
	o.batchTimer = time.AfterFunc(o.cfg.BlockTimeout, func() {
		o.mu.Lock()
		if o.stopped || !o.isLeader() {
			o.mu.Unlock()
			return
		}
		b := o.cutter.TimeToCut(block, time.Now().UnixNano())
		o.mu.Unlock()
		if b != nil {
			o.propose(b)
		}
	})
}

// --- pre-prepare ---------------------------------------------------------------

func ppSignBytes(view, seq uint64, digest ledger.Hash) []byte {
	e := codec.NewBuf(64)
	e.String("pp")
	e.Uvarint(view)
	e.Uvarint(seq)
	e.Bytes2(digest[:])
	return e.Bytes()
}

func voteSignBytes(phase string, view, seq uint64, digest ledger.Hash) []byte {
	e := codec.NewBuf(64)
	e.String(phase)
	e.Uvarint(view)
	e.Uvarint(seq)
	e.Bytes2(digest[:])
	return e.Bytes()
}

// propose broadcasts PRE-PREPARE for a freshly cut block.
func (o *Orderer) propose(b *ledger.Block) {
	o.mu.Lock()
	view := o.view
	o.mu.Unlock()

	e := codec.NewBuf(1024)
	e.Uvarint(view)
	e.Uvarint(b.Number)
	e.Bytes2(b.Encode())
	e.Bytes2(o.signer.Sign(ppSignBytes(view, b.Number, b.Hash)))
	payload := e.Bytes()

	// Process our own pre-prepare locally, then broadcast.
	o.acceptPrePrepare(view, b.Number, b, o.name)
	o.ep.Broadcast(o.all, kindPrePrepare, payload)
}

func (o *Orderer) handlePrePrepare(m simnet.Message) {
	d := codec.NewDec(m.Payload)
	view := d.Uvarint()
	seq := d.Uvarint()
	blockBytes := d.Bytes2()
	sig := d.Bytes2()
	if d.Done() != nil {
		return
	}
	b, err := ledger.DecodeBlock(blockBytes)
	if err != nil {
		return
	}
	leader := o.leaderOf(view)
	if m.From != leader {
		return // only the view's leader may pre-prepare
	}
	if err := o.reg.VerifyBy(leader, ppSignBytes(view, seq, b.Hash), sig); err != nil {
		return
	}
	o.acceptPrePrepare(view, seq, b, m.From)
}

// acceptPrePrepare records the proposal and emits our PREPARE.
func (o *Orderer) acceptPrePrepare(view, seq uint64, b *ledger.Block, from string) {
	o.mu.Lock()
	if o.stopped || view != o.view || seq < o.deliverNext {
		o.mu.Unlock()
		return
	}
	ent := o.entries[seq]
	switch {
	case ent != nil && ent.view == view && ent.block != nil:
		o.mu.Unlock()
		return // duplicate
	case ent != nil && ent.view == view && ent.digest == b.Hash:
		// Votes arrived before the pre-prepare: attach the block to the
		// accumulated shell.
		ent.block = b
	default:
		ent = &entry{view: view, block: b, digest: b.Hash,
			prepares: make(map[string]bool), commits: make(map[string]bool)}
		o.entries[seq] = ent
	}
	ent.prepares[o.name] = true
	o.mu.Unlock()

	e := codec.NewBuf(64)
	e.Uvarint(view)
	e.Uvarint(seq)
	e.Bytes2(b.Hash[:])
	e.Bytes2(o.signer.Sign(voteSignBytes("pr", view, seq, b.Hash)))
	o.ep.Broadcast(o.all, kindPrepare, e.Bytes())
	o.checkProgress(seq)
}

// handleVote processes PREPARE and COMMIT messages.
func (o *Orderer) handleVote(m simnet.Message) {
	d := codec.NewDec(m.Payload)
	view := d.Uvarint()
	seq := d.Uvarint()
	dig := d.Bytes2()
	sig := d.Bytes2()
	if d.Done() != nil || len(dig) != 32 {
		return
	}
	var digest ledger.Hash
	copy(digest[:], dig)

	phase := "pr"
	if m.Kind == kindCommit {
		phase = "cm"
	}
	if err := o.reg.VerifyBy(m.From, voteSignBytes(phase, view, seq, digest), sig); err != nil {
		return
	}

	o.mu.Lock()
	if o.stopped || view != o.view {
		o.mu.Unlock()
		return
	}
	ent := o.entries[seq]
	if ent == nil {
		// Vote before pre-prepare: create a shell to accumulate.
		ent = &entry{view: view, digest: digest,
			prepares: make(map[string]bool), commits: make(map[string]bool)}
		o.entries[seq] = ent
	}
	if ent.digest != digest && ent.block != nil {
		o.mu.Unlock()
		return // conflicting digest; ignore (equivocation evidence)
	}
	if m.Kind == kindPrepare {
		ent.prepares[m.From] = true
	} else {
		ent.commits[m.From] = true
	}
	o.mu.Unlock()
	o.checkProgress(seq)
}

// checkProgress advances the three-phase state machine for a slot.
func (o *Orderer) checkProgress(seq uint64) {
	o.mu.Lock()
	ent := o.entries[seq]
	if ent == nil || ent.block == nil || o.stopped {
		o.mu.Unlock()
		return
	}
	// Prepared: pre-prepare + 2f distinct prepares (self included).
	if !ent.sentCm && len(ent.prepares) >= 2*o.f {
		ent.sentCm = true
		ent.commits[o.name] = true
		view, digest := ent.view, ent.digest
		o.mu.Unlock()
		e := codec.NewBuf(64)
		e.Uvarint(view)
		e.Uvarint(seq)
		e.Bytes2(digest[:])
		e.Bytes2(o.signer.Sign(voteSignBytes("cm", view, seq, digest)))
		o.ep.Broadcast(o.all, kindCommit, e.Bytes())
		o.mu.Lock()
	}
	// Committed: 2f+1 distinct commits.
	var toDeliver []*ledger.Block
	for {
		ent := o.entries[o.deliverNext]
		if ent == nil || ent.block == nil || ent.done || len(ent.commits) < 2*o.f+1 {
			break
		}
		ent.done = true
		toDeliver = append(toDeliver, ent.block)
		o.lastHash = ent.block.Hash
		for _, tx := range ent.block.Txs {
			o.delivered[tx.ID] = true
			delete(o.held, tx.ID)
		}
		delete(o.entries, o.deliverNext)
		o.deliverNext++
		if o.vcTimer != nil {
			o.vcTimer.Stop() // progress: disarm the view-change timer
			o.vcTimer = nil
		}
	}
	// Take deliverMu before releasing mu: two link goroutines that each
	// collected a batch then ship them in collection order, not in
	// whichever order they happen to run.
	o.deliverMu.Lock()
	o.mu.Unlock()
	for _, b := range toDeliver {
		o.dlv.Deliver(b)
	}
	o.deliverMu.Unlock()
}

// --- view change -------------------------------------------------------------------

// armViewChangeTimerLocked starts the liveness timer: if the leader makes
// no progress, vote to move to the next view.
func (o *Orderer) armViewChangeTimerLocked() {
	if o.vcTimer != nil {
		return // already armed
	}
	timeout := 10 * o.cfg.BlockTimeout
	o.vcTimer = time.AfterFunc(timeout, func() {
		o.mu.Lock()
		if o.stopped {
			o.mu.Unlock()
			return
		}
		next := o.view + 1
		o.vcTimer = nil
		o.mu.Unlock()
		o.voteViewChange(next)
	})
}

func vcSignBytes(view uint64) []byte {
	e := codec.NewBuf(16)
	e.String("vc")
	e.Uvarint(view)
	return e.Bytes()
}

func (o *Orderer) voteViewChange(newView uint64) {
	e := codec.NewBuf(32)
	e.Uvarint(newView)
	e.Bytes2(o.signer.Sign(vcSignBytes(newView)))
	payload := e.Bytes()
	o.recordViewChangeVote(newView, o.name)
	o.ep.Broadcast(o.all, kindViewChange, payload)
}

func (o *Orderer) handleViewChange(m simnet.Message) {
	d := codec.NewDec(m.Payload)
	newView := d.Uvarint()
	sig := d.Bytes2()
	if d.Done() != nil {
		return
	}
	if err := o.reg.VerifyBy(m.From, vcSignBytes(newView), sig); err != nil {
		return
	}
	o.recordViewChangeVote(newView, m.From)
}

func (o *Orderer) recordViewChangeVote(newView uint64, from string) {
	o.mu.Lock()
	if o.stopped || newView <= o.view {
		o.mu.Unlock()
		return
	}
	votes := o.vcVotes[newView]
	if votes == nil {
		votes = make(map[string]bool)
		o.vcVotes[newView] = votes
	}
	votes[from] = true

	// Echo our own vote once we see f+1 others wanting the change.
	if !votes[o.name] && len(votes) > o.f {
		votes[o.name] = true
		o.mu.Unlock()
		e := codec.NewBuf(32)
		e.Uvarint(newView)
		e.Bytes2(o.signer.Sign(vcSignBytes(newView)))
		o.ep.Broadcast(o.all, kindViewChange, e.Bytes())
		o.mu.Lock()
	}

	if len(votes) < 2*o.f+1 {
		o.mu.Unlock()
		return
	}
	// Adopt the new view: the new leader re-proposes undelivered
	// proposals and what it holds; every other replica hands it what it
	// holds.
	o.view = newView
	delete(o.vcVotes, newView)
	var recycled []*ledger.Transaction
	for seq, ent := range o.entries {
		if ent.block != nil {
			recycled = append(recycled, ent.block.Txs...)
		}
		delete(o.entries, seq)
	}
	held := make([]*ledger.Transaction, 0, len(o.held))
	for _, tx := range o.held {
		held = append(held, tx)
	}
	if !o.isLeader() {
		leader := o.leaderOf(newView)
		gossipWatch := len(held) > 0 && o.watchLeaderLocked()
		o.mu.Unlock()
		for _, tx := range held {
			_ = o.ep.Send(leader, kindRequest, ledger.MarshalTransaction(tx))
		}
		if gossipWatch {
			o.ep.Broadcast(o.all, kindWatch, nil)
		}
		return
	}
	o.cutter = o.newCutterLocked()
	for _, tx := range append(recycled, held...) {
		if b := o.cutter.AddTx(tx, time.Now().UnixNano()); b != nil {
			o.mu.Unlock()
			o.propose(b)
			o.mu.Lock()
		}
	}
	if o.cutter.Pending() > 0 {
		o.armBatchTimerLocked(o.cutter.NextBlock())
	}
	o.mu.Unlock()
}

// newCutterLocked builds a leader cutter positioned at the current chain
// tip.
func (o *Orderer) newCutterLocked() *ordering.Cutter {
	c := ordering.NewCutter(o.cfg)
	c.Reset(o.deliverNext, o.lastHash)
	return c
}
