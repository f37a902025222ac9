// Anti-entropy and orderer failover — the node-level self-healing layer
// (§3.6 node recovery, extended to live networks with lossy links and
// crashing orderers).
//
// Three mechanisms run off one ticker (Config.AntiEntropyEvery):
//
//   - Tip gossip: each tick the node sends its chain tip to ONE rotating
//     peer (KindTipReq); the peer answers with its own (KindTip). Either
//     side that discovers it is behind pulls the missing range. Gossip
//     converges even when the original block delivery — or an earlier
//     catch-up response — was dropped by the network.
//
//   - Catch-up with backoff: missing ranges are requested from ONE
//     rotating source at a time — every other peer, then the delivering
//     orderer's retained window (ordering.KindBlockFetch), the one holder
//     of a block whose delivery was lost on every link — rate-limited
//     with exponential backoff (reset whenever the chain tip makes
//     progress). The previous design broadcast every gap request to every
//     peer, which under loss turned one dropped block into N duplicate
//     full responses.
//
//   - Orderer failover: block deliveries and idle heartbeats
//     (ordering.KindHeartbeat) from the node's delivering orderer refresh
//     a liveness deadline. When the deadline (Config.FailoverTimeout)
//     lapses the node re-subscribes (ordering.KindSubscribe) to the next
//     orderer in its ring and pulls any blocks it missed from its peers.
//     Duplicate deliveries after the old orderer recovers are harmless —
//     onBlock drops blocks at or below the chain tip.
package core

import (
	"sync"
	"time"

	"bcrdb/internal/codec"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
)

// catchUpWindow caps how many blocks one catch-up request asks for; a
// node many thousands of blocks behind heals in successive windows.
const catchUpWindow = 1024

// healState is the self-healing bookkeeping, guarded by its own mutex
// (never held while taking blockMu).
type healState struct {
	mu sync.Mutex

	// Orderer liveness.
	ordererIdx  int       // index into cfg.Orderers of the delivering orderer
	lastOrderer time.Time // last block or heartbeat heard from it

	// Catch-up.
	remoteTip   uint64        // highest chain tip heard from any peer or orderer
	peerRR      int           // rotating cursor over cfg.Peers
	sourceRR    int           // catch-up requests sent; every len(cfg.Peers)-th asks the orderer
	nextReqAt   time.Time     // earliest instant the next range request may go out
	backoff     time.Duration // current request backoff (0 = start fresh)
	reqHeight   uint64        // chain tip when the last request was sent
	behindSince time.Time     // when a gossip-sourced deficit was first seen
}

// currentOrdererLocked returns the delivering orderer's endpoint name.
// Caller holds heal.mu.
func (n *Node) currentOrdererLocked() string {
	if len(n.cfg.Orderers) == 0 {
		return ""
	}
	return n.cfg.Orderers[n.heal.ordererIdx%len(n.cfg.Orderers)]
}

// nextPeerLocked rotates to the next catch-up peer, skipping self.
// Caller holds heal.mu.
func (n *Node) nextPeerLocked() string {
	peers := n.cfg.Peers
	for i := 0; i < len(peers); i++ {
		p := peers[n.heal.peerRR%len(peers)]
		n.heal.peerRR++
		if p != n.cfg.Name {
			return p
		}
	}
	return ""
}

// noteOrdererAlive refreshes the failover deadline when traffic arrives
// from the delivering orderer.
func (n *Node) noteOrdererAlive(from string) {
	n.heal.mu.Lock()
	if from == n.currentOrdererLocked() {
		n.heal.lastOrderer = time.Now()
	}
	n.heal.mu.Unlock()
}

// noteTip records a chain tip heard from elsewhere and, if we are
// behind, attempts a rate-limited catch-up request. urgent marks
// deficit signals that cannot be a propagation race: an out-of-order
// delivery (we hold a future block) or an orderer heartbeat (FIFO links
// mean the advertised block would have arrived before the heartbeat
// unless it was lost). Gossip tips race in-flight deliveries on other
// links, so non-urgent deficits must persist for a full anti-entropy
// tick before a request fires — a healthy fabric stays at zero
// catch-up requests.
func (n *Node) noteTip(tip uint64, urgent bool) {
	n.heal.mu.Lock()
	if tip > n.heal.remoteTip {
		n.heal.remoteTip = tip
	}
	n.heal.mu.Unlock()
	n.maybeCatchUp(time.Now(), urgent)
}

// maybeCatchUp asks one rotating source for the missing range when the
// node is behind the best-known tip, subject to exponential backoff.
// Progress (a higher chain tip than at the previous request) resets the
// backoff; repeated fruitless requests double it up to 8× the
// anti-entropy period.
func (n *Node) maybeCatchUp(now time.Time, urgent bool) {
	h := n.blocks.Height()
	n.heal.mu.Lock()
	tip := n.heal.remoteTip
	if tip <= h {
		n.heal.backoff = 0
		n.heal.behindSince = time.Time{}
		n.heal.mu.Unlock()
		return
	}
	if n.heal.behindSince.IsZero() {
		n.heal.behindSince = now
	}
	if !urgent && now.Sub(n.heal.behindSince) < n.cfg.AntiEntropyEvery {
		n.heal.mu.Unlock()
		return
	}
	if now.Before(n.heal.nextReqAt) {
		n.heal.mu.Unlock()
		return
	}
	base := n.cfg.AntiEntropyEvery
	if n.heal.backoff == 0 || h > n.heal.reqHeight {
		n.heal.backoff = base
	} else if n.heal.backoff < 8*base {
		n.heal.backoff *= 2
	}
	n.heal.reqHeight = h
	n.heal.nextReqAt = now.Add(n.heal.backoff)
	// One stop of the rotation per other peer, then one at the delivering
	// orderer, which re-delivers what it still retains; a node without
	// peers has only the orderer to ask.
	p, kind := "", KindBlockReq
	if n.heal.sourceRR++; n.heal.sourceRR%max(len(n.cfg.Peers), 1) != 0 {
		p = n.nextPeerLocked()
	}
	if p == "" {
		p, kind = n.currentOrdererLocked(), ordering.KindBlockFetch
	}
	n.heal.mu.Unlock()
	if p == "" {
		return
	}
	to := tip
	if to > h+catchUpWindow {
		to = h + catchUpWindow
	}
	e := codec.NewBuf(16)
	e.Uvarint(h + 1)
	e.Uvarint(to)
	_ = n.ep.Send(p, kind, e.Bytes())
	n.metrics.CatchUpRequests.Add(1)
}

// onHeartbeat handles an orderer's idle heartbeat: refresh the failover
// deadline and catch up if the orderer has delivered past our tip. A
// heartbeat from an orderer we no longer deliver from — the old one
// recovering after a failover — is answered with an unsubscribe, so a
// transient failover does not leave the node double-subscribed forever.
func (n *Node) onHeartbeat(m simnet.Message) {
	last, err := ordering.DecodeHeartbeat(m.Payload)
	if err != nil {
		return
	}
	n.heal.mu.Lock()
	cur := n.currentOrdererLocked()
	if m.From == cur {
		n.heal.lastOrderer = time.Now()
	}
	n.heal.mu.Unlock()
	if m.From != cur && cur != "" {
		_ = n.ep.Send(m.From, ordering.KindUnsubscribe, nil)
	}
	n.noteTip(last, true)
}

// onTipReq answers tip gossip with our own tip, and uses the sender's.
func (n *Node) onTipReq(m simnet.Message) {
	d := codec.NewDec(m.Payload)
	theirs := d.Uvarint()
	if d.Done() != nil {
		return
	}
	e := codec.NewBuf(8)
	e.Uvarint(n.blocks.Height())
	_ = n.ep.Send(m.From, KindTip, e.Bytes())
	n.noteTip(theirs, false)
}

// onTip handles a tip gossip answer.
func (n *Node) onTip(m simnet.Message) {
	d := codec.NewDec(m.Payload)
	theirs := d.Uvarint()
	if d.Done() != nil {
		return
	}
	n.noteTip(theirs, false)
}

// antiEntropyLoop is the self-healing ticker.
func (n *Node) antiEntropyLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.AntiEntropyEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stopped:
			return
		case <-t.C:
			now := time.Now()
			n.gossipTip()
			n.checkFailover(now)
			n.maybeCatchUp(now, false)
		}
	}
}

// gossipTip sends our chain tip to one rotating peer.
func (n *Node) gossipTip() {
	n.heal.mu.Lock()
	p := n.nextPeerLocked()
	n.heal.mu.Unlock()
	if p == "" {
		return
	}
	e := codec.NewBuf(8)
	e.Uvarint(n.blocks.Height())
	_ = n.ep.Send(p, KindTipReq, e.Bytes())
}

// checkFailover re-subscribes to the next orderer in the ring when the
// delivering one has been silent past the deadline. With a single
// configured orderer this re-subscribes to the same one, which heals
// the subscription after the orderer restarts.
func (n *Node) checkFailover(now time.Time) {
	if len(n.cfg.Orderers) == 0 {
		return
	}
	n.heal.mu.Lock()
	if now.Sub(n.heal.lastOrderer) <= n.cfg.FailoverTimeout {
		n.heal.mu.Unlock()
		return
	}
	n.heal.ordererIdx = (n.heal.ordererIdx + 1) % len(n.cfg.Orderers)
	n.heal.lastOrderer = now
	n.heal.nextReqAt = now // allow an immediate catch-up request
	target := n.currentOrdererLocked()
	n.heal.mu.Unlock()
	n.metrics.OrdererFailovers.Add(1)
	_ = n.ep.Send(target, ordering.KindSubscribe, nil)
}

// DeliveringOrderer reports which orderer the node currently receives
// block deliveries from (tests, diagnostics).
func (n *Node) DeliveringOrderer() string {
	n.heal.mu.Lock()
	defer n.heal.mu.Unlock()
	return n.currentOrdererLocked()
}
