// Block intake: message dispatch, sequencing of delivered blocks into
// the processor, and the catch-up requests this node serves and primes
// (§3.6; steady-state catch-up is antientropy.go).

package core

import (
	"bcrdb/internal/codec"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
)

func (n *Node) onMessage(m simnet.Message) {
	select {
	case <-n.stopped:
		return
	default:
	}
	switch m.Kind {
	case ordering.KindBlock:
		n.onBlock(m)
	case KindSubmit:
		n.onSubmit(m, true)
	case KindForward:
		n.onSubmit(m, false)
	case KindBlockReq:
		n.onBlockReq(m)
	case KindBlockResp:
		n.onBlock(m)
	case ordering.KindHeartbeat:
		n.onHeartbeat(m)
	case KindTipReq:
		n.onTipReq(m)
	case KindTip:
		n.onTip(m)
	}
}

// onBlock sequences an incoming block (orderer delivery or catch-up
// response).
func (n *Node) onBlock(m simnet.Message) {
	b, err := ledger.DecodeBlock(m.Payload)
	if err != nil {
		return
	}
	// Verify the delivering orderer's (or relaying peer's stored
	// orderer) signature: the block must carry at least one signature
	// from a known orderer over its hash (§3.1).
	okSig := false
	for _, s := range b.Sigs {
		if err := n.netReg.VerifyBy(s.Orderer, b.Hash[:], s.Signature); err == nil {
			okSig = true
			break
		}
	}
	if !okSig {
		return
	}
	n.metrics.BlocksReceived.Add(1)
	// A block from the delivering orderer proves its liveness.
	n.noteOrdererAlive(m.From)
	// Warm the execute stage's signature checks for a new block (prewarm.go).
	if b.Number > n.blocks.Height() {
		n.prewarmBlock(b)
	}

	gap := false
	var tip uint64
	n.blockMu.Lock()
loop:
	for {
		h := n.blocks.Height()
		switch {
		case b.Number <= h:
			break loop // duplicate
		case b.Number == h+1:
			if err := n.blocks.Append(b); err != nil {
				break loop // linkage or hash failure: reject
			}
			select {
			case n.blockCh <- b:
			case <-n.stopped:
				break loop
			}
			next, ok := n.pending[b.Number+1]
			if !ok {
				break loop
			}
			delete(n.pending, b.Number+1)
			b = next
		default:
			// Buffer near-future blocks; anything beyond the bound is
			// dropped (the tip is remembered and the range re-requested,
			// so a burst of far-future deliveries cannot exhaust memory).
			if b.Number <= h+1+pendingAhead {
				n.pending[b.Number] = b
			}
			gap, tip = true, b.Number
			break loop
		}
	}
	n.blockMu.Unlock()
	if gap {
		// Ask ONE rotating peer for the missing range, rate-limited with
		// exponential backoff — not a broadcast to every peer.
		n.noteTip(tip, true)
	}
}

// onBlockReq serves missing blocks to a catching-up peer (§3.6): the
// encodings the block store keeps, sent as they are.
func (n *Node) onBlockReq(m simnet.Message) {
	d := codec.NewDec(m.Payload)
	from := d.Uvarint()
	to := d.Uvarint()
	if d.Done() != nil || to < from || to-from > 10000 {
		return
	}
	for i := from; i <= to; i++ {
		enc, err := n.blocks.Encoded(i)
		if err != nil {
			return
		}
		_ = n.ep.Send(m.From, KindBlockResp, enc)
	}
}

// requestCatchUp primes recovery after a (re)start: probe every peer's
// chain tip (tiny messages) and blind-request a first range from one
// rotating peer. Steady-state catch-up is the anti-entropy loop's job.
func (n *Node) requestCatchUp() {
	h := n.blocks.Height()
	tip := codec.NewBuf(8)
	tip.Uvarint(h)
	for _, p := range n.cfg.Peers {
		if p != n.cfg.Name {
			_ = n.ep.Send(p, KindTipReq, tip.Bytes())
		}
	}
	n.heal.mu.Lock()
	p := n.nextPeerLocked()
	n.heal.mu.Unlock()
	if p == "" {
		return
	}
	e := codec.NewBuf(16)
	e.Uvarint(h + 1)
	e.Uvarint(h + catchUpWindow)
	_ = n.ep.Send(p, KindBlockReq, e.Bytes())
	n.metrics.CatchUpRequests.Add(1)
}
