// Client submissions under execute-order (§3.4.1), and the signature
// check against sys_certs both flows run, with its decoded-key cache.
//
// A client submission is checked at the door before it is forwarded or
// executed. The link that delivers it only decodes it and hands it to
// the node's one door goroutine, which gathers submissions for up to
// doorWindow or until prewarmChunkFloor have arrived, checks their
// signatures with one batch equation into the verification memo
// (verifySignatures), and then admits them in arrival order through
// authenticate, which reads each verdict back from the memo. A batch of
// 32 by one key costs about a third of 32 single checks; a lone
// submission waits the window. A peer's forward is authenticated inline:
// the door that forwarded it has already filled the memo.

package core

import (
	"crypto/ed25519"
	"encoding/hex"
	"fmt"
	"time"

	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
	"bcrdb/internal/types"
)

// doorWindow is how long the door waits for more submissions after the
// first one of a batch arrives. On transfer-eo-mixed 5 ms cut
// cpu_us_per_op by 18 % and added about 3 ms to the median commit
// latency (ADR-0011); a 1 ms window showed no gain.
const doorWindow = 5 * time.Millisecond

// submission is a decoded client transaction waiting at the door, with
// the bytes it arrived in, which are forwarded unchanged.
type submission struct {
	tx      *ledger.Transaction
	payload []byte
}

// onSubmit handles a client submission (fresh=true), which goes to the
// door, or a peer forward (execute-order-in-parallel, §3.4.1).
func (n *Node) onSubmit(m simnet.Message, fresh bool) {
	if n.cfg.Flow != ExecuteOrder {
		return // order-then-execute clients talk to the ordering service
	}
	tx, err := ledger.UnmarshalTransaction(m.Payload)
	if err != nil {
		return
	}
	if fresh {
		select {
		case n.doorCh <- submission{tx, m.Payload}:
		case <-n.stopped:
		}
		return
	}
	// Authenticate before doing any work (§3.4.1). Certificates are read
	// at the committed height, outside any transaction.
	if err := n.authenticate(tx, n.store.Height()); err != nil {
		return
	}
	n.ensureExecution(tx, tx.Snapshot)
}

// doorLoop is the door: it takes the first waiting submission, gathers
// more until the window closes or a chunk's worth has arrived, and
// admits the batch.
func (n *Node) doorLoop() {
	defer n.wg.Done()
	batch := make([]submission, 0, prewarmChunkFloor)
	for {
		select {
		case s := <-n.doorCh:
			batch = append(batch[:0], s)
		case <-n.stopped:
			return
		}
		window := time.NewTimer(doorWindow)
	gather:
		for len(batch) < prewarmChunkFloor {
			select {
			case s := <-n.doorCh:
				batch = append(batch, s)
			case <-window.C:
				break gather
			case <-n.stopped:
				window.Stop()
				return
			}
		}
		window.Stop()
		n.admit(batch)
	}
}

// admit checks a door batch's signatures with one equation, then
// authenticates each submission in arrival order: a refused one is
// answered and dropped, an accepted one is forwarded to the other peers
// and one orderer and executed.
func (n *Node) admit(batch []submission) {
	height := n.store.Height()
	txs := make([]*ledger.Transaction, len(batch))
	for i, s := range batch {
		txs[i] = s.tx
	}
	n.verifySignatures(txs, height)
	for _, s := range batch {
		tx := s.tx
		if err := n.authenticate(tx, height); err != nil {
			n.notify(TxResult{ID: tx.ID, Reason: "authentication: " + err.Error()}, false)
			continue
		}
		for _, p := range n.cfg.Peers {
			if p != n.cfg.Name {
				_ = n.ep.Send(p, KindForward, s.payload)
			}
		}
		if len(n.cfg.Orderers) > 0 {
			// The orderer a client's attempt k picks under order-then-
			// execute (transport.Route) when this node is the ring's k-th,
			// so a client's retry to the next node reaches the next orderer.
			nOrd := uint32(len(n.cfg.Orderers))
			target := n.cfg.Orderers[(ordering.FNV1a(tx.ID)%nOrd+n.ordOffset)%nOrd]
			_ = n.ep.Send(target, ordering.KindSubmit, s.payload)
		}
		n.ensureExecution(tx, tx.Snapshot)
	}
}

// authenticate verifies the client signature against sys_certs as of the
// given height.
func (n *Node) authenticate(tx *ledger.Transaction, height int64) error {
	key, err := n.certKeyAt(tx.Username, height)
	if err != nil {
		return err
	}
	if !identity.VerifyCached(key, tx.SignBytes(), tx.Signature) {
		return fmt.Errorf("signature verification failed for %q", tx.Username)
	}
	return nil
}

// certCacheEntry is a decoded public key plus the validity guards: the
// certsEpoch it was read under and the height it was read at.
type certCacheEntry struct {
	key    ed25519.PublicKey
	height int64
	epoch  uint64
}

// certKeyAt resolves a user's public key as of the given height,
// consulting the decoded-key cache. A hit requires the current
// certsEpoch (no sys_certs write committed since the entry was read)
// and height >= the entry's read height (a lower height could precede a
// cert change that the entry already reflects).
func (n *Node) certKeyAt(user string, height int64) (ed25519.PublicKey, error) {
	epoch := n.certsEpoch.Load()
	n.certMu.Lock()
	if e, ok := n.certCache[user]; ok && e.epoch == epoch && height >= e.height {
		n.certMu.Unlock()
		return e.key, nil
	}
	n.certMu.Unlock()

	res, err := n.QueryAt(height, `SELECT pubkey FROM sys_certs WHERE name = $1`,
		types.NewString(user))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("unknown user %q", user)
	}
	keyHex := res.Rows[0][0].Str()
	key, err := hex.DecodeString(keyHex)
	if err != nil || len(key) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("bad public key for %q", user)
	}
	n.certMu.Lock()
	n.certCache[user] = certCacheEntry{key: key, height: height, epoch: epoch}
	n.certMu.Unlock()
	return key, nil
}
