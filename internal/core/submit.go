// Client submissions under execute-order (§3.4.1), and the signature
// check against sys_certs both flows run, with its decoded-key cache.

package core

import (
	"crypto/ed25519"
	"encoding/hex"
	"fmt"

	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
	"bcrdb/internal/types"
)

// onSubmit handles a client submission (fresh=true) or a peer forward
// (execute-order-in-parallel, §3.4.1).
func (n *Node) onSubmit(m simnet.Message, fresh bool) {
	if n.cfg.Flow != ExecuteOrder {
		return // order-then-execute clients talk to the ordering service
	}
	tx, err := ledger.UnmarshalTransaction(m.Payload)
	if err != nil {
		return
	}
	// Authenticate before doing any work (§3.4.1). Certificates are read
	// at the committed height, outside any transaction.
	if err := n.authenticate(tx, n.store.Height()); err != nil {
		if fresh {
			n.notify(TxResult{ID: tx.ID, Reason: "authentication: " + err.Error()}, false)
		}
		return
	}
	if fresh {
		// Forward to the other peers and the ordering service in the
		// background.
		for _, p := range n.cfg.Peers {
			if p != n.cfg.Name {
				_ = n.ep.Send(p, KindForward, m.Payload)
			}
		}
		if len(n.cfg.Orderers) > 0 {
			// The orderer a client's attempt k picks under order-then-
			// execute (transport.Route) when this node is the ring's k-th,
			// so a client's retry to the next node reaches the next orderer.
			nOrd := uint32(len(n.cfg.Orderers))
			target := n.cfg.Orderers[(ordering.FNV1a(tx.ID)%nOrd+n.ordOffset)%nOrd]
			_ = n.ep.Send(target, ordering.KindSubmit, m.Payload)
		}
	}
	n.ensureExecution(tx, tx.Snapshot)
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
