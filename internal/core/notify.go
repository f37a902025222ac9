// Commit notifications (§2 step 7): SubscribeAll is the only path by
// which a transaction's result leaves the node.

package core

// SubscribeAll returns a channel receiving every transaction result.
func (n *Node) SubscribeAll() <-chan TxResult {
	ch := make(chan TxResult, 4096)
	n.subMu.Lock()
	n.allCh = append(n.allCh, ch)
	n.subMu.Unlock()
	return ch
}

// UnsubscribeAll removes a SubscribeAll registration. Transport servers
// subscribe one channel per connected commit-stream client; without this
// a dropped subscriber would leave its channel registered forever.
func (n *Node) UnsubscribeAll(ch <-chan TxResult) {
	n.subMu.Lock()
	for i, c := range n.allCh {
		if (<-chan TxResult)(c) == ch {
			n.allCh = append(n.allCh[:i], n.allCh[i+1:]...)
			break
		}
	}
	n.subMu.Unlock()
}

func (n *Node) notify(r TxResult, replay bool) {
	if replay {
		return
	}
	n.subMu.Lock()
	all := append([]chan TxResult(nil), n.allCh...)
	n.subMu.Unlock()
	for _, ch := range all {
		select {
		case ch <- r:
		default:
		}
	}
}
