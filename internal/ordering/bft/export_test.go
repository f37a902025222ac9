package bft

// View returns the orderer's current view number.
func (o *Orderer) View() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.view
}
