package simnet

// EndpointStopped reports whether the named endpoint is currently down.
func (n *Network) EndpointStopped(name string) bool {
	n.mu.RLock()
	ep := n.endpoints[name]
	n.mu.RUnlock()
	return ep != nil && ep.stopped.Load()
}
