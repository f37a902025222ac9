package transport

// Relayed reports how many cluster messages arrived via /v1/relay.
func (s *Server) Relayed() int64 { return s.relayed.Load() }
