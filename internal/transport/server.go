package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bcrdb/internal/engine"
	"bcrdb/internal/ledger"
	"bcrdb/internal/simnet"
)

// Server limits and deadlines. Connection slots bound the damage a
// misbehaving client can do; request deadlines bound how long one can
// hold a slot. The commit stream is exempt from the request deadline
// (it is long-lived by design) but still occupies a connection slot.
const (
	maxConns       = 256              // concurrently open client connections
	requestTimeout = 10 * time.Second // each non-streaming request, both ends
	maxBodyBytes   = 4 << 20          // transactions and queries are small; 4 MiB is generous
)

// ServerConfig configures one node's wire endpoint.
type ServerConfig struct {
	Node NodeBackend
	// Route says where submissions go; Network sets it.
	Route Route

	// Net is the process-local message fabric. Submissions enter it via
	// the server-owned endpoint "rpc.<org>"; /v1/relay injects cluster
	// traffic into it.
	Net *simnet.Network

	// Listen is the TCP address to bind, e.g. "127.0.0.1:7061" or ":0".
	Listen string
}

// Server serves the bcrdb wire protocol for one node.
type Server struct {
	cfg ServerConfig
	ep  *simnet.Endpoint
	ln  net.Listener
	hs  *http.Server

	relayed  atomic.Int64 // messages injected via /v1/relay
	rejected atomic.Int64 // requests rejected as malformed

	closeOnce sync.Once
	closeErr  error
}

// NewServer binds the listen address and starts serving. The returned
// server is live; call Close to stop it.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Node == nil || cfg.Net == nil {
		return nil, errors.New("transport: ServerConfig needs Node and Net")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	s := &Server{cfg: cfg}

	ep, err := cfg.Net.Register("rpc."+cfg.Node.Org(), func(simnet.Message) {})
	if err != nil {
		return nil, err
	}
	s.ep = ep

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		ep.Unregister()
		return nil, err
	}
	s.ln = &limitListener{Listener: ln, sem: make(chan struct{}, maxConns), closed: make(chan struct{})}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/info", s.timed(s.handleInfo))
	mux.HandleFunc("POST /v1/submit", s.timed(s.handleSubmit))
	mux.HandleFunc("POST /v1/query", s.timed(s.handleQuery))
	mux.HandleFunc("POST /v1/relay", s.timed(s.handleRelay))
	mux.HandleFunc("GET /v1/commits", s.handleCommits) // long-lived: no request deadline

	s.hs = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = s.hs.Serve(s.ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the base URL clients should dial.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Rejected reports how many requests were rejected as malformed.
func (s *Server) Rejected() int64 { return s.rejected.Load() }

// Close stops the listener, drops open streams and unregisters the
// server's fabric endpoint. Safe to call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		// Brief grace for in-flight unary requests; commit streams never
		// finish on their own, so cut whatever remains after it.
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		err := s.hs.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) {
			err = s.hs.Close()
		}
		s.closeErr = err
		s.ep.Unregister()
	})
	return s.closeErr
}

// timed wraps a handler with the per-request deadline and body cap.
func (s *Server) timed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), requestTimeout)
		defer cancel()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		h(w, r.WithContext(ctx))
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	if status == http.StatusBadRequest {
		s.rejected.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, nodeInfo(s.cfg.Node, s.cfg.Route))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad submit body: %v", err)
		return
	}
	if len(req.Tx) == 0 {
		s.fail(w, http.StatusBadRequest, "empty transaction")
		return
	}
	if req.Attempt < 0 {
		s.fail(w, http.StatusBadRequest, "negative attempt %d", req.Attempt)
		return
	}
	// Decode before routing: a transaction that does not parse is
	// rejected at the boundary instead of poisoning the fabric, and a
	// parsed id is needed for order-execute routing anyway. The bytes
	// forwarded are the client's original — signatures stay intact.
	tx, err := ledger.UnmarshalTransaction(req.Tx)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad transaction: %v", err)
		return
	}
	if tx.ID == "" || tx.Username == "" || len(tx.Signature) == 0 {
		s.fail(w, http.StatusBadRequest, "transaction missing id, user or signature")
		return
	}
	to, kind := s.cfg.Route.Dest(tx.ID, req.Attempt)
	if err := s.ep.Send(to, kind, req.Tx); err != nil {
		s.fail(w, http.StatusServiceUnavailable, "submit: %v", err)
		return
	}
	writeJSON(w, submitResponse{ID: tx.ID})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad query body: %v", err)
		return
	}
	if req.SQL == "" {
		s.fail(w, http.StatusBadRequest, "empty sql")
		return
	}
	params, err := decodeParams(req.Params)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad params: %v", err)
		return
	}
	var res *engine.Result
	if req.Height < 0 {
		res, err = s.cfg.Node.Query(req.SQL, params...)
	} else {
		res, err = s.cfg.Node.QueryAt(req.Height, req.SQL, params...)
	}
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, "query: %v", err)
		return
	}
	writeJSON(w, encodeResult(res))
}

func (s *Server) handleRelay(w http.ResponseWriter, r *http.Request) {
	var req relayRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad relay body: %v", err)
		return
	}
	if req.To == "" || req.Kind == "" {
		s.fail(w, http.StatusBadRequest, "relay missing to or kind")
		return
	}
	// Delivery failures are deliberately not errors: a relayed message
	// to a crashed endpoint behaves like a dropped packet, which the
	// self-healing layer (anti-entropy, client retry) already absorbs.
	_ = s.cfg.Net.Inject(req.From, req.To, req.Kind, req.Payload)
	s.relayed.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCommits(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	src := s.cfg.Node.SubscribeAll()
	defer s.cfg.Node.UnsubscribeAll(src)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	// Hello line: lets the client confirm the stream is live before
	// submitting, and carries the node name for sanity checks.
	if err := enc.Encode(wireCommit{}); err != nil {
		return
	}
	fl.Flush()

	keepalive := time.NewTicker(2 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case res := <-src:
			if err := enc.Encode(wireCommit{
				ID:        res.ID,
				Block:     res.Block,
				Committed: res.Committed,
				Reason:    res.Reason,
			}); err != nil {
				return
			}
			fl.Flush()
		case <-keepalive.C:
			// Empty object: detected write errors tear the stream down
			// even when no commits flow.
			if err := enc.Encode(wireCommit{}); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// limitListener caps concurrently accepted connections. Accept blocks
// once the cap is reached — pending dials queue in the kernel backlog
// until a slot frees, mirroring a bounded server worker pool. closed
// aborts the slot wait, or http.Server.Shutdown would hang on a full
// listener (it waits for the accept loop to exit).
type limitListener struct {
	net.Listener
	sem    chan struct{}
	closed chan struct{}
}

func (l *limitListener) Accept() (net.Conn, error) {
	select {
	case l.sem <- struct{}{}:
	case <-l.closed:
		return nil, net.ErrClosed
	}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.sem
		return nil, err
	}
	return &limitConn{Conn: c, release: func() { <-l.sem }}, nil
}

func (l *limitListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return l.Listener.Close()
}

type limitConn struct {
	net.Conn
	once    sync.Once
	release func()
}

func (c *limitConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.release)
	return err
}
