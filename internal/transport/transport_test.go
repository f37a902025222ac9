package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcrdb/internal/core"
	"bcrdb/internal/engine"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
	"bcrdb/internal/types"
)

// fakeNode implements NodeBackend for boundary tests without a fabric.
type fakeNode struct {
	mu   sync.Mutex
	subs []chan core.TxResult
}

func (f *fakeNode) Name() string        { return "db.test" }
func (f *fakeNode) Org() string         { return "test" }
func (f *fakeNode) Height() int64       { return 7 }
func (f *fakeNode) SealedHeight() int64 { return 7 }

func (f *fakeNode) Query(sql string, params ...types.Value) (*engine.Result, error) {
	if strings.Contains(sql, "boom") {
		return nil, fmt.Errorf("no such table")
	}
	return &engine.Result{Cols: []string{"echo"}, Rows: []types.Row{append(types.Row{types.NewString(sql)}, params...)}}, nil
}

func (f *fakeNode) QueryAt(height int64, sql string, params ...types.Value) (*engine.Result, error) {
	return &engine.Result{Cols: []string{"h"}, Rows: []types.Row{{types.NewInt(height)}}}, nil
}

func (f *fakeNode) SubscribeAll() <-chan core.TxResult {
	ch := make(chan core.TxResult, 16)
	f.mu.Lock()
	f.subs = append(f.subs, ch)
	f.mu.Unlock()
	return ch
}

func (f *fakeNode) UnsubscribeAll(ch <-chan core.TxResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, c := range f.subs {
		if (<-chan core.TxResult)(c) == ch {
			f.subs = append(f.subs[:i], f.subs[i+1:]...)
			return
		}
	}
}

func (f *fakeNode) subscriberCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

func (f *fakeNode) push(r core.TxResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ch := range f.subs {
		ch <- r
	}
}

// testRoute is the one-node ring test constructors pass.
var testRoute = Route{Flow: core.ExecuteOrder, Nodes: []string{"db.test"}}

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *fakeNode) {
	t.Helper()
	node := &fakeNode{}
	if cfg.Node == nil {
		cfg.Node = node
	}
	if cfg.Net == nil {
		cfg.Net = simnet.New(simnet.Loopback())
	}
	if cfg.Route.Nodes == nil {
		cfg.Route = testRoute
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, node
}

// bothTransports runs fn once per Transport implementation, each in front
// of its own fakeNode: Direct on a loopback fabric, HTTPClient against a
// test server.
func bothTransports(t *testing.T, fn func(t *testing.T, tr Transport, node *fakeNode)) {
	t.Run("direct", func(t *testing.T) {
		node := &fakeNode{}
		d, err := NewDirect(simnet.New(simnet.Loopback()), "client", node, testRoute)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		fn(t, d, node)
	})
	t.Run("http", func(t *testing.T) {
		srv, node := newTestServer(t, ServerConfig{})
		c := Dial(srv.URL())
		defer c.Close()
		fn(t, c, node)
	})
}

// TestMalformedRequestsRejected drives every parse-failure path of the
// boundary: each must come back 4xx with a JSON error body, not reach
// the fabric, and bump the rejection counter.
func TestMalformedRequestsRejected(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{})
	post := func(path, body string) (int, string) {
		resp, err := http.Post(srv.URL()+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Error
	}

	cases := []struct {
		name, path, body string
	}{
		{"submit junk json", "/v1/submit", "{not json"},
		{"submit empty tx", "/v1/submit", `{"tx": ""}`},
		{"submit garbage tx bytes", "/v1/submit", `{"tx": "Z29vZC1tb3JuaW5n"}`},
		{"submit negative attempt", "/v1/submit", `{"tx": "Z29vZC1tb3JuaW5n", "attempt": -1}`},
		{"query junk json", "/v1/query", "{{{"},
		{"query empty sql", "/v1/query", `{"sql": "", "height": -1}`},
		{"query unknown value kind", "/v1/query", `{"sql": "SELECT 1", "height": -1, "params": [{"k": "decimal128"}]}`},
		{"relay missing destination", "/v1/relay", `{"from": "x", "kind": ""}`},
	}
	for _, tc := range cases {
		code, msg := post(tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (error %q)", tc.name, code, msg)
		}
		if msg == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}
	if got := srv.Rejected(); got != int64(len(cases)) {
		t.Errorf("Rejected() = %d, want %d", got, len(cases))
	}

	// Oversized body: cut off by MaxBytesReader before parsing.
	big := `{"tx": "` + strings.Repeat("A", maxBodyBytes+1024) + `"}`
	if code, _ := post("/v1/submit", big); code != http.StatusBadRequest {
		t.Errorf("oversized submit: status %d, want 400", code)
	}
}

// TestQueryRoundTrip exercises the value codec across both transports,
// including the error path.
func TestQueryRoundTrip(t *testing.T) {
	bothTransports(t, func(t *testing.T, c Transport, _ *fakeNode) {
		params := []types.Value{
			types.NewInt(-42), types.NewFloat(2.5), types.NewString("héllo"),
			types.NewBool(true), types.NewBytes([]byte{0, 1, 255}), types.Null(),
		}
		res, err := c.Query(context.Background(), -1, "SELECT $1", params)
		if err != nil {
			t.Fatal(err)
		}
		row := res.Rows[0]
		if row[0].Str() != "SELECT $1" {
			t.Fatalf("echoed sql = %q", row[0].Str())
		}
		for i, want := range params {
			got := row[i+1]
			if got.Kind() != want.Kind() || got.String() != want.String() {
				t.Fatalf("param %d: got %v (%v), want %v (%v)", i, got, got.Kind(), want, want.Kind())
			}
		}

		_, err = c.Query(context.Background(), -1, "boom", nil)
		if err == nil {
			t.Fatal("query error did not propagate")
		}
		// On the wire a query error is a 422, not a transport failure.
		var se *StatusError
		if _, wire := c.(*HTTPClient); wire && (!errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity) {
			t.Fatalf("wire query error = %v, want a 422 StatusError", err)
		}

		if res, err := c.Query(context.Background(), 3, "SELECT 1", nil); err != nil || res.Rows[0][0].Int() != 3 {
			t.Fatalf("height routing: %v %v", res, err)
		}
	})
}

// TestCommitStreamSubscriberCleanup: a dropped stream client must not
// leave its SubscribeAll channel registered on the node, and stop is
// idempotent — twice, and again after the transport closed. The server
// tears a dropped stream down asynchronously, hence the wait.
func TestCommitStreamSubscriberCleanup(t *testing.T) {
	bothTransports(t, func(t *testing.T, c Transport, node *fakeNode) {
		released := func() bool { return node.subscriberCount() == 0 }
		ch, stop, err := c.CommitStream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		waitCond(t, "subscriber registered", func() bool { return node.subscriberCount() == 1 })

		node.push(core.TxResult{ID: "tx1", Block: 3, Committed: true})
		select {
		case r := <-ch:
			if r.ID != "tx1" || r.Block != 3 || !r.Committed {
				t.Fatalf("streamed result = %+v", r)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("commit did not stream")
		}

		stop()
		stop()
		waitCond(t, "subscriber released", released)
		c.Close()
		stop()
		if !released() {
			t.Fatal("stop after Close re-registered or leaked a subscriber")
		}
	})
}

// TestServerCloseReleasesStreams: closing the server with a commit stream
// open ends the stream's handler, which lets go of its SubscribeAll
// registration on the node, and the client sees its stream end.
func TestServerCloseReleasesStreams(t *testing.T) {
	srv, node := newTestServer(t, ServerConfig{})
	c := Dial(srv.URL())
	defer c.Close()
	ch, stop, err := c.CommitStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	waitCond(t, "subscriber registered", func() bool { return node.subscriberCount() == 1 })

	srv.Close()
	waitCond(t, "subscriber released on server close", func() bool { return node.subscriberCount() == 0 })
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("stream delivered a result after the server closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client stream did not end after the server closed")
	}
}

// TestRouteDest is the one routing rule as a table: where attempt n of a
// submission goes, for both flows.
func TestRouteDest(t *testing.T) {
	nodes := []string{"db.a", "db.b", "db.c"}
	ords := []string{"o0", "o1", "o2"}
	// "b" hashes to 0xe70c2de5: the top bit is set, which the in-process
	// client used to mask off before the modulo and the peers did not.
	const topBit = "b"
	if h := ordering.FNV1a(topBit); h != 0xe70c2de5 || h>>31 != 1 {
		t.Fatalf("FNV1a(%q) = %#x", topBit, h)
	}
	first := func(id string) int { return int(ordering.FNV1a(id) % uint32(len(ords))) }
	cases := []struct {
		name    string
		r       Route
		id      string
		attempt int
		to      string
	}{
		{"eo attempt 0 is the home node", Route{Flow: core.ExecuteOrder, Nodes: nodes, Home: 1, Orderers: ords}, "x", 0, "db.b"},
		{"eo retry walks the ring", Route{Flow: core.ExecuteOrder, Nodes: nodes, Home: 1, Orderers: ords}, "x", 1, "db.c"},
		{"eo ring wraps past the end", Route{Flow: core.ExecuteOrder, Nodes: nodes, Home: 1, Orderers: ords}, "x", 2, "db.a"},
		{"eo attempt n is home again", Route{Flow: core.ExecuteOrder, Nodes: nodes, Home: 1, Orderers: ords}, "x", 3, "db.b"},
		{"eo one-node ring", testRoute, "x", 5, "db.test"},
		{"oe attempt 0 is the id's orderer", Route{Flow: core.OrderThenExecute, Nodes: nodes, Orderers: ords}, "x", 0, ords[first("x")]},
		{"oe retry is the next orderer", Route{Flow: core.OrderThenExecute, Nodes: nodes, Orderers: ords}, "x", 1, ords[(first("x")+1)%3]},
		{"oe second retry is the third", Route{Flow: core.OrderThenExecute, Nodes: nodes, Orderers: ords}, "x", 2, ords[(first("x")+2)%3]},
		{"oe attempt n wraps", Route{Flow: core.OrderThenExecute, Nodes: nodes, Orderers: ords}, "x", 3, ords[first("x")]},
		{"oe top-bit id", Route{Flow: core.OrderThenExecute, Nodes: nodes, Orderers: ords}, topBit, 0, ords[0xe70c2de5%3]},
		{"oe huge attempt does not overflow", Route{Flow: core.OrderThenExecute, Nodes: nodes, Orderers: ords}, topBit, math.MaxInt, ords[(0xe70c2de5%3+math.MaxInt%3)%3]},
	}
	for _, tc := range cases {
		to, kind := tc.r.Dest(tc.id, tc.attempt)
		wantKind := core.KindSubmit
		if tc.r.Flow == core.OrderThenExecute {
			wantKind = ordering.KindSubmit
		}
		if to != tc.to || kind != wantKind {
			t.Errorf("%s: Dest(%q, %d) = %s %s, want %s %s", tc.name, tc.id, tc.attempt, to, kind, tc.to, wantKind)
		}
	}
}

// TestDirectRoutesByPeekedID: Direct reads the id straight off the
// marshalled bytes (no full decode); it must land where Dest sends the
// decoded id, attempt by attempt.
func TestDirectRoutesByPeekedID(t *testing.T) {
	net := simnet.New(simnet.Loopback())
	ords := []string{"o0", "o1", "o2"}
	got := make(chan string, 1)
	for _, o := range ords {
		if _, err := net.Register(o, func(m simnet.Message) { got <- m.To + " " + m.Kind }); err != nil {
			t.Fatal(err)
		}
	}
	route := Route{Flow: core.OrderThenExecute, Nodes: []string{"db.test"}, Orderers: ords}
	d, err := NewDirect(net, "client", &fakeNode{}, route)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tx := &ledger.Transaction{ID: "b", Username: "u", Contract: "c", Args: []types.Value{types.NewInt(1)}, Signature: []byte{1}}
	for attempt := 0; attempt < 4; attempt++ {
		if err := d.SubmitAttempt(context.Background(), ledger.MarshalTransaction(tx), attempt); err != nil {
			t.Fatal(err)
		}
		to, kind := route.Dest(tx.ID, attempt)
		select {
		case g := <-got:
			if g != to+" "+kind {
				t.Fatalf("attempt %d went to %s, Dest says %s %s", attempt, g, to, kind)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("attempt %d never arrived", attempt)
		}
	}
}

// TestConnectionLimit: once open connections hold every one of the
// maxConns slots, one more connection is not served until a slot is
// released.
func TestConnectionLimit(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{})
	held := make([]net.Conn, 0, maxConns)
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for len(held) < maxConns {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("connection %d: %v", len(held)+1, err)
		}
		held = append(held, c)
	}
	slots := srv.ln.(*limitListener).sem
	waitCond(t, "every slot held", func() bool { return len(slots) == maxConns })

	blocked := &http.Client{Timeout: 300 * time.Millisecond, Transport: &http.Transport{}}
	if _, err := blocked.Get(srv.URL() + "/v1/info"); err == nil {
		t.Fatalf("connection %d served with every slot held", maxConns+1)
	}

	held[0].Close()
	held = held[1:]
	free := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}}
	resp, err := free.Get(srv.URL() + "/v1/info")
	if err != nil {
		t.Fatalf("request after slot release: %v", err)
	}
	defer resp.Body.Close()
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || info.Node != "db.test" {
		t.Fatalf("info after release = %+v, %v", info, err)
	}
}

// TestRelayInjection: /v1/relay feeds messages into the local fabric.
func TestRelayInjection(t *testing.T) {
	net := simnet.New(simnet.Loopback())
	srv, _ := newTestServer(t, ServerConfig{Net: net})

	got := make(chan simnet.Message, 1)
	if _, err := net.Register("sink", func(m simnet.Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	c := Dial(srv.URL())
	defer c.Close()
	if err := c.Relay(context.Background(), "far.away", "sink", "test.kind", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.From != "far.away" || m.Kind != "test.kind" || !bytes.Equal(m.Payload, []byte("payload")) {
			t.Fatalf("relayed message = %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("relayed message never delivered")
	}
	if srv.Relayed() != 1 {
		t.Fatalf("Relayed() = %d", srv.Relayed())
	}
}

// TestRouteMatch: the relay sends a message to the process that declared
// its destination's whole name; a longer or dotted name is not routed.
func TestRouteMatch(t *testing.T) {
	p := NewRelayPool()
	defer p.Close()
	p.AddRoute("http://127.0.0.1:1", "orderer2", "db.org1")
	gw := p.Gateway()
	for _, tc := range []struct {
		to     string
		routed bool
	}{
		{"orderer2", true},
		{"db.org1", true},
		{"orderer20", false},
		{"orderer2.seq", false},
		{"db.org10", false},
		{"orderer", false},
	} {
		err := gw(simnet.Message{From: "x", To: tc.to, Kind: "k"})
		if tc.routed && err != nil {
			t.Errorf("%s not routed: %v", tc.to, err)
		}
		if !tc.routed && !errors.Is(err, simnet.ErrUnknownPeer) {
			t.Errorf("%s: got %v, want ErrUnknownPeer", tc.to, err)
		}
	}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestHTTPClientReusesOneConnection: a client making one call at a time
// holds one TCP connection, whatever the calls return — submits whose
// body it does not decode, queries and info whose decode stops before
// the encoder's trailing newline, rejected submits whose error body it
// reads only in part. A proxy in front of the server counts the
// connections the client opens.
func TestHTTPClientReusesOneConnection(t *testing.T) {
	fabric := simnet.New(simnet.Loopback())
	if _, err := fabric.Register("db.test", func(simnet.Message) {}); err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, ServerConfig{Net: fabric})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			up, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				c.Close()
				continue
			}
			go func() { _, _ = io.Copy(up, c); up.Close() }()
			go func() { _, _ = io.Copy(c, up); c.Close() }()
		}
	}()

	c := Dial("http://" + ln.Addr().String())
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		tx := &ledger.Transaction{ID: fmt.Sprint("tx-", i), Username: "u", Contract: "c", Signature: []byte{1}}
		if err := c.Submit(ctx, ledger.MarshalTransaction(tx)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Query(ctx, -1, "SELECT $1", []types.Value{types.NewInt(int64(i))}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if _, err := c.Info(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var se *StatusError
		if err := c.Submit(ctx, []byte("not a transaction")); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Fatalf("rejected submit %d: err = %v, want a 400", i, err)
		}
	}
	if got := accepted.Load(); got != 1 {
		t.Fatalf("131 sequential calls opened %d connections, want 1", got)
	}
}
