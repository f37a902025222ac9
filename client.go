package bcrdb

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"time"

	"bcrdb/internal/core"
	"bcrdb/internal/engine"
	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/transport"
)

// RetryPolicy configures client-side resubmission (Options.Retry).
// Resubmitting the same signed transaction is idempotent end to end: the
// ordering service deduplicates by transaction id and every node records
// each id at most once (§3.4.3), so a retry can never double-apply.
// Between attempts the client consults the replicated ledger table, which
// catches the committed-but-notification-lost case.
type RetryPolicy struct {
	// Attempts is the total number of submission attempts per Invoke.
	// Default 1 — no retry, the pre-existing behavior.
	Attempts int
	// Timeout bounds each attempt's wait for a result. Default 30s.
	Timeout time.Duration
	// Backoff is the base delay before the second attempt; it doubles
	// each further attempt (with jitter) up to 2s. Default 100ms.
	Backoff time.Duration
	// Seed seeds the jitter generator. 0 (the default) draws a random
	// seed per client; a non-zero seed makes every client's backoff
	// schedule a pure function of (Seed, username), so chaos runs with
	// the same seed retry at the same simulated moments.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 1
	}
	if p.Timeout <= 0 {
		p.Timeout = 30 * time.Second
	}
	if p.Backoff <= 0 {
		p.Backoff = 100 * time.Millisecond
	}
	return p
}

// maxBackoff caps the doubling retry delay.
const maxBackoff = 2 * time.Second

// Client submits signed transactions on behalf of one user and hears
// back on the commit stream of the node it is connected to (§2(7):
// transactions are asynchronous). How it reaches the network is its
// Transport's business: Network.Client builds it over the in-process
// fabric, DialRemote over HTTP, and signing, retry, failover and result
// delivery are the same code either way.
//
// In the execute-order-in-parallel flow a submission goes to the connected
// database node, tagged with that node's current block height as the
// snapshot; in order-then-execute it goes straight to an ordering node
// (transport.Route.Dest).
type Client struct {
	tr     transport.Transport
	signer *identity.Signer
	flow   Flow
	retry  RetryPolicy

	// In-process extras (Home, ExecPrivate, QueryAll); nil when dialed.
	home  *core.Node
	nodes []*core.Node

	// rng drives retry jitter. Per-client and explicitly seeded so two
	// networks built with the same RetryPolicy.Seed produce identical
	// backoff schedules — the global math/rand source made chaos runs
	// unrepeatable however carefully everything else was seeded.
	rngMu sync.Mutex
	rng   *mrand.Rand

	// backoffHook observes each computed retry wait (tests only).
	backoffHook func(time.Duration)

	mu      sync.Mutex
	waiters map[string][]chan TxResult

	// ctx ends with Close: it wakes every blocked wait (Await, retry
	// backoff) and aborts in-flight transport calls. The follower starts
	// with the first awaited submission (followOnce); wg waits for it.
	ctx        context.Context
	cancel     context.CancelFunc
	followOnce sync.Once
	wg         sync.WaitGroup
}

// newClient builds a client over tr (nil for a handle made after the
// network closed, which Close-s it at once).
func newClient(tr transport.Transport, signer *identity.Signer, flow Flow, retry RetryPolicy) *Client {
	seed := retry.Seed
	if seed == 0 {
		seed = mrand.Int63()
	}
	c := &Client{
		tr:      tr,
		signer:  signer,
		flow:    flow,
		retry:   retry,
		rng:     mrand.New(mrand.NewSource(seed ^ int64(ordering.FNV1a(signer.Name)))),
		waiters: make(map[string][]chan TxResult),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	return c
}

// Client returns (creating on first use) the client handle for a user
// registered in Options.Orgs, connected to the user's org's node through
// a fabric endpoint named after the user. After Close it returns a closed
// handle: every submission fails with ErrClosed.
func (nw *Network) Client(username string) *Client {
	nw.clientMu.Lock()
	defer nw.clientMu.Unlock()
	if c, ok := nw.clients[username]; ok {
		return c
	}
	signer := nw.signers[username]
	if signer == nil {
		panic(fmt.Sprintf("bcrdb: unknown user %q (declare it in Options.Orgs)", username))
	}
	home := nw.nodes[0]
	for _, n := range nw.nodes {
		if n.Org() == signer.Org {
			home = n
			break
		}
	}
	// closed is read under clientMu, which Close takes after setting it
	// and before stopping anything: a handle is either in the map Close
	// walks, or born closed — never registered on a stopping fabric.
	var tr transport.Transport
	if !nw.closed.Load() {
		d, err := transport.NewDirect(nw.net, username, home, nw.route(home))
		if err != nil {
			panic(fmt.Sprintf("bcrdb: client endpoint for %q: %v", username, err))
		}
		tr = d
	}
	c := newClient(tr, signer, nw.opts.Flow, nw.opts.Retry)
	c.home, c.nodes = home, nw.nodes
	if tr == nil {
		c.cancel()
	}
	nw.clients[username] = c
	return c
}

// Close stops the commit-stream follower, fails every blocked and future
// submission with ErrClosed and releases the transport. Network.Close
// closes the clients it handed out; one closed by hand stays closed, and
// Network.Client keeps returning it.
func (c *Client) Close() error {
	c.mu.Lock() // fences the follower's wg.Add (follow) against the Wait below
	c.cancel()
	c.mu.Unlock()
	c.wg.Wait()
	if c.tr == nil {
		return nil
	}
	return c.tr.Close()
}

// Username returns the client's user name.
func (c *Client) Username() string { return c.signer.Name }

// Home returns the client's home database node (nil for a dialed client).
func (c *Client) Home() *core.Node { return c.home }

// follow starts the commit-stream follower on first use. The first stream
// is opened here, on the caller's goroutine, so the subscription exists
// before the caller's submission leaves; concurrent first callers wait for
// it in the Once. Clients that never await a result (SubmitRaw) never
// come here and carry no stream — a node copies every result into every
// stream it serves.
func (c *Client) follow() {
	c.followOnce.Do(func() {
		c.mu.Lock()
		if c.ctx.Err() != nil {
			c.mu.Unlock()
			return
		}
		c.wg.Add(1)
		c.mu.Unlock()
		ch, stop, err := c.tr.CommitStream(c.ctx)
		go c.followCommits(ch, stop, err)
	})
}

// followCommits hands the stream's results to their waiters and, when a
// remote stream drops, redials with backoff. Results committed while no
// stream was connected are recovered by Invoke's sys_ledger lookup.
func (c *Client) followCommits(ch <-chan TxResult, stop func(), err error) {
	defer c.wg.Done()
	redial := 50 * time.Millisecond
	for ; ; ch, stop, err = c.tr.CommitStream(c.ctx) {
		if err != nil {
			if !c.sleep(redial) {
				return
			}
			redial = min(2*redial, 2*time.Second)
			continue
		}
		redial = 50 * time.Millisecond
		for open := true; open; {
			select {
			case <-c.ctx.Done():
				stop()
				return
			case res, ok := <-ch:
				if open = ok; ok {
					c.dispatch(res)
				}
			}
		}
		stop() // connection lost: redial
	}
}

// dispatch delivers one result to the waiters registered for its id.
func (c *Client) dispatch(res TxResult) {
	c.mu.Lock()
	chans := c.waiters[res.ID]
	delete(c.waiters, res.ID)
	c.mu.Unlock()
	for _, ch := range chans {
		select {
		case ch <- res:
		default:
		}
	}
}

// buildTx signs a transaction and marshals it; a closed client is refused
// here, before anything crosses the transport. For ExecuteOrder the
// snapshot is the connected node's current height (the paper: "the client
// can obtain this from the peer it is connected with") and the id is the
// §3.4.3 deterministic hash — identical (user, contract, args, snapshot)
// share an id by design. In OrderThenExecute the id is client-chosen and
// unique (§3.3), so retries of failed invocations work naturally.
func (c *Client) buildTx(contract string, args []Value) (id string, payload []byte, err error) {
	if c.ctx.Err() != nil {
		return "", nil, ErrClosed
	}
	tx := &ledger.Transaction{
		Username: c.signer.Name,
		Contract: contract,
		Args:     args,
	}
	if c.flow == ExecuteOrder {
		info, err := c.tr.Info(c.ctx)
		if err != nil {
			return "", nil, fmt.Errorf("bcrdb: fetch snapshot height: %w", err)
		}
		tx.Snapshot = info.Height
		tx.ID = ledger.ComputeID(c.signer.Name, contract, args, tx.Snapshot)
	} else {
		var nonce [16]byte
		if _, err := rand.Read(nonce[:]); err != nil {
			panic(err) // crypto/rand failure is unrecoverable
		}
		tx.ID = hex.EncodeToString(nonce[:])
	}
	tx.Signature = c.signer.Sign(tx.SignBytes())
	return tx.ID, ledger.MarshalTransaction(tx), nil
}

// addWaiter registers a waiter for a tx id's result.
func (c *Client) addWaiter(id string) <-chan TxResult {
	ch := make(chan TxResult, 1)
	c.mu.Lock()
	c.waiters[id] = append(c.waiters[id], ch)
	c.mu.Unlock()
	return ch
}

// removeWaiter drops a waiter that gave up, so an abandoned Await does
// not leave its channel registered forever.
func (c *Client) removeWaiter(id string, ch <-chan TxResult) {
	c.mu.Lock()
	ws := c.waiters[id]
	for i, w := range ws {
		if (<-chan TxResult)(w) == ch {
			ws = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(ws) == 0 {
		delete(c.waiters, id)
	} else {
		c.waiters[id] = ws
	}
	c.mu.Unlock()
}

// PendingTx is an in-flight transaction.
type PendingTx struct {
	ID string
	c  *Client
	ch <-chan TxResult
}

// Submit signs and submits a transaction asynchronously. Await the
// result on the returned PendingTx. Two submissions with identical
// (user, contract, args, snapshot) share an id (§3.4.3) — include a
// nonce argument in the contract when replays must be distinct.
func (c *Client) Submit(contract string, args ...Value) (*PendingTx, error) {
	id, payload, err := c.buildTx(contract, args)
	if err != nil {
		return nil, err
	}
	return c.send(id, payload, 0)
}

// send makes sure the follower runs, registers a waiter and ships the
// payload to the attempt's destination, deregistering on failure.
func (c *Client) send(id string, payload []byte, attempt int) (*PendingTx, error) {
	c.follow()
	p := &PendingTx{ID: id, c: c, ch: c.addWaiter(id)}
	if err := c.tr.SubmitAttempt(c.ctx, payload, attempt); err != nil {
		c.removeWaiter(id, p.ch)
		return nil, err
	}
	return p, nil
}

// Await blocks for the transaction result. Whatever the outcome, the
// pending transaction's waiter is released on return: a timed-out Await
// does not leak its entry.
func (p *PendingTx) Await(timeout time.Duration) (TxResult, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	defer p.c.removeWaiter(p.ID, p.ch)
	select {
	case r := <-p.ch:
		return r, nil
	case <-p.c.ctx.Done():
		return TxResult{}, ErrClosed
	case <-timer.C:
		return TxResult{}, fmt.Errorf("bcrdb: timeout waiting for tx %s", p.ID)
	}
}

// UnresolvedError is returned by Invoke when every attempt timed out
// and the replicated ledger has no terminal state for the transaction
// yet. It carries the transaction id so callers can reconcile later —
// the transaction may still commit after the client gave up (e.g. the
// home node is catching up after a partition). Last is ErrClosed when the
// client was closed first; ID is empty when that (or a failed snapshot
// fetch) happened before the transaction was built.
type UnresolvedError struct {
	ID       string
	Attempts int
	Last     error
}

func (e *UnresolvedError) Error() string {
	return fmt.Sprintf("bcrdb: tx %s unresolved after %d attempt(s): %v", e.ID, e.Attempts, e.Last)
}

func (e *UnresolvedError) Unwrap() error { return e.Last }

// lookupLedger consults the replicated ledger table for a transaction's
// terminal state — authoritative when a result notification was lost.
func (c *Client) lookupLedger(id string) (TxResult, bool) {
	res, err := c.tr.Query(c.ctx, -1, `SELECT block, status FROM sys_ledger WHERE txid = $1`, []Value{Text(id)})
	if err != nil || len(res.Rows) == 0 {
		return TxResult{}, false
	}
	r := TxResult{
		ID:        id,
		Block:     uint64(res.Rows[0][0].Int()),
		Committed: res.Rows[0][1].Str() == "committed",
	}
	if !r.Committed {
		r.Reason = "recorded aborted in sys_ledger"
	}
	return r, true
}

// Invoke submits a transaction and waits for its result, retrying per
// the client's RetryPolicy (default: one attempt, 30s). Retries resubmit
// the SAME signed transaction — the ordering service and nodes deduplicate
// by id, so resubmission is idempotent — and fail over to a different
// target each attempt. Before each retry (and before giving up) the
// replicated ledger is consulted, which resolves transactions that
// committed while their notification was lost.
func (c *Client) Invoke(contract string, args ...Value) (TxResult, error) {
	pol := c.retry.withDefaults()
	id, payload, err := c.buildTx(contract, args)
	if err != nil {
		return TxResult{}, &UnresolvedError{Last: err}
	}
	backoff := pol.Backoff
	var lastErr error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			wait := backoff/2 + time.Duration(c.jitter(int64(backoff/2)+1))
			if c.backoffHook != nil {
				c.backoffHook(wait)
			}
			// Wait close-aware: Close wakes every sleeping retry
			// immediately instead of letting it fire attempts into a
			// stopped fabric seconds later.
			if !c.sleep(wait) {
				return TxResult{}, &UnresolvedError{ID: id, Attempts: attempt, Last: ErrClosed}
			}
			backoff = min(2*backoff, maxBackoff)
			if c.home != nil {
				c.home.Metrics().ClientRetries.Add(1)
			}
			if r, ok := c.lookupLedger(id); ok {
				return r, nil
			}
		}
		p, err := c.send(id, payload, attempt)
		if err == nil {
			var r TxResult
			if r, err = p.Await(pol.Timeout); err == nil {
				return r, nil
			}
		}
		if c.ctx.Err() != nil {
			return TxResult{}, &UnresolvedError{ID: id, Attempts: attempt + 1, Last: ErrClosed}
		}
		lastErr = err
	}
	if r, ok := c.lookupLedger(id); ok {
		return r, nil
	}
	return TxResult{}, &UnresolvedError{ID: id, Attempts: pol.Attempts, Last: lastErr}
}

// jitter draws from the client's seeded rng (n must be > 0).
func (c *Client) jitter(n int64) int64 {
	c.rngMu.Lock()
	v := c.rng.Int63n(n)
	c.rngMu.Unlock()
	return v
}

// sleep waits for d, returning false if the client closed first.
func (c *Client) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.ctx.Done():
		return false
	}
}

// Query runs a read-only SQL query against the connected node at its
// current height. Read-only queries are served by one node and are not
// recorded on the chain (§3.7); clients distrusting their node can issue
// the query against several nodes and compare (§3.5(5)). Read-your-writes
// holds on the connected node: a result this client received came from
// that node's commit stream, so the node has already applied it. It does
// not hold across clients of different organizations — another org's node
// may still trail the block.
func (c *Client) Query(sql string, params ...Value) (*Result, error) {
	return c.QueryAt(-1, sql, params...)
}

// QueryAt runs a read-only query at a historic block height (negative:
// the current height).
func (c *Client) QueryAt(height int64, sql string, params ...Value) (*Result, error) {
	if c.tr == nil {
		return nil, ErrClosed
	}
	return c.tr.Query(context.Background(), height, sql, params)
}

// Info reports the connected node's identity and heights.
func (c *Client) Info() (transport.Info, error) {
	if c.tr == nil {
		return transport.Info{}, ErrClosed
	}
	return c.tr.Info(context.Background())
}

// errDialed is returned by the in-process extras on a dialed client.
var errDialed = errors.New("bcrdb: not available on a dialed client (use Network.Client)")

// ExecPrivate runs a statement on the home node's non-blockchain schema
// (§3.7): node-local tables for the client's own organization, joinable
// with blockchain tables in read-only queries but invisible to contracts
// and consensus. In-process clients only.
func (c *Client) ExecPrivate(sql string, params ...Value) (*Result, error) {
	if c.home == nil {
		return nil, errDialed
	}
	return c.home.ExecPrivate(sql, params...)
}

// QueryAll runs the query on every node and returns an error if any two
// disagree — the cross-checking read of §3.5(5). In-process clients only.
func (c *Client) QueryAll(sql string, params ...Value) (*Result, error) {
	if c.home == nil {
		return nil, errDialed
	}
	h := c.nodes[0].Height()
	for _, n := range c.nodes[1:] {
		if nh := n.Height(); nh < h {
			h = nh
		}
	}
	var ref *engine.Result
	for i, n := range c.nodes {
		res, err := n.QueryAt(h, sql, params...)
		if err != nil {
			return nil, fmt.Errorf("bcrdb: node %s: %w", n.Name(), err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if !sameResult(ref, res) {
			return nil, fmt.Errorf("bcrdb: node %s returned a different result (possible tampering, §3.5(5))", n.Name())
		}
	}
	return ref, nil
}

func sameResult(a, b *engine.Result) bool {
	if len(a.Rows) != len(b.Rows) || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j].Kind() != b.Rows[i][j].Kind() {
				return false
			}
			if a.Rows[i][j].String() != b.Rows[i][j].String() {
				return false
			}
		}
	}
	return true
}
