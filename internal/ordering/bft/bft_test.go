package bft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bcrdb/internal/codec"
	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
	"bcrdb/internal/types"
)

type cluster struct {
	t        *testing.T
	net      *simnet.Network
	orderers []*Orderer

	mu     sync.Mutex
	blocks map[string][]*ledger.Block
}

func newCluster(t *testing.T, n int, cfg ordering.Config) *cluster {
	t.Helper()
	c := &cluster{
		t:      t,
		net:    simnet.New(simnet.Profile{Latency: 100 * time.Microsecond}),
		blocks: make(map[string][]*ledger.Block),
	}
	t.Cleanup(c.net.Close)

	reg := identity.NewRegistry()
	var names []string
	var signers []*identity.Signer
	for i := 0; i < n; i++ {
		s, err := identity.NewSigner(fmt.Sprintf("bft%d", i), "org", identity.RoleOrderer, nil)
		if err != nil {
			t.Fatal(err)
		}
		signers = append(signers, s)
		names = append(names, s.Name)
		if err := reg.Register(s.Public()); err != nil {
			t.Fatal(err)
		}
	}
	// One peer endpoint per orderer.
	for i := 0; i < n; i++ {
		pn := fmt.Sprintf("peer%d", i)
		name := pn
		_, err := c.net.Register(name, func(m simnet.Message) {
			if m.Kind != ordering.KindBlock {
				return
			}
			b, err := ledger.DecodeBlock(m.Payload)
			if err != nil {
				return
			}
			c.mu.Lock()
			c.blocks[name] = append(c.blocks[name], b)
			c.mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		o, err := New(i, names, signers[i], reg, c.net, []string{fmt.Sprintf("peer%d", i)}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.orderers = append(c.orderers, o)
	}
	return c
}

func (c *cluster) waitBlocks(peer string, n int, timeout time.Duration) []*ledger.Block {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		bs := append([]*ledger.Block(nil), c.blocks[peer]...)
		c.mu.Unlock()
		if len(bs) >= n {
			return bs
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t.Fatalf("peer %s: wanted %d blocks, have %d", peer, n, len(c.blocks[peer]))
	return nil
}

func mktx(id string) *ledger.Transaction {
	return &ledger.Transaction{ID: id, Username: "alice", Contract: "f",
		Args: []types.Value{types.NewInt(1)}}
}

func submit(t *testing.T, c *cluster, target string, tx *ledger.Transaction) {
	t.Helper()
	client, err := c.net.Register("client-"+tx.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(target, ordering.KindSubmit, ledger.MarshalTransaction(tx)); err != nil {
		t.Fatal(err)
	}
}

func TestConsensusDeliversIdenticalBlocks(t *testing.T) {
	c := newCluster(t, 4, ordering.Config{BlockSize: 2, BlockTimeout: 50 * time.Millisecond})
	for i := 0; i < 4; i++ {
		submit(t, c, fmt.Sprintf("bft%d", i%4), mktx(fmt.Sprintf("t%d", i)))
	}
	var chains [][]*ledger.Block
	for i := 0; i < 4; i++ {
		chains = append(chains, c.waitBlocks(fmt.Sprintf("peer%d", i), 2, 5*time.Second))
	}
	for i := 1; i < 4; i++ {
		for j := 0; j < 2; j++ {
			if chains[i][j].Hash != chains[0][j].Hash {
				t.Fatalf("orderer %d block %d differs", i, j)
			}
		}
	}
	if chains[0][1].PrevHash != chains[0][0].Hash {
		t.Fatal("hash chain broken")
	}
	// All 4 transactions delivered exactly once.
	seen := map[string]int{}
	for _, b := range chains[0] {
		for _, tx := range b.Txs {
			seen[tx.ID]++
		}
	}
	if len(seen) != 4 {
		t.Fatalf("tx coverage = %v", seen)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("tx %s delivered %d times", id, n)
		}
	}
}

func TestTimeoutCutWithFewTxs(t *testing.T) {
	c := newCluster(t, 4, ordering.Config{BlockSize: 100, BlockTimeout: 30 * time.Millisecond})
	submit(t, c, "bft1", mktx("solo")) // non-leader: forwarded to leader
	bs := c.waitBlocks("peer0", 1, 5*time.Second)
	if len(bs[0].Txs) != 1 || bs[0].Txs[0].ID != "solo" {
		t.Fatalf("block = %+v", bs[0])
	}
}

func TestFollowerCrashTolerated(t *testing.T) {
	c := newCluster(t, 4, ordering.Config{BlockSize: 1, BlockTimeout: time.Hour})
	c.orderers[3].Stop() // f=1: one crash tolerated
	submit(t, c, "bft0", mktx("a"))
	bs := c.waitBlocks("peer0", 1, 5*time.Second)
	if bs[0].Txs[0].ID != "a" {
		t.Fatal("delivery failed with one crashed follower")
	}
}

func TestLeaderCrashTriggersViewChange(t *testing.T) {
	c := newCluster(t, 4, ordering.Config{BlockSize: 1, BlockTimeout: 20 * time.Millisecond})
	// Crash the view-0 leader before any traffic.
	c.orderers[0].Stop()
	// Submissions to followers get forwarded to the dead leader; the
	// liveness timers fire and rotate the view.
	submit(t, c, "bft1", mktx("x"))
	// After the view change the new leader (bft1) re-proposes.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.orderers[1].View() >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.orderers[1].View() == 0 {
		t.Fatal("view change never happened")
	}
	// bft1 held the request it forwarded to the dead leader, and proposes
	// it as the new leader: no client retry is needed.
	bs := c.waitBlocks("peer1", 1, 5*time.Second)
	if len(bs[0].Txs) != 1 || bs[0].Txs[0].ID != "x" {
		t.Fatalf("first block after the view change = %+v, want the held request", bs[0])
	}
}

// TestHeldRequestHandedToNewLeader: a follower that is not the next
// leader hands the request it holds to the new leader, which proposes it
// exactly once, and a request for an id already delivered is not held.
func TestHeldRequestHandedToNewLeader(t *testing.T) {
	c := newCluster(t, 4, ordering.Config{BlockSize: 1, BlockTimeout: 20 * time.Millisecond})
	c.orderers[0].Stop()
	submit(t, c, "bft2", mktx("y")) // held by bft2; bft1 leads view 1
	bs := c.waitBlocks("peer1", 1, 5*time.Second)
	if bs[0].Txs[0].ID != "y" {
		t.Fatalf("block 1 = %+v, want the request bft2 held", bs[0])
	}
	retry, err := c.net.Register("client-retry", nil)
	if err != nil {
		t.Fatal(err)
	}
	// A client retry of the delivered id, then a fresh request.
	if err := retry.Send("bft3", ordering.KindSubmit, ledger.MarshalTransaction(mktx("y"))); err != nil {
		t.Fatal(err)
	}
	submit(t, c, "bft1", mktx("z"))
	for _, peer := range []string{"peer1", "peer2", "peer3"} {
		bs = c.waitBlocks(peer, 2, 5*time.Second)
		if len(bs) != 2 || bs[1].Txs[0].ID != "z" {
			t.Fatalf("%s chain = %+v, want y then z", peer, bs)
		}
	}
	for _, o := range c.orderers[1:] {
		o.mu.Lock()
		held := len(o.held)
		o.mu.Unlock()
		if held != 0 {
			t.Fatalf("%s holds %d requests after both were delivered", o.name, held)
		}
	}
}

func TestNeedsFourOrderers(t *testing.T) {
	net := simnet.New(simnet.Profile{})
	defer net.Close()
	reg := identity.NewRegistry()
	s, _ := identity.NewSigner("only", "org", identity.RoleOrderer, nil)
	_ = reg.Register(s.Public())
	if _, err := New(0, []string{"only"}, s, reg, net, nil, ordering.Config{}); err == nil {
		t.Fatal("n=1 should be rejected")
	}
}

func TestForgedVotesIgnored(t *testing.T) {
	c := newCluster(t, 4, ordering.Config{BlockSize: 1, BlockTimeout: time.Hour})
	// An outsider floods commit votes for a bogus block; nothing must be
	// delivered.
	evil, _ := c.net.Register("evil", nil)
	var digest ledger.Hash
	digest[0] = 0xEE
	for seq := uint64(1); seq <= 3; seq++ {
		payload := forgeVote(t, seq, digest)
		for i := 0; i < 4; i++ {
			_ = evil.Send(fmt.Sprintf("bft%d", i), kindCommit, payload)
		}
	}
	time.Sleep(100 * time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	for p, bs := range c.blocks {
		if len(bs) > 0 {
			t.Fatalf("peer %s received forged block", p)
		}
	}
}

func forgeVote(t *testing.T, seq uint64, digest ledger.Hash) []byte {
	t.Helper()
	forger, err := identity.NewSigner("forger", "x", identity.RoleOrderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := encodeVote(seq, digest, forger)
	return e
}

func encodeVote(seq uint64, digest ledger.Hash, s *identity.Signer) []byte {
	// Mirrors the wire format in handleVote.
	e := codec.NewBuf(64)
	e.Uvarint(0)
	e.Uvarint(seq)
	e.Bytes2(digest[:])
	e.Bytes2(s.Sign(voteSignBytes("cm", 0, seq, digest)))
	return e.Bytes()
}
