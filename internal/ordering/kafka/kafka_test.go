package kafka

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
	"bcrdb/internal/types"
)

// submitLocal hands o a client submission as the network would.
func submitLocal(o *Orderer, tx *ledger.Transaction) {
	o.onMessage(simnet.Message{From: tx.Username, To: o.name, Kind: ordering.KindSubmit, Payload: ledger.MarshalTransaction(tx)})
}

// cluster spins up a topic, n orderers and one collecting peer endpoint.
type cluster struct {
	t        *testing.T
	net      *simnet.Network
	topic    *Topic
	orderers []*Orderer

	mu     sync.Mutex
	blocks map[string][]*ledger.Block // per peer endpoint
}

func newCluster(t *testing.T, nOrderers int, cfg ordering.Config, peerNames ...string) *cluster {
	t.Helper()
	c := &cluster{
		t:      t,
		net:    simnet.New(simnet.Profile{Latency: 100 * time.Microsecond}),
		topic:  NewTopic(),
		blocks: make(map[string][]*ledger.Block),
	}
	t.Cleanup(c.net.Close)
	for _, pn := range peerNames {
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
	for i := 0; i < nOrderers; i++ {
		signer, err := identity.NewSigner(fmt.Sprintf("orderer%d", i), "org", identity.RoleOrderer, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Orderer i delivers to peer i (round-robin when fewer peers).
		var peers []string
		if len(peerNames) > 0 {
			peers = []string{peerNames[i%len(peerNames)]}
		}
		o, err := NewOrderer(signer.Name, signer, c.topic, c.net, peers, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.orderers = append(c.orderers, o)
	}
	return c
}

func (c *cluster) peerBlocks(peer string) []*ledger.Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*ledger.Block(nil), c.blocks[peer]...)
}

func (c *cluster) waitBlocks(peer string, n int, timeout time.Duration) []*ledger.Block {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if bs := c.peerBlocks(peer); len(bs) >= n {
			return bs
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatalf("peer %s: wanted %d blocks, have %d", peer, n, len(c.peerBlocks(peer)))
	return nil
}

func mktx(id string) *ledger.Transaction {
	return &ledger.Transaction{ID: id, Username: "alice", Contract: "f",
		Args: []types.Value{types.NewInt(1)}}
}

func TestSizeTriggeredBlocks(t *testing.T) {
	c := newCluster(t, 1, ordering.Config{BlockSize: 3, BlockTimeout: time.Hour}, "peer0")
	for i := 0; i < 6; i++ {
		submitLocal(c.orderers[0], mktx(fmt.Sprintf("t%d", i)))
	}
	bs := c.waitBlocks("peer0", 2, 2*time.Second)
	if bs[0].Number != 1 || len(bs[0].Txs) != 3 || bs[1].Number != 2 {
		t.Fatalf("blocks = %+v", bs)
	}
	if bs[1].PrevHash != bs[0].Hash {
		t.Fatal("hash chain broken")
	}
	if len(bs[0].Sigs) != 1 || bs[0].Sigs[0].Orderer != "orderer0" {
		t.Fatal("missing orderer signature")
	}
}

func TestTimeoutTriggeredBlock(t *testing.T) {
	c := newCluster(t, 1, ordering.Config{BlockSize: 100, BlockTimeout: 30 * time.Millisecond}, "peer0")
	submitLocal(c.orderers[0], mktx("only"))
	bs := c.waitBlocks("peer0", 1, 2*time.Second)
	if len(bs[0].Txs) != 1 {
		t.Fatalf("block = %+v", bs[0])
	}
}

func TestAllOrderersCutIdenticalBlocks(t *testing.T) {
	c := newCluster(t, 3, ordering.Config{BlockSize: 2, BlockTimeout: 50 * time.Millisecond},
		"peer0", "peer1", "peer2")
	for i := 0; i < 6; i++ {
		// Submit through different orderers.
		submitLocal(c.orderers[i%3], mktx(fmt.Sprintf("t%d", i)))
	}
	b0 := c.waitBlocks("peer0", 3, 2*time.Second)
	b1 := c.waitBlocks("peer1", 3, 2*time.Second)
	b2 := c.waitBlocks("peer2", 3, 2*time.Second)
	for i := 0; i < 3; i++ {
		if b0[i].Hash != b1[i].Hash || b1[i].Hash != b2[i].Hash {
			t.Fatalf("block %d differs across orderers", i)
		}
	}
}

func TestNetworkSubmission(t *testing.T) {
	c := newCluster(t, 1, ordering.Config{BlockSize: 1, BlockTimeout: time.Hour}, "peer0")
	client, err := c.net.Register("client", nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := ledger.MarshalTransaction(mktx("via-net"))
	if err := client.Send("orderer0", ordering.KindSubmit, payload); err != nil {
		t.Fatal(err)
	}
	bs := c.waitBlocks("peer0", 1, 2*time.Second)
	if bs[0].Txs[0].ID != "via-net" {
		t.Fatalf("tx = %+v", bs[0].Txs[0])
	}
}

func TestCheckpointInclusion(t *testing.T) {
	c := newCluster(t, 1, ordering.Config{BlockSize: 1, BlockTimeout: time.Hour}, "peer0")
	client, _ := c.net.Register("client", nil)
	cp := &ledger.Checkpoint{Peer: "peer0", Block: 1, WriteHash: ledger.Hash{7}}
	_ = client.Send("orderer0", ordering.KindCheckpoint, ledger.MarshalCheckpoint(cp))
	time.Sleep(20 * time.Millisecond)
	submitLocal(c.orderers[0], mktx("x"))
	bs := c.waitBlocks("peer0", 1, 2*time.Second)
	if len(bs[0].Checkpoints) != 1 || bs[0].Checkpoints[0].WriteHash != cp.WriteHash {
		t.Fatalf("checkpoints = %+v", bs[0].Checkpoints)
	}
}

func TestOrdererCrashToleratedByOthers(t *testing.T) {
	c := newCluster(t, 3, ordering.Config{BlockSize: 1, BlockTimeout: time.Hour},
		"peer0", "peer1", "peer2")
	c.orderers[0].Stop()
	submitLocal(c.orderers[1], mktx("after-crash"))
	// Peers of live orderers still receive the block.
	b1 := c.waitBlocks("peer1", 1, 2*time.Second)
	b2 := c.waitBlocks("peer2", 1, 2*time.Second)
	if b1[0].Hash != b2[0].Hash {
		t.Fatal("live orderers disagree")
	}
	// The crashed orderer's peer gets nothing.
	time.Sleep(50 * time.Millisecond)
	if len(c.peerBlocks("peer0")) != 0 {
		t.Fatal("crashed orderer delivered a block")
	}
}

func TestDuplicateSubmissionsIgnored(t *testing.T) {
	c := newCluster(t, 1, ordering.Config{BlockSize: 2, BlockTimeout: 30 * time.Millisecond}, "peer0")
	tx := mktx("dup")
	submitLocal(c.orderers[0], tx)
	submitLocal(c.orderers[0], tx)
	submitLocal(c.orderers[0], mktx("other"))
	bs := c.waitBlocks("peer0", 1, 2*time.Second)
	if len(bs[0].Txs) != 2 {
		t.Fatalf("block txs = %d (duplicate not dropped)", len(bs[0].Txs))
	}
}
