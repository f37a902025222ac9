package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// TestCrashPointSweep damages one node's data directory and restarts the
// node over every damaged copy with its peers up. For every file in the
// directory it takes a sample of offsets and every offset of the file's
// last 64 bytes, and at each one it makes two copies: one cut there, one
// with the byte there flipped. The test knows nothing of the files'
// formats. Each restart must end one of two ways:
//
//   - it converges on an always-up peer: the same state hash, the same
//     sys_ledger rows (but for local_xid, which is node-local), the same
//     checkpoint write hash for every block, and no alerts;
//   - it refuses to start. A refusal over a damaged chain (*.blocks)
//     names the file.
//
// The node crashes with its last two blocks committed but not sealed, so
// the last bytes of its chain and of its storage log (*.store.wal) are
// what a crash leaves unsynced: a cut anywhere in a file's last 64 bytes
// must converge for those two files.
func TestCrashPointSweep(t *testing.T) {
	for _, backend := range []storage.Kind{storage.KindMemory, storage.KindDisk} {
		t.Run(string(backend), func(t *testing.T) {
			t.Parallel()
			sweepCrashPoints(t, backend)
		})
	}
}

// sweepTail is how many final bytes of each file are swept offset by
// offset; sweepSamples is how many offsets are sampled before them.
const (
	sweepTail    = 64
	sweepSamples = 64
	sweepBlocks  = 12
)

// sweepChain is the victim's chain: three inserts per block, plus a
// committed transfer, an aborted one, a duplicate of an earlier block's
// id and a duplicate inside one block.
func sweepChain(tn *testNet) [][]*ledger.Transaction {
	i, f, s := types.NewInt, types.NewFloat, types.NewString
	put := func(id int64) *ledger.Transaction {
		return tn.buildTx("alice", "put_account", []types.Value{i(id), s("sweep"), f(float64(id))}, 0)
	}
	var chain [][]*ledger.Transaction
	for n := int64(1); n <= sweepBlocks; n++ {
		chain = append(chain, []*ledger.Transaction{put(100 * n), put(100*n + 1), put(100*n + 2)})
	}
	chain[1] = append(chain[1], tn.buildTx("bob", "transfer", []types.Value{i(1), i(2), f(25)}, 0))
	chain[2] = append(chain[2], tn.buildTx("carol", "transfer", []types.Value{i(3), i(1), f(1000)}, 0)) // insufficient funds
	chain[3] = append(chain[3], chain[0][0])
	chain[4] = append(chain[4], chain[4][1])
	return chain
}

// sweepView is what a converged node must agree on with the peer.
type sweepView struct {
	state  [32]byte
	rows   []ledgerRec
	hashes []ledger.Hash
	alerts []string
}

func viewOf(t *testing.T, n *Node) sweepView {
	t.Helper()
	v := sweepView{
		state:  n.StateHash(sweepBlocks),
		rows:   ledgerRecs(t, n, ledgerRowsQuery+` ORDER BY block, seq`),
		alerts: n.Alerts(),
	}
	for b := uint64(1); b <= sweepBlocks; b++ {
		out, ok := n.blocks.Outcome(b)
		if !ok {
			t.Fatalf("%s holds no outcome of block %d", n.Name(), b)
		}
		v.hashes = append(v.hashes, out.WriteHash)
	}
	return v
}

func sweepCrashPoints(t *testing.T, backend storage.Kind) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute, backend: backend, dataDirs: true,
		cfg: ordering.Config{BlockSize: 100, BlockTimeout: time.Hour}})
	victim := tn.nodes[1]
	var prev ledger.Hash
	for k, txs := range sweepChain(tn) {
		if k == sweepBlocks-2 {
			for _, n := range tn.nodes {
				waitSealedHeight(t, n, int64(k))
			}
			victim.sealPause.Store(true)
		}
		var b *ledger.Block
		for _, n := range tn.nodes {
			b = deliverScenarioBlock(tn, n, uint64(k+1), prev, txs)
		}
		prev = b.Hash
	}
	waitSealedHeight(t, tn.nodes[0], sweepBlocks)
	waitSealedHeight(t, tn.nodes[2], sweepBlocks)
	for deadline := time.Now().Add(10 * time.Second); victim.Height() < sweepBlocks; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("victim committed %d blocks, want %d", victim.Height(), sweepBlocks)
		}
	}
	want := viewOf(t, tn.nodes[0])
	if len(want.alerts) != 0 {
		t.Fatalf("peer alerts before the sweep: %q", want.alerts)
	}
	cfg := victim.cfg
	victim.crashForTest()

	entries, err := os.ReadDir(cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	var names []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(cfg.DataDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
		names = append(names, e.Name())
	}
	sort.Strings(names)

	dir := filepath.Join(t.TempDir(), "trial")
	restart := func(damaged string, data []byte) (*Node, error) {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, orig := range files {
			if name == damaged {
				orig = data
			}
			if err := os.WriteFile(filepath.Join(dir, name), orig, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c := cfg
		c.DataDir = dir
		n, err := NewNode(c, victim.signer, tn.netReg.Clone(), tn.net)
		if err != nil {
			return nil, err
		}
		if err = n.Bootstrap(Genesis{Certs: genesisCerts(tn), SQL: testGenesisSQL, Contracts: testContracts}); err == nil {
			err = n.Start()
		}
		if err != nil {
			n.Stop()
			return nil, err
		}
		return n, nil
	}

	for _, name := range names {
		orig := files[name]
		chain := strings.HasSuffix(name, ".blocks")
		tornTailConverges := chain || strings.HasSuffix(name, ".store.wal")
		var summary []string
		for _, kind := range []string{"cut", "flip"} {
			converged, refused := 0, 0
			for _, off := range sweepOffsets(len(orig)) {
				data := append([]byte(nil), orig[:off]...)
				if kind == "flip" {
					data = append(data, orig[off:]...)
					data[off] ^= 0x01
				}
				trial := fmt.Sprintf("%s %s at %d of %d", name, kind, off, len(orig))
				n, err := restart(name, data)
				if err != nil {
					refused++
					if chain && !strings.Contains(err.Error(), name) {
						t.Errorf("%s: refused without naming the file: %v", trial, err)
					}
					if kind == "cut" && tornTailConverges && off >= len(orig)-sweepTail {
						t.Errorf("%s: a torn tail must converge, the node refused: %v", trial, err)
					}
					continue
				}
				converged++
				deadline := time.Now().Add(10 * time.Second)
				for (n.Height() < sweepBlocks || n.SealedHeight() < sweepBlocks) && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n.SealedHeight() < sweepBlocks {
					t.Errorf("%s: started, but sealed only %d of %d blocks", trial, n.SealedHeight(), sweepBlocks)
				} else if got := viewOf(t, n); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: started, but diverged from the peer:\n got  %+v\n want %+v", trial, got, want)
				}
				n.Stop()
			}
			summary = append(summary, fmt.Sprintf("%d %ss: %d converged, %d refused", converged+refused, kind, converged, refused))
		}
		t.Logf("%s (%d bytes): %s", name, len(orig), strings.Join(summary, "; "))
	}
}

// sweepOffsets samples a file of size bytes: sweepSamples offsets spread
// over everything before the tail, then every offset of the tail.
func sweepOffsets(size int) []int {
	var offs []int
	body := max(size-sweepTail, 0)
	for k := 0; k < sweepSamples && body > 0; k++ {
		offs = append(offs, k*body/sweepSamples)
	}
	for off := body; off < size; off++ {
		offs = append(offs, off)
	}
	return offs
}
