package ordering

import (
	"fmt"
	"testing"
	"time"

	"bcrdb/internal/ledger"
	"bcrdb/internal/types"
)

func tx(id string) *ledger.Transaction {
	return &ledger.Transaction{ID: id, Username: "u", Contract: "c",
		Args: []types.Value{types.NewInt(1)}}
}

func TestCutterSizeCut(t *testing.T) {
	c := NewCutter(Config{BlockSize: 3, BlockTimeout: time.Hour})
	if b := c.AddTx(tx("a"), 1); b != nil {
		t.Fatal("premature cut")
	}
	if b := c.AddTx(tx("b"), 2); b != nil {
		t.Fatal("premature cut")
	}
	b := c.AddTx(tx("c"), 3)
	if b == nil || b.Number != 1 || len(b.Txs) != 3 || b.Timestamp != 3 {
		t.Fatalf("block = %+v", b)
	}
	if c.Pending() != 0 || c.NextBlock() != 2 {
		t.Fatalf("cutter state: pending=%d next=%d", c.Pending(), c.NextBlock())
	}
	// Chain linkage.
	b2 := mustCut(t, c, []string{"d", "e", "f"})
	if b2.PrevHash != b.Hash || b2.Number != 2 {
		t.Fatalf("linkage broken: %+v", b2)
	}
}

func mustCut(t *testing.T, c *Cutter, ids []string) *ledger.Block {
	t.Helper()
	var b *ledger.Block
	for i, id := range ids {
		b = c.AddTx(tx(id), int64(i))
	}
	if b == nil {
		t.Fatal("expected cut")
	}
	return b
}

func TestCutterDeduplicates(t *testing.T) {
	c := NewCutter(Config{BlockSize: 2, BlockTimeout: time.Hour})
	c.AddTx(tx("a"), 1)
	if c.AddTx(tx("a"), 2) != nil || c.Pending() != 1 {
		t.Fatal("duplicate id should be dropped")
	}
}

func TestCutterTimeToCut(t *testing.T) {
	c := NewCutter(Config{BlockSize: 100, BlockTimeout: time.Hour})
	c.AddTx(tx("a"), 1)
	// TTC for the wrong block number is ignored.
	if b := c.TimeToCut(5, 2); b != nil {
		t.Fatal("wrong-number TTC cut a block")
	}
	b := c.TimeToCut(1, 9)
	if b == nil || len(b.Txs) != 1 || b.Timestamp != 9 {
		t.Fatalf("block = %+v", b)
	}
	// Duplicate TTC (now targeting an old number) is ignored.
	if b := c.TimeToCut(1, 10); b != nil {
		t.Fatal("duplicate TTC cut a block")
	}
	// Empty TTC ignored.
	if b := c.TimeToCut(2, 11); b != nil {
		t.Fatal("empty TTC cut a block")
	}
}

func TestCutterCheckpointsRideNextBlock(t *testing.T) {
	c := NewCutter(Config{BlockSize: 1, BlockTimeout: time.Hour})
	cp := &ledger.Checkpoint{Peer: "p1", Block: 9, WriteHash: ledger.Hash{1}}
	c.AddCheckpoint(cp)
	c.AddCheckpoint(cp) // dedupe by (peer, block)
	b := c.AddTx(tx("a"), 1)
	if len(b.Checkpoints) != 1 || b.Checkpoints[0].Peer != "p1" {
		t.Fatalf("checkpoints = %+v", b.Checkpoints)
	}
	b2 := c.AddTx(tx("b"), 2)
	if len(b2.Checkpoints) != 0 {
		t.Fatal("checkpoints must not repeat")
	}
}

func TestCuttersAreDeterministic(t *testing.T) {
	// Two cutters fed the same stream produce identical blocks.
	mk := func() []*ledger.Block {
		c := NewCutter(Config{BlockSize: 2, BlockTimeout: time.Hour})
		var out []*ledger.Block
		for i := 0; i < 10; i++ {
			if b := c.AddTx(tx(fmt.Sprintf("t%d", i)), int64(i)); b != nil {
				out = append(out, b)
			}
		}
		return out
	}
	a, b := mk(), mk()
	if len(a) != len(b) || len(a) != 5 {
		t.Fatalf("blocks: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Hash != b[i].Hash {
			t.Fatalf("block %d hash mismatch", i)
		}
	}
}

func TestCutterOversizeBatchSplits(t *testing.T) {
	c := NewCutter(Config{BlockSize: 2, BlockTimeout: time.Hour})
	var blocks []*ledger.Block
	for i := 0; i < 5; i++ {
		if b := c.AddTx(tx(fmt.Sprintf("x%d", i)), int64(i)); b != nil {
			blocks = append(blocks, b)
		}
	}
	if len(blocks) != 2 || c.Pending() != 1 {
		t.Fatalf("blocks=%d pending=%d", len(blocks), c.Pending())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.BlockSize != 100 || c.BlockTimeout != 100*time.Millisecond {
		t.Fatalf("defaults = %+v", c)
	}
	c2 := Config{BlockSize: 7, BlockTimeout: time.Second}.WithDefaults()
	if c2.BlockSize != 7 || c2.BlockTimeout != time.Second {
		t.Fatalf("explicit = %+v", c2)
	}
}
