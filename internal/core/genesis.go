// The genesis state every node starts from (§3.7), applied at block 0.

package core

import (
	"crypto/ed25519"
	"encoding/hex"
	"fmt"

	"bcrdb/internal/engine"
	"bcrdb/internal/proc"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// Genesis describes the identical initial state every node starts from
// (§3.7): client/admin certificates and optional initial DDL + data.
type Genesis struct {
	Certs []CertEntry
	// SQL statements (DDL and seed DML) applied at block 0 on every node.
	SQL []string
	// Contracts deployed at genesis (CREATE FUNCTION sources), bypassing
	// the runtime approval workflow (which governs post-genesis changes).
	Contracts []string
}

// CertEntry is one initial identity for sys_certs.
type CertEntry struct {
	Name   string
	Org    string
	Role   string // "admin" or "client"
	PubKey ed25519.PublicKey
}

// Bootstrap initializes system tables and applies the genesis state at
// block 0. Every node of the network must receive the same genesis. On a
// disk-backed node whose store was already restored by WAL replay the
// call is a no-op: the genesis state (including block 0's commits) came
// back with the replay.
func (n *Node) Bootstrap(g Genesis) error {
	if n.store.HasTable("sys_certs") {
		return nil
	}
	if err := proc.CreateSystemTables(n.eng); err != nil {
		return err
	}

	rec := storage.NewTxRecord(n.store.BeginTx(), 0)
	ctx := &engine.ExecCtx{Mode: engine.ModeSystem, Height: 0, Rec: rec}
	for _, c := range g.Certs {
		sub := *ctx
		sub.Params = []types.Value{
			types.NewString(c.Name), types.NewString(c.Org),
			types.NewString(c.Role), types.NewString(hex.EncodeToString(c.PubKey)),
		}
		_, err := n.eng.ExecSQL(&sub, `INSERT INTO sys_certs (name, org, role, pubkey) VALUES ($1, $2, $3, $4)`)
		if err != nil {
			n.store.AbortTx(rec)
			return fmt.Errorf("core: genesis cert %s: %w", c.Name, err)
		}
	}
	for _, src := range g.Contracts {
		p, err := proc.ParseCreateFunction(src)
		if err != nil {
			n.store.AbortTx(rec)
			return fmt.Errorf("core: genesis contract: %w", err)
		}
		sub := *ctx
		sub.Params = []types.Value{types.NewString(p.Name), types.NewString(src)}
		if _, err := n.eng.ExecSQL(&sub, `INSERT INTO sys_contracts (name, src) VALUES ($1, $2)`); err != nil {
			n.store.AbortTx(rec)
			return fmt.Errorf("core: genesis contract %s: %w", p.Name, err)
		}
	}
	for _, stmt := range g.SQL {
		if _, err := n.eng.ExecSQL(ctx, stmt); err != nil {
			n.store.AbortTx(rec)
			return fmt.Errorf("core: genesis SQL %q: %w", stmt, err)
		}
	}
	n.store.CommitTx(rec, 0)
	n.store.SetHeight(0)
	n.store.MarkDurable(0)
	return nil
}
