package engine

import (
	"sync"
	"sync/atomic"

	"bcrdb/internal/sqlparser"
)

// Prepared is a statement with a stable identity: every execution goes
// through the same value, so the physical plan built on first use (see
// plan.go) is found again without a lookup. The engine's statement cache
// holds one per SQL text and a compiled contract holds one per embedded
// statement; a statement nobody keeps (Engine.Exec) gets a throwaway
// Prepared and runs through the same code uncached.
//
// The plan is node-local and must never leak into anything a replica can
// observe: it is a pure function of (catalog epoch, statement, bounds
// shape), so an execution that finds it and one that rebuilds it behave
// identically (docs/adr/0007-prepared-plans.md).
type Prepared struct {
	stmt sqlparser.Statement
	plan atomic.Pointer[queryPlan] // nil until first executed; replaced when the schema epoch moves
}

// Prepare wraps a parsed statement for repeated execution. The statement
// must not be mutated afterwards.
func (e *Engine) Prepare(stmt sqlparser.Statement) *Prepared {
	return &Prepared{stmt: stmt}
}

// maxStmtCache bounds the text→statement cache.
const maxStmtCache = 4096

// stmtCache maps SQL text to its Prepared statement in two generations,
// like identity's verification memo: inserts fill the young map; when it
// holds half the bound it becomes the old generation and the previous old
// generation — every statement not used since the rotation before — is
// dropped together with its plan. A hit in the old generation moves the
// entry back to the young one, so the statements a workload keeps running
// (contract lookups, contract bodies) survive any number of rotations,
// while a client inlining literals can only ever displace other one-off
// texts.
type stmtCache struct {
	mu         sync.RWMutex
	young, old map[string]*Prepared
}

func (c *stmtCache) get(sql string) *Prepared {
	c.mu.RLock()
	p, young := c.young[sql]
	if !young {
		p = c.old[sql]
	}
	c.mu.RUnlock()
	if p != nil && !young {
		return c.put(sql, p)
	}
	return p
}

// put caches p under sql and returns the entry that ends up cached (an
// earlier one if another goroutine got there first).
func (c *stmtCache) put(sql string, p *Prepared) *Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.young[sql]; ok {
		return cur
	}
	if c.young == nil || len(c.young) >= maxStmtCache/2 {
		c.old = c.young
		c.young = make(map[string]*Prepared, maxStmtCache/2)
	}
	if cur, ok := c.old[sql]; ok {
		p = cur
	}
	c.young[sql] = p
	return p
}
