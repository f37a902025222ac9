// Package engine implements SQL execution over the versioned store:
// planning (index selection), expression evaluation, joins, aggregation,
// ordering and DML, all with the read/range tracking that the SSI layer
// and commit-turn validation consume.
//
// Everything the engine does is deterministic given (statement, snapshot
// height, chain prefix): scans iterate in index-key order with primary-key
// tie-breaks, groups are emitted in key order, ORDER BY carries an
// implicit total tie-break, and LIMIT without ORDER BY is rejected in
// contract mode (§4.3 of the paper).
package engine

import (
	"errors"
	"fmt"
	"sync/atomic"

	"bcrdb/internal/sqlparser"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// Mode selects execution behavior.
type Mode uint8

// Execution modes.
const (
	// ModeContract: deterministic smart-contract execution with full
	// read/write tracking. RequireIndex additionally applies in the
	// execute-order-in-parallel flow.
	ModeContract Mode = iota
	// ModeReadOnly: plain queries outside the blockchain flow (§3.7:
	// individual SELECTs are read-only and unrecorded). No tracking.
	// May combine blockchain and private tables (cross-schema
	// analytics).
	ModeReadOnly
	// ModeSystem: node-internal writes (system tables, bootstrap).
	ModeSystem
	// ModePrivate: transactions on the node's non-blockchain schema
	// (§3.7) — node-local tables invisible to consensus.
	ModePrivate
)

// ExecCtx carries the execution context for one statement or procedure.
type ExecCtx struct {
	Rec    *storage.TxRecord // read/write tracking target (nil in ModeReadOnly)
	Height int64             // snapshot block height
	Mode   Mode
	// RequireIndex enforces §4.3: every predicate read must go through an
	// index; unindexable scans abort the transaction. Set for the
	// execute-order-in-parallel flow.
	RequireIndex bool
	Params       []types.Value // $N bindings (1-based)
	// Frame holds the executing contract's variables by slot: a VarRef
	// reads Frame[Slot-1]. Nil outside contract execution.
	Frame []types.Value
	User  string // invoking user (for sys contracts)
	// AllowSystemWrites lets the built-in system contracts (§3.7) write
	// to system tables from within ModeContract. User contracts never
	// get this.
	AllowSystemWrites bool
	// SystemDDL marks CREATE TABLE statements as creating system tables
	// (set only by the bootstrap path).
	SystemDDL bool
}

// DDLClass determines the schema class a CREATE TABLE in this context
// produces: contracts and genesis SQL create replicated blockchain
// tables; private transactions create node-local tables; the bootstrap
// path creates system tables.
func (c *ExecCtx) DDLClass() storage.SchemaClass {
	switch {
	case c.SystemDDL:
		return storage.ClassSystem
	case c.Mode == ModePrivate:
		return storage.ClassPrivate
	default:
		return storage.ClassBlockchain
	}
}

// snapshotHeight returns the height reads should use.
func (c *ExecCtx) snapshotHeight() int64 { return c.Height }

func (c *ExecCtx) selfID() storage.TxID {
	if c.Rec != nil {
		return c.Rec.ID
	}
	return 0
}

func (c *ExecCtx) tracking() bool {
	return c.Rec != nil && !c.Rec.ReadOnly && c.Mode == ModeContract
}

// Result is the outcome of one statement.
type Result struct {
	Cols     []string // shared with the statement's plan: do not modify
	Rows     []types.Row
	Affected int
}

// Engine executes SQL against a storage backend (memory or disk — the
// engine is backend-agnostic; see storage.Backend).
//
// The execute hot path re-runs the same handful of statements (the
// per-transaction authentication and contract-lookup queries, contract
// bodies), so the engine keeps a bounded cache from SQL text to the
// Prepared statement — parsed once, and carrying its physical plan (see
// plancache.go, plan.go). Parsed ASTs are never mutated by execution.
type Engine struct {
	store storage.Backend

	stmts stmtCache

	planHits, planMisses atomic.Int64
}

// New returns an engine over the given storage backend.
func New(st storage.Backend) *Engine { return &Engine{store: st} }

// Store exposes the underlying storage backend (used by the node core).
func (e *Engine) Store() storage.Backend { return e.store }

// Execution errors.
var (
	ErrReadOnlyCtx     = errors.New("engine: write attempted in read-only context")
	ErrNoIndex         = errors.New("engine: no usable index for predicate (required in execute-order-in-parallel flow, §4.3)")
	ErrBlindUpdate     = errors.New("engine: blind updates are not supported in this flow (§3.4.3)")
	ErrLimitNeedsOrder = errors.New("engine: LIMIT requires ORDER BY in deterministic contract mode (§4.3)")
	ErrDDLInContract   = errors.New("engine: DDL statements are not allowed inside smart contracts")
	ErrSysColumn       = errors.New("engine: system columns are only visible to provenance queries (§4.3)")
	ErrSchemaClass     = errors.New("engine: schema-class violation (§3.7: contracts use the blockchain schema, private transactions the non-blockchain schema)")
)

// refuseDerived rejects a statement that would modify a derived table —
// its rows, its indexes or its existence — whatever the mode: there is
// nothing stored to modify.
func (e *Engine) refuseDerived(table string) error {
	if t, err := e.store.Table(table); err == nil && t.Derived() {
		return fmt.Errorf("%w: %q is derived and cannot be written", ErrSchemaClass, table)
	}
	return nil
}

// checkWriteClass enforces the §3.7 schema rules for a table a statement
// is about to modify.
func (e *Engine) checkWriteClass(ctx *ExecCtx, table string) error {
	t, err := e.store.Table(table)
	if err != nil {
		return err
	}
	class := t.Schema().Class
	switch ctx.Mode {
	case ModeSystem:
		return nil
	case ModeContract:
		if class == storage.ClassBlockchain {
			return nil
		}
		if class == storage.ClassSystem && ctx.AllowSystemWrites {
			return nil
		}
	case ModePrivate:
		if class == storage.ClassPrivate {
			return nil
		}
	}
	return fmt.Errorf("%w: cannot write %s table %q in this mode", ErrSchemaClass, className(class), table)
}

func className(c storage.SchemaClass) string {
	switch c {
	case storage.ClassBlockchain:
		return "blockchain"
	case storage.ClassPrivate:
		return "private"
	case storage.ClassSystem:
		return "system"
	}
	return "?"
}

// ExecSQL parses and executes a single statement. Statements are cached by
// text, so repeats share one parse and one plan.
func (e *Engine) ExecSQL(ctx *ExecCtx, sql string) (*Result, error) {
	pr := e.stmts.get(sql)
	if pr == nil {
		stmt, err := sqlparser.ParseStatement(sql)
		if err != nil {
			return nil, err
		}
		pr = e.stmts.put(sql, e.Prepare(stmt))
	}
	return e.ExecPrepared(ctx, pr)
}

// EvalScalar evaluates a scalar expression with no relation in scope —
// procedure-language conditions, assignments and defaults.
func (e *Engine) EvalScalar(ctx *ExecCtx, x sqlparser.Expr) (types.Value, error) {
	env := evalEnv{ctx: ctx}
	return env.eval(x)
}

// PlanCacheStats reports how many executions of a SELECT, UPDATE or DELETE
// found their plan and access path prepared (hits) and how many had to
// build one (misses) — hot-path observability for benchmarks and tests.
func (e *Engine) PlanCacheStats() (hits, misses int64) {
	return e.planHits.Load(), e.planMisses.Load()
}

// ExecPrepared executes a prepared statement.
func (e *Engine) ExecPrepared(ctx *ExecCtx, pr *Prepared) (*Result, error) {
	switch s := pr.stmt.(type) {
	case *sqlparser.Select:
		return e.execSelect(ctx, pr, s)
	case *sqlparser.Explain:
		return e.execExplain(ctx, pr, s)
	case *sqlparser.Insert:
		return e.execInsert(ctx, s)
	case *sqlparser.Update:
		return e.execUpdate(ctx, pr, s)
	case *sqlparser.Delete:
		return e.execDelete(ctx, pr, s)
	case *sqlparser.CreateTable:
		return e.execCreateTable(ctx, s)
	case *sqlparser.CreateIndex:
		return e.execCreateIndex(ctx, s)
	case *sqlparser.DropTable:
		return e.execDropTable(ctx, s)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", pr.stmt)
	}
}

// --- DDL ---------------------------------------------------------------------

// checkDDLCtx rejects DDL in contexts that must not alter the catalog:
// read-only queries and smart contracts (§3.7: schema changes ride in
// genesis SQL or the node-private schema, never inside contracts — which
// also keeps catalog changes out of block processing, an invariant the
// disk backend's WAL frame stamping relies on).
func checkDDLCtx(ctx *ExecCtx) error {
	switch ctx.Mode {
	case ModeReadOnly:
		return ErrReadOnlyCtx
	case ModeContract:
		return ErrDDLInContract
	}
	return nil
}

func (e *Engine) execCreateTable(ctx *ExecCtx, s *sqlparser.CreateTable) (*Result, error) {
	if err := checkDDLCtx(ctx); err != nil {
		return nil, err
	}
	if len(s.PrimaryKey) == 0 {
		return nil, fmt.Errorf("engine: table %s must declare a primary key", s.Name)
	}
	schema := storage.Schema{Name: s.Name, Class: ctx.DDLClass()}
	cols, err := e.storageColumns(ctx, s.Columns)
	if err != nil {
		return nil, err
	}
	schema.Columns = cols
	for _, pk := range s.PrimaryKey {
		idx := schema.ColIndex(pk)
		if idx < 0 {
			return nil, fmt.Errorf("engine: primary key column %q not in table %s", pk, s.Name)
		}
		schema.PKCols = append(schema.PKCols, idx)
	}
	if err := e.store.CreateTable(schema); err != nil {
		if s.IfNotExists && errors.Is(err, storage.ErrTableExists) {
			return &Result{}, nil
		}
		return nil, err
	}
	// Column-level UNIQUE constraints become unique secondary indexes.
	for _, c := range s.Columns {
		if c.Unique && !c.PrimaryKey {
			ord := schema.ColIndex(c.Name)
			name := s.Name + "_" + c.Name + "_key"
			if err := e.store.CreateIndex(s.Name, name, []int{ord}, true); err != nil {
				return nil, err
			}
		}
	}
	return &Result{}, nil
}

func (e *Engine) execCreateIndex(ctx *ExecCtx, s *sqlparser.CreateIndex) (*Result, error) {
	if err := e.refuseDerived(s.Table); err != nil {
		return nil, err
	}
	if err := checkDDLCtx(ctx); err != nil {
		return nil, err
	}
	t, err := e.store.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	var cols []int
	for _, c := range s.Columns {
		idx := schema.ColIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("engine: column %q not in table %s", c, s.Table)
		}
		cols = append(cols, idx)
	}
	if err := e.store.CreateIndex(s.Table, s.Name, cols, s.Unique); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) execDropTable(ctx *ExecCtx, s *sqlparser.DropTable) (*Result, error) {
	if err := e.refuseDerived(s.Name); err != nil {
		return nil, err
	}
	if err := checkDDLCtx(ctx); err != nil {
		return nil, err
	}
	if err := e.store.DropTable(s.Name); err != nil {
		if s.IfExists && errors.Is(err, storage.ErrNoSuchTable) {
			return &Result{}, nil
		}
		return nil, err
	}
	return &Result{}, nil
}
