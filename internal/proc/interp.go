package proc

import (
	"errors"
	"fmt"
	"sync"

	"bcrdb/internal/engine"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// maxLoopIters bounds every WHILE loop so a buggy contract cannot stall
// block processing (execution must terminate identically on all nodes).
const maxLoopIters = 1_000_000

// Interp executes contracts against an engine. A deployed procedure has
// one way to run: lowered once per schema epoch (compile.go) and executed
// off frame slots and prepared statements.
type Interp struct {
	eng    *engine.Engine
	cache  sync.Map // source text → *Procedure
	ccache sync.Map // source text → *Compiled (one schema epoch each)
}

// NewInterp returns an interpreter bound to the engine.
func NewInterp(eng *engine.Engine) *Interp { return &Interp{eng: eng} }

// Interpreter errors.
var (
	ErrUnknownContract = errors.New("proc: unknown contract")
	ErrArgCount        = errors.New("proc: wrong number of arguments")
	ErrNotAdmin        = errors.New("proc: operation requires an organization admin")
)

// RaisedError is produced by RAISE EXCEPTION; it aborts the transaction.
type RaisedError struct{ Msg string }

func (e *RaisedError) Error() string { return "proc: exception: " + e.Msg }

// control-flow sentinels (internal).
type ctrlKind uint8

const (
	ctrlReturn ctrlKind = iota
	ctrlExit
	ctrlContinue
)

type ctrlSignal struct {
	kind ctrlKind
	val  types.Value
}

func (c *ctrlSignal) Error() string { return "proc: internal control signal" }

// CreateSystemTables creates the replicated system tables: sys_contracts
// (the MVCC-versioned contract registry), sys_deployments (the §3.7
// deployment workflow) and sys_certs (pgCerts). sys_ledger (pgLedger) is
// not among them: the node derives it from the chain (core/ledgerview.go).
func CreateSystemTables(eng *engine.Engine) error {
	st := eng.Store()
	rec := storage.NewTxRecord(st.BeginTx(), 0)
	ctx := &engine.ExecCtx{Mode: engine.ModeSystem, Rec: rec, SystemDDL: true}
	ddl := []string{
		`CREATE TABLE sys_contracts (name TEXT PRIMARY KEY, src TEXT NOT NULL)`,
		`CREATE TABLE sys_deployments (
			id BIGINT PRIMARY KEY, proposer TEXT NOT NULL, sqltext TEXT NOT NULL,
			status TEXT NOT NULL, approvals TEXT, rejections TEXT, comments TEXT)`,
		`CREATE TABLE sys_certs (
			name TEXT PRIMARY KEY, org TEXT NOT NULL, role TEXT NOT NULL, pubkey TEXT)`,
		`CREATE INDEX sys_certs_role ON sys_certs (role)`,
	}
	for _, d := range ddl {
		if _, err := eng.ExecSQL(ctx, d); err != nil {
			st.AbortTx(rec)
			return err
		}
	}
	st.AbortTx(rec) // DDL is not versioned; the record carried no writes
	return nil
}

// Call invokes a contract (system builtin or deployed procedure) by name
// within the given execution context. The contract's reads and writes all
// flow through ctx.Rec, so SSI sees them like any other transaction.
func (in *Interp) Call(ctx *engine.ExecCtx, name string, args []types.Value) (types.Value, error) {
	if b, ok := builtins[name]; ok {
		return b(in, ctx, args)
	}
	src, err := in.contractSrc(ctx, name)
	if err != nil {
		return types.Null(), err
	}
	c, err := in.lookupCompiled(src)
	if err != nil {
		return types.Null(), err
	}
	return in.invokeCompiled(ctx, c, args)
}

// contractSrc fetches the contract source visible at the snapshot.
// Reading sys_contracts inside the transaction means a concurrent
// contract upgrade aborts this transaction through the ordinary
// stale-read rule — the behavior §3.7 requires.
func (in *Interp) contractSrc(ctx *engine.ExecCtx, name string) (string, error) {
	sub := *ctx
	sub.Params = []types.Value{types.NewString(name)}
	res, err := in.eng.ExecSQL(&sub, `SELECT src FROM sys_contracts WHERE name = $1`)
	if err != nil {
		return "", err
	}
	if len(res.Rows) == 0 {
		return "", fmt.Errorf("%w: %s", ErrUnknownContract, name)
	}
	return res.Rows[0][0].Str(), nil
}

// procFor parses a contract source (cached by source text).
func (in *Interp) procFor(src string) (*Procedure, error) {
	if cached, ok := in.cache.Load(src); ok {
		return cached.(*Procedure), nil
	}
	proc, err := ParseCreateFunction(src)
	if err != nil {
		return nil, err
	}
	in.cache.Store(src, proc)
	return proc, nil
}

// lookupCompiled returns the compiled form of src for the current
// schema epoch, recompiling after any DDL ("columns win" binding and
// cached plans both depend on the catalog).
func (in *Interp) lookupCompiled(src string) (*Compiled, error) {
	epoch := in.eng.Store().SchemaEpoch()
	if v, ok := in.ccache.Load(src); ok {
		if c := v.(*Compiled); c.epoch == epoch {
			return c, nil
		}
	}
	proc, err := in.procFor(src)
	if err != nil {
		return nil, err
	}
	c := compileProcedure(in.eng, proc, epoch)
	in.ccache.Store(src, c)
	return c, nil
}
