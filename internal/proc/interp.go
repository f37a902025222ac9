package proc

import (
	"errors"
	"fmt"
	"sync"

	"bcrdb/internal/engine"
	"bcrdb/internal/sqlparser"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// maxLoopIters bounds every WHILE loop so a buggy contract cannot stall
// block processing (execution must terminate identically on all nodes).
const maxLoopIters = 1_000_000

// Interp executes contracts against an engine.
type Interp struct {
	eng       *engine.Engine
	cache     sync.Map // source text → *Procedure
	ccache    sync.Map // source text → *Compiled (one schema epoch each)
	interpret bool     // force the tree-walking path (A/B and testing)
}

// NewInterp returns an interpreter bound to the engine. Contracts run
// through the compiled path by default; SetCompiled(false) selects the
// tree-walking interpreter.
func NewInterp(eng *engine.Engine) *Interp { return &Interp{eng: eng} }

// SetCompiled toggles the compiled execution path. Call before serving
// transactions; it is not synchronized against in-flight invocations.
func (in *Interp) SetCompiled(on bool) { in.interpret = !on }

// Engine returns the underlying engine.
func (in *Interp) Engine() *engine.Engine { return in.eng }

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
	if !in.interpret {
		c, err := in.lookupCompiled(src)
		if err != nil {
			return types.Null(), err
		}
		return in.invokeCompiled(ctx, c, args)
	}
	proc, err := in.procFor(src)
	if err != nil {
		return types.Null(), err
	}
	return in.invoke(ctx, proc, args)
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

// invoke runs a parsed procedure.
func (in *Interp) invoke(ctx *engine.ExecCtx, proc *Procedure, args []types.Value) (types.Value, error) {
	if len(args) != len(proc.Params) {
		return types.Null(), fmt.Errorf("%w: %s expects %d, got %d",
			ErrArgCount, proc.Name, len(proc.Params), len(args))
	}
	vars := make(map[string]types.Value, len(proc.Params)+len(proc.Decls)+1)
	for i, p := range proc.Params {
		v, err := types.CoerceToKind(args[i], p.Type)
		if err != nil {
			return types.Null(), fmt.Errorf("proc: %s arg %s: %v", proc.Name, p.Name, err)
		}
		vars[p.Name] = v
	}
	vars["current_user"] = types.NewString(ctx.User)

	// Nested calls save and restore the variable frame.
	saved := ctx.Vars
	ctx.Vars = vars
	defer func() { ctx.Vars = saved }()

	for _, d := range proc.Decls {
		if d.Init != nil {
			v, err := in.evalExpr(ctx, d.Init)
			if err != nil {
				return types.Null(), err
			}
			cv, err := types.CoerceToKind(v, d.Type)
			if err != nil {
				return types.Null(), fmt.Errorf("proc: init of %s: %v", d.Name, err)
			}
			vars[d.Name] = cv
		} else {
			vars[d.Name] = types.Null()
		}
	}

	err := in.execStmts(ctx, proc.Body)
	if err != nil {
		var sig *ctrlSignal
		if errors.As(err, &sig) {
			switch sig.kind {
			case ctrlReturn:
				if proc.Returns != types.KindNull && !sig.val.IsNull() {
					return types.CoerceToKind(sig.val, proc.Returns)
				}
				return sig.val, nil
			default:
				return types.Null(), fmt.Errorf("proc: %s: EXIT/CONTINUE outside loop", proc.Name)
			}
		}
		return types.Null(), err
	}
	return types.Null(), nil
}

func (in *Interp) execStmts(ctx *engine.ExecCtx, stmts []Stmt) error {
	for _, s := range stmts {
		if err := in.execStmt(ctx, s); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execStmt(ctx *engine.ExecCtx, s Stmt) error {
	switch st := s.(type) {
	case *SQLStmt:
		bound := bindStatement(in.eng, st.Stmt, ctx.Vars)
		res, err := in.eng.Exec(ctx, bound)
		if err != nil {
			return err
		}
		if len(st.IntoVars) > 0 {
			if len(st.IntoVars) > 0 && len(res.Cols) < len(st.IntoVars) {
				return fmt.Errorf("proc: INTO expects %d columns, query returned %d", len(st.IntoVars), len(res.Cols))
			}
			for i, v := range st.IntoVars {
				if _, declared := ctx.Vars[v]; !declared {
					return fmt.Errorf("proc: INTO target %q is not declared", v)
				}
				if len(res.Rows) == 0 {
					ctx.Vars[v] = types.Null()
				} else {
					ctx.Vars[v] = res.Rows[0][i]
				}
			}
		}
		return nil

	case *Assign:
		if _, declared := ctx.Vars[st.Name]; !declared {
			return fmt.Errorf("proc: assignment to undeclared variable %q", st.Name)
		}
		v, err := in.evalExpr(ctx, st.Expr)
		if err != nil {
			return err
		}
		ctx.Vars[st.Name] = v
		return nil

	case *If:
		for _, arm := range st.Arms {
			c, err := in.evalExpr(ctx, arm.Cond)
			if err != nil {
				return err
			}
			if c.Kind() == types.KindBool && c.Bool() {
				return in.execStmts(ctx, arm.Body)
			}
		}
		return in.execStmts(ctx, st.Else)

	case *While:
		for iter := 0; ; iter++ {
			if iter >= maxLoopIters {
				return fmt.Errorf("proc: loop exceeded %d iterations", maxLoopIters)
			}
			c, err := in.evalExpr(ctx, st.Cond)
			if err != nil {
				return err
			}
			if c.Kind() != types.KindBool || !c.Bool() {
				return nil
			}
			err = in.execStmts(ctx, st.Body)
			if err != nil {
				var sig *ctrlSignal
				if errors.As(err, &sig) {
					if sig.kind == ctrlExit {
						return nil
					}
					if sig.kind == ctrlContinue {
						continue
					}
				}
				return err
			}
		}

	case *Raise:
		v, err := in.evalExpr(ctx, st.Msg)
		if err != nil {
			return err
		}
		return &RaisedError{Msg: v.String()}

	case *Return:
		sig := &ctrlSignal{kind: ctrlReturn, val: types.Null()}
		if st.Expr != nil {
			v, err := in.evalExpr(ctx, st.Expr)
			if err != nil {
				return err
			}
			sig.val = v
		}
		return sig

	case *Exit:
		return &ctrlSignal{kind: ctrlExit}
	case *Continue:
		return &ctrlSignal{kind: ctrlContinue}
	}
	return fmt.Errorf("proc: unknown statement %T", s)
}

// evalExpr evaluates a standalone procedural expression (no relation in
// scope; names resolve to variables). Scalar subqueries are not
// supported — use SELECT ... INTO.
func (in *Interp) evalExpr(ctx *engine.ExecCtx, e sqlparser.Expr) (types.Value, error) {
	bound := bindExpr(e, ctx.Vars, nil)
	sel := &sqlparser.Select{Items: []sqlparser.SelectItem{{Expr: bound}}}
	res, err := in.eng.Exec(ctx, sel)
	if err != nil {
		return types.Null(), err
	}
	return res.Rows[0][0], nil
}
