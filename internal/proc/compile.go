package proc

import (
	"errors"
	"fmt"

	"bcrdb/internal/engine"
	"bcrdb/internal/sqlparser"
	"bcrdb/internal/types"
)

// Compile-once, run-many contract execution: the only way a deployed
// procedure runs. The work that depends on the source and the catalog
// alone is done once per (source, schema epoch):
//
//   - variables are assigned frame slots; VarRef.Slot lets the engine
//     read ctx.Frame directly — it knows variables no other way;
//   - embedded SQL statements are bound at compile time and wrapped in an
//     engine.Prepared, so every invocation runs the statement off the
//     physical plan its first execution built;
//   - procedural expressions evaluate through engine.EvalScalar.
//
// The language's name resolution (ADR-0003) is held in place by the
// tree-walking oracle of oracle_test.go, which every call of this
// package's tests also runs through:
//
//   - "columns win": an unqualified name that is both a variable and a
//     column of a table in scope stays a column reference. Because the
//     catalog can change under DDL, a Compiled records the
//     storage.SchemaEpoch it was built at and is recompiled when the
//     epoch moves;
//   - declaration-order visibility: a DECLARE initializer sees only
//     parameters, current_user and earlier declarations;
//   - undeclared INTO targets and assignment targets are *runtime*
//     errors — a compile-time rejection would abort the invocations
//     that never reach the faulty statement.

// Compiled is a procedure lowered to slot-addressed statements, valid
// for one schema epoch.
type Compiled struct {
	proc   *Procedure
	epoch  uint64
	nSlots int
	decls  []cDecl
	body   []cStmt
}

// cDecl is one DECLARE-section variable with its bound initializer.
type cDecl struct {
	name string
	slot int
	typ  types.Kind
	init sqlparser.Expr // bound at compile time; nil → NULL
}

// cStmt mirrors Stmt with variables resolved to frame slots and SQL
// pre-bound.
type cStmt interface{ compiledStmt() }

type cSQL struct {
	stmt      *engine.Prepared // bound; shared by all invocations, carries the plan
	intoSlots []int            // -1 = undeclared (runtime error)
	intoNames []string
}

type cAssign struct {
	name string
	slot int // -1 = undeclared (runtime error)
	expr sqlparser.Expr
}

type cArm struct {
	cond sqlparser.Expr
	body []cStmt
}

type cIf struct {
	arms []cArm
	els  []cStmt
}

type cWhile struct {
	cond sqlparser.Expr
	body []cStmt
}

type cRaise struct{ msg sqlparser.Expr }

type cReturn struct{ expr sqlparser.Expr } // expr may be nil

type cExit struct{}

type cContinue struct{}

func (*cSQL) compiledStmt()      {}
func (*cAssign) compiledStmt()   {}
func (*cIf) compiledStmt()       {}
func (*cWhile) compiledStmt()    {}
func (*cRaise) compiledStmt()    {}
func (*cReturn) compiledStmt()   {}
func (*cExit) compiledStmt()     {}
func (*cContinue) compiledStmt() {}

type compiler struct {
	eng   *engine.Engine
	slots map[string]int // visible name → frame slot (grows during decls)
}

// compileProcedure lowers proc against the catalog at the given epoch.
// It cannot fail: anything it cannot resolve is left for the runtime to
// report.
func compileProcedure(eng *engine.Engine, proc *Procedure, epoch uint64) *Compiled {
	c := &compiler{eng: eng, slots: make(map[string]int, len(proc.Params)+len(proc.Decls)+1)}
	out := &Compiled{proc: proc, epoch: epoch}

	// Frame layout: params, then current_user, then decls. Shadowing
	// follows map semantics — the latest binding of a name wins.
	for i, p := range proc.Params {
		c.slots[p.Name] = i
	}
	c.slots["current_user"] = len(proc.Params)
	next := len(proc.Params) + 1

	// Each initializer is bound before its own name becomes visible, so
	// forward or self references stay unresolved ColumnRefs and fail at
	// runtime.
	for _, d := range proc.Decls {
		cd := cDecl{name: d.Name, slot: next, typ: d.Type}
		if d.Init != nil {
			cd.init = c.rewrite(d.Init, nil)
		}
		c.slots[d.Name] = next
		next++
		out.decls = append(out.decls, cd)
	}
	out.nSlots = next
	out.body = c.stmts(proc.Body)
	return out
}

// rewrite turns unqualified ColumnRefs naming visible variables into
// slot-addressed VarRefs, except when the name is also a column of a
// table in scope (columns win, as in PL/pgSQL's default conflict
// resolution — name your parameters distinctly). cols is nil when no
// relation is in scope.
func (c *compiler) rewrite(e sqlparser.Expr, cols map[string]bool) sqlparser.Expr {
	if e == nil {
		return nil
	}
	return sqlparser.RewriteExpr(e, func(n sqlparser.Expr) sqlparser.Expr {
		cr, ok := n.(*sqlparser.ColumnRef)
		if !ok || cr.Table != "" {
			return n
		}
		slot, isVar := c.slots[cr.Column]
		if !isVar {
			return n
		}
		if cols != nil && cols[cr.Column] {
			return n
		}
		return &sqlparser.VarRef{Name: cr.Column, Slot: slot + 1}
	})
}

// statement binds the variable references of one SQL statement so the
// planner sees them as constants (index bounds). The columns in scope are
// the union of the referenced tables' columns; an INSERT's value lists
// have no relation in scope. The result is immutable and shared across
// invocations.
func (c *compiler) statement(stmt sqlparser.Statement) sqlparser.Statement {
	st := c.eng.Store()
	colsOf := func(tables []string) map[string]bool {
		out := make(map[string]bool)
		for _, tn := range tables {
			t, err := st.Table(tn)
			if err != nil {
				continue
			}
			for _, col := range t.Schema().Columns {
				out[col.Name] = true
			}
		}
		return out
	}

	switch s := stmt.(type) {
	case *sqlparser.Insert:
		out := &sqlparser.Insert{Table: s.Table, Columns: s.Columns}
		for _, row := range s.Rows {
			nrow := make([]sqlparser.Expr, len(row))
			for i, e := range row {
				nrow[i] = c.rewrite(e, nil)
			}
			out.Rows = append(out.Rows, nrow)
		}
		return out

	case *sqlparser.Update:
		cols := colsOf([]string{s.Table})
		out := &sqlparser.Update{Table: s.Table}
		for _, sc := range s.Set {
			out.Set = append(out.Set, sqlparser.SetClause{
				Column: sc.Column, Value: c.rewrite(sc.Value, cols),
			})
		}
		out.Where = c.rewrite(s.Where, cols)
		return out

	case *sqlparser.Delete:
		cols := colsOf([]string{s.Table})
		return &sqlparser.Delete{Table: s.Table, Where: c.rewrite(s.Where, cols)}

	case *sqlparser.Select:
		cols := colsOf(sqlparser.StatementTables(s))
		out := &sqlparser.Select{
			Distinct:   s.Distinct,
			From:       s.From,
			Provenance: s.Provenance,
		}
		for _, it := range s.Items {
			nit := it
			nit.Expr = c.rewrite(it.Expr, cols)
			out.Items = append(out.Items, nit)
		}
		for _, j := range s.Joins {
			nj := j
			nj.On = c.rewrite(j.On, cols)
			out.Joins = append(out.Joins, nj)
		}
		out.Where = c.rewrite(s.Where, cols)
		for _, g := range s.GroupBy {
			out.GroupBy = append(out.GroupBy, c.rewrite(g, cols))
		}
		out.Having = c.rewrite(s.Having, cols)
		for _, o := range s.OrderBy {
			no := o
			no.Expr = c.rewrite(o.Expr, cols)
			out.OrderBy = append(out.OrderBy, no)
		}
		out.Limit = c.rewrite(s.Limit, cols)
		out.Offset = c.rewrite(s.Offset, cols)
		return out

	default:
		return stmt
	}
}

func (c *compiler) stmts(in []Stmt) []cStmt {
	out := make([]cStmt, 0, len(in))
	for _, s := range in {
		out = append(out, c.stmt(s))
	}
	return out
}

func (c *compiler) stmt(s Stmt) cStmt {
	switch st := s.(type) {
	case *SQLStmt:
		cs := &cSQL{stmt: c.eng.Prepare(c.statement(st.Stmt)), intoNames: st.IntoVars}
		for _, v := range st.IntoVars {
			slot, ok := c.slots[v]
			if !ok {
				slot = -1
			}
			cs.intoSlots = append(cs.intoSlots, slot)
		}
		return cs

	case *Assign:
		slot, ok := c.slots[st.Name]
		if !ok {
			slot = -1
		}
		return &cAssign{name: st.Name, slot: slot, expr: c.rewrite(st.Expr, nil)}

	case *If:
		out := &cIf{els: c.stmts(st.Else)}
		for _, arm := range st.Arms {
			out.arms = append(out.arms, cArm{cond: c.rewrite(arm.Cond, nil), body: c.stmts(arm.Body)})
		}
		return out

	case *While:
		return &cWhile{cond: c.rewrite(st.Cond, nil), body: c.stmts(st.Body)}

	case *Raise:
		return &cRaise{msg: c.rewrite(st.Msg, nil)}

	case *Return:
		out := &cReturn{}
		if st.Expr != nil {
			out.expr = c.rewrite(st.Expr, nil)
		}
		return out

	case *Exit:
		return &cExit{}
	case *Continue:
		return &cContinue{}
	}
	// Unknown statements surface at runtime.
	return nil
}

// invokeCompiled runs a compiled procedure.
func (in *Interp) invokeCompiled(ctx *engine.ExecCtx, c *Compiled, args []types.Value) (types.Value, error) {
	proc := c.proc
	if len(args) != len(proc.Params) {
		return types.Null(), fmt.Errorf("%w: %s expects %d, got %d",
			ErrArgCount, proc.Name, len(proc.Params), len(args))
	}
	frame := make([]types.Value, c.nSlots)
	for i, p := range proc.Params {
		v, err := types.CoerceToKind(args[i], p.Type)
		if err != nil {
			return types.Null(), fmt.Errorf("proc: %s arg %s: %v", proc.Name, p.Name, err)
		}
		frame[i] = v
	}
	frame[len(proc.Params)] = types.NewString(ctx.User)

	// The caller's ExecCtx is reused: leave its frame as it was.
	saved := ctx.Frame
	ctx.Frame = frame
	defer func() { ctx.Frame = saved }()

	for _, d := range c.decls {
		if d.init != nil {
			v, err := in.eng.EvalScalar(ctx, d.init)
			if err != nil {
				return types.Null(), err
			}
			cv, err := types.CoerceToKind(v, d.typ)
			if err != nil {
				return types.Null(), fmt.Errorf("proc: init of %s: %v", d.name, err)
			}
			frame[d.slot] = cv
		} else {
			frame[d.slot] = types.Null()
		}
	}

	err := in.runCompiled(ctx, c.body)
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

func (in *Interp) runCompiled(ctx *engine.ExecCtx, stmts []cStmt) error {
	for _, s := range stmts {
		if err := in.runCompiledStmt(ctx, s); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) runCompiledStmt(ctx *engine.ExecCtx, s cStmt) error {
	switch st := s.(type) {
	case *cSQL:
		res, err := in.eng.ExecPrepared(ctx, st.stmt)
		if err != nil {
			return err
		}
		if len(st.intoSlots) > 0 {
			if len(res.Cols) < len(st.intoSlots) {
				return fmt.Errorf("proc: INTO expects %d columns, query returned %d", len(st.intoSlots), len(res.Cols))
			}
			for i, slot := range st.intoSlots {
				if slot < 0 {
					return fmt.Errorf("proc: INTO target %q is not declared", st.intoNames[i])
				}
				if len(res.Rows) == 0 {
					ctx.Frame[slot] = types.Null()
				} else {
					ctx.Frame[slot] = res.Rows[0][i]
				}
			}
		}
		return nil

	case *cAssign:
		if st.slot < 0 {
			return fmt.Errorf("proc: assignment to undeclared variable %q", st.name)
		}
		v, err := in.eng.EvalScalar(ctx, st.expr)
		if err != nil {
			return err
		}
		ctx.Frame[st.slot] = v
		return nil

	case *cIf:
		for _, arm := range st.arms {
			c, err := in.eng.EvalScalar(ctx, arm.cond)
			if err != nil {
				return err
			}
			if c.Kind() == types.KindBool && c.Bool() {
				return in.runCompiled(ctx, arm.body)
			}
		}
		return in.runCompiled(ctx, st.els)

	case *cWhile:
		for iter := 0; ; iter++ {
			if iter >= maxLoopIters {
				return fmt.Errorf("proc: loop exceeded %d iterations", maxLoopIters)
			}
			c, err := in.eng.EvalScalar(ctx, st.cond)
			if err != nil {
				return err
			}
			if c.Kind() != types.KindBool || !c.Bool() {
				return nil
			}
			err = in.runCompiled(ctx, st.body)
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

	case *cRaise:
		v, err := in.eng.EvalScalar(ctx, st.msg)
		if err != nil {
			return err
		}
		return &RaisedError{Msg: v.String()}

	case *cReturn:
		sig := &ctrlSignal{kind: ctrlReturn, val: types.Null()}
		if st.expr != nil {
			v, err := in.eng.EvalScalar(ctx, st.expr)
			if err != nil {
				return err
			}
			sig.val = v
		}
		return sig

	case *cExit:
		return &ctrlSignal{kind: ctrlExit}
	case *cContinue:
		return &ctrlSignal{kind: ctrlContinue}
	}
	return fmt.Errorf("proc: unknown statement %T", s)
}
