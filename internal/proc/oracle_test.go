package proc

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bcrdb/internal/engine"
	"bcrdb/internal/sqlparser"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// The oracle: the tree-walking interpreter that was this package's second
// execution path until PR 24, now the reference the compiled path is held
// to (ADR-0003). It walks the parsed procedure on every call, keeps
// variables in a by-name map and binds their current values into each SQL
// statement and expression as literals, so it asks nothing of the engine
// that the product does not use. procHarness.call runs every call of this
// package's tests through it on a twin store and compares what a replica
// could observe. It shares with the product what is not under comparison:
// the system contracts (Go), the source lookup and the parser.
//
// It counts the statement kinds it walks: test files are not coverage-
// instrumented, so the count is the proof that the reference ran the
// construct it is a reference for (TestOracleWalksEveryStatementKind).
type oracle struct {
	st      *storage.Store
	eng     *engine.Engine
	in      *Interp
	visited map[string]int
}

// oracleKinds is every statement kind the walk counts.
var oracleKinds = []string{
	"SQLStmt", "SQLStmt INTO", "Assign", "If arm", "If ELSIF", "If ELSE",
	"While", "Raise", "Return value", "Return bare", "Exit", "Continue",
	"DECLARE init",
}

func newOracle() *oracle {
	st := storage.NewStore()
	eng := engine.New(st)
	return &oracle{st: st, eng: eng, in: NewInterp(eng), visited: make(map[string]int)}
}

// call is Interp.Call with the walk in place of the compiled path.
func (o *oracle) call(ctx *engine.ExecCtx, name string, args []types.Value) (types.Value, error) {
	if _, ok := builtins[name]; ok {
		return o.in.Call(ctx, name, args)
	}
	src, err := o.in.contractSrc(ctx, name)
	if err != nil {
		return types.Null(), err
	}
	proc, err := o.in.procFor(src)
	if err != nil {
		return types.Null(), err
	}
	return o.invoke(ctx, proc, args)
}

// walk is one invocation: the variables live here, by name.
type walk struct {
	*oracle
	ctx  *engine.ExecCtx
	vars map[string]types.Value
}

func (o *oracle) invoke(ctx *engine.ExecCtx, proc *Procedure, args []types.Value) (types.Value, error) {
	if len(args) != len(proc.Params) {
		return types.Null(), fmt.Errorf("%w: %s expects %d, got %d",
			ErrArgCount, proc.Name, len(proc.Params), len(args))
	}
	w := &walk{oracle: o, ctx: ctx, vars: make(map[string]types.Value, len(proc.Params)+len(proc.Decls)+1)}
	for i, p := range proc.Params {
		v, err := types.CoerceToKind(args[i], p.Type)
		if err != nil {
			return types.Null(), fmt.Errorf("proc: %s arg %s: %v", proc.Name, p.Name, err)
		}
		w.vars[p.Name] = v
	}
	w.vars["current_user"] = types.NewString(ctx.User)

	// A declaration becomes visible after its own initializer ran.
	for _, d := range proc.Decls {
		if d.Init == nil {
			w.vars[d.Name] = types.Null()
			continue
		}
		o.visited["DECLARE init"]++
		v, err := w.evalExpr(d.Init)
		if err != nil {
			return types.Null(), err
		}
		cv, err := types.CoerceToKind(v, d.Type)
		if err != nil {
			return types.Null(), fmt.Errorf("proc: init of %s: %v", d.Name, err)
		}
		w.vars[d.Name] = cv
	}

	err := w.execStmts(proc.Body)
	var sig *ctrlSignal
	switch {
	case err == nil:
		return types.Null(), nil
	case !errors.As(err, &sig):
		return types.Null(), err
	case sig.kind != ctrlReturn:
		return types.Null(), fmt.Errorf("proc: %s: EXIT/CONTINUE outside loop", proc.Name)
	case proc.Returns != types.KindNull && !sig.val.IsNull():
		return types.CoerceToKind(sig.val, proc.Returns)
	}
	return sig.val, nil
}

func (w *walk) execStmts(stmts []Stmt) error {
	for _, s := range stmts {
		if err := w.execStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (w *walk) execStmt(s Stmt) error {
	switch st := s.(type) {
	case *SQLStmt:
		if len(st.IntoVars) == 0 {
			w.visited["SQLStmt"]++
		} else {
			w.visited["SQLStmt INTO"]++
		}
		res, err := w.eng.ExecPrepared(w.ctx, w.eng.Prepare(w.bindStatement(st.Stmt)))
		if err != nil {
			return err
		}
		if len(st.IntoVars) > 0 && len(res.Cols) < len(st.IntoVars) {
			return fmt.Errorf("proc: INTO expects %d columns, query returned %d", len(st.IntoVars), len(res.Cols))
		}
		for i, v := range st.IntoVars {
			if _, declared := w.vars[v]; !declared {
				return fmt.Errorf("proc: INTO target %q is not declared", v)
			}
			if len(res.Rows) == 0 {
				w.vars[v] = types.Null()
			} else {
				w.vars[v] = res.Rows[0][i]
			}
		}
		return nil

	case *Assign:
		w.visited["Assign"]++
		if _, declared := w.vars[st.Name]; !declared {
			return fmt.Errorf("proc: assignment to undeclared variable %q", st.Name)
		}
		v, err := w.evalExpr(st.Expr)
		if err != nil {
			return err
		}
		w.vars[st.Name] = v
		return nil

	case *If:
		for i, arm := range st.Arms {
			c, err := w.evalExpr(arm.Cond)
			if err != nil {
				return err
			}
			if c.Kind() == types.KindBool && c.Bool() {
				if i == 0 {
					w.visited["If arm"]++
				} else {
					w.visited["If ELSIF"]++
				}
				return w.execStmts(arm.Body)
			}
		}
		if st.Else != nil {
			w.visited["If ELSE"]++
		}
		return w.execStmts(st.Else)

	case *While:
		w.visited["While"]++
		for iter := 0; ; iter++ {
			if iter >= maxLoopIters {
				return fmt.Errorf("proc: loop exceeded %d iterations", maxLoopIters)
			}
			c, err := w.evalExpr(st.Cond)
			if err != nil {
				return err
			}
			if c.Kind() != types.KindBool || !c.Bool() {
				return nil
			}
			err = w.execStmts(st.Body)
			var sig *ctrlSignal
			switch {
			case err == nil:
			case errors.As(err, &sig) && sig.kind == ctrlExit:
				return nil
			case errors.As(err, &sig) && sig.kind == ctrlContinue:
			default:
				return err
			}
		}

	case *Raise:
		w.visited["Raise"]++
		v, err := w.evalExpr(st.Msg)
		if err != nil {
			return err
		}
		return &RaisedError{Msg: v.String()}

	case *Return:
		if st.Expr == nil {
			w.visited["Return bare"]++
			return &ctrlSignal{kind: ctrlReturn, val: types.Null()}
		}
		w.visited["Return value"]++
		v, err := w.evalExpr(st.Expr)
		if err != nil {
			return err
		}
		return &ctrlSignal{kind: ctrlReturn, val: v}

	case *Exit:
		w.visited["Exit"]++
		return &ctrlSignal{kind: ctrlExit}
	case *Continue:
		w.visited["Continue"]++
		return &ctrlSignal{kind: ctrlContinue}
	}
	return fmt.Errorf("proc: unknown statement %T", s)
}

// evalExpr evaluates a standalone procedural expression: no relation is
// in scope, names resolve to variables.
func (w *walk) evalExpr(e sqlparser.Expr) (types.Value, error) {
	return w.eng.EvalScalar(w.ctx, w.bindExpr(e, nil))
}

// bindExpr replaces the unqualified ColumnRefs that name a variable with
// its current value, except when the name is also a column of a table in
// scope (columns win). cols is nil when no relation is in scope.
func (w *walk) bindExpr(e sqlparser.Expr, cols map[string]bool) sqlparser.Expr {
	return sqlparser.RewriteExpr(e, func(n sqlparser.Expr) sqlparser.Expr {
		c, ok := n.(*sqlparser.ColumnRef)
		if !ok || c.Table != "" || cols[c.Column] {
			return n
		}
		v, isVar := w.vars[c.Column]
		if !isVar {
			return n
		}
		return &sqlparser.Literal{Val: v}
	})
}

// bindStatement binds the variables of one SQL statement. The columns in
// scope are the union of the referenced tables' columns; an INSERT's value
// lists have no relation in scope.
func (w *walk) bindStatement(stmt sqlparser.Statement) sqlparser.Statement {
	colsOf := func(tables ...string) map[string]bool {
		out := make(map[string]bool)
		for _, tn := range tables {
			t, err := w.st.Table(tn)
			if err != nil {
				continue
			}
			for _, c := range t.Schema().Columns {
				out[c.Name] = true
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
				nrow[i] = w.bindExpr(e, nil)
			}
			out.Rows = append(out.Rows, nrow)
		}
		return out

	case *sqlparser.Update:
		cols := colsOf(s.Table)
		out := &sqlparser.Update{Table: s.Table, Where: w.bindExpr(s.Where, cols)}
		for _, sc := range s.Set {
			out.Set = append(out.Set, sqlparser.SetClause{Column: sc.Column, Value: w.bindExpr(sc.Value, cols)})
		}
		return out

	case *sqlparser.Delete:
		return &sqlparser.Delete{Table: s.Table, Where: w.bindExpr(s.Where, colsOf(s.Table))}

	case *sqlparser.Select:
		cols := colsOf(sqlparser.StatementTables(s)...)
		out := *s // the parsed statement is shared: every expression is rebuilt
		out.Items, out.Joins, out.GroupBy, out.OrderBy = nil, nil, nil, nil
		out.Where = w.bindExpr(s.Where, cols)
		out.Having = w.bindExpr(s.Having, cols)
		out.Limit = w.bindExpr(s.Limit, cols)
		out.Offset = w.bindExpr(s.Offset, cols)
		for _, it := range s.Items {
			it.Expr = w.bindExpr(it.Expr, cols)
			out.Items = append(out.Items, it)
		}
		for _, j := range s.Joins {
			j.On = w.bindExpr(j.On, cols)
			out.Joins = append(out.Joins, j)
		}
		for _, g := range s.GroupBy {
			out.GroupBy = append(out.GroupBy, w.bindExpr(g, cols))
		}
		for _, ob := range s.OrderBy {
			ob.Expr = w.bindExpr(ob.Expr, cols)
			out.OrderBy = append(out.OrderBy, ob)
		}
		return &out
	}
	return stmt
}

// visitedLine renders the counts, and names the kinds never walked.
func (o *oracle) visitedLine() (line string, missing []string) {
	parts := make([]string, len(oracleKinds))
	for i, k := range oracleKinds {
		parts[i] = fmt.Sprintf("%s=%d", k, o.visited[k])
		if o.visited[k] == 0 {
			missing = append(missing, k)
		}
	}
	return strings.Join(parts, ", "), missing
}

// TestOracleWalksEveryStatementKind is the proof that the reference runs:
// one contract that holds every procedural construct, called so that each
// is reached, through the harness (so each call is also a compiled-vs-
// oracle comparison), and the oracle's own count of what it walked.
func TestOracleWalksEveryStatementKind(t *testing.T) {
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE tour_log (id BIGINT PRIMARY KEY, note TEXT)`)
	h.deploy(`CREATE FUNCTION tour(n BIGINT) RETURNS BIGINT AS $$
	DECLARE
		i BIGINT := 0;
		acc BIGINT := n - n;
		seen BIGINT;
		probe BIGINT := 7;
	BEGIN
		INSERT INTO tour_log VALUES (n, 'by ' || current_user);
		WHILE TRUE LOOP
			i := i + 1;
			IF i > n THEN
				EXIT;
			ELSIF i % 2 = 0 THEN
				CONTINUE;
			ELSE
				acc := acc + i;
			END IF;
		END LOOP;
		SELECT COUNT(*) INTO seen FROM tour_log;
		SELECT id INTO probe FROM tour_log WHERE id = -1;
		IF acc > 100 THEN
			RAISE EXCEPTION 'too big: ' || acc;
		END IF;
		IF n = 0 THEN
			RETURN;
		END IF;
		RETURN acc * 10 + seen + COALESCE(probe, 0);
	END;
	$$`)
	if v := h.mustCall("alice", "tour", types.NewInt(5)); v.Int() != 91 { // (1+3+5)*10 + 1 row + 0: no row, so INTO nulled probe
		t.Fatalf("tour(5) = %v", v)
	}
	if v := h.mustCall("alice", "tour", types.NewInt(0)); !v.IsNull() {
		t.Fatalf("tour(0) = %v, want NULL from the bare RETURN", v)
	}
	if _, err := h.call("alice", "tour", types.NewInt(30)); err == nil || !strings.Contains(err.Error(), "too big: 225") {
		t.Fatalf("tour(30): %v", err)
	}
	line, missing := h.ref.visitedLine()
	t.Logf("oracle walked: %s", line)
	if len(missing) > 0 {
		t.Fatalf("the oracle never walked %v: the differential compared nothing for them", missing)
	}
}
