package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"bcrdb/internal/sqlparser"
	"bcrdb/internal/types"
)

// relCol is one column of the relation a statement's expressions are
// resolved against when it is prepared.
type relCol struct {
	alias string // table alias
	name  string
	ref   *sqlparser.BoundCol // what a reference to this column is rewritten to
}

// relSchema is the name scope of a prepared statement: the columns of its
// FROM table followed by those of each JOIN, in order.
type relSchema struct {
	cols []relCol
}

// resolve finds the ordinal for a (possibly qualified) column reference.
func (rs *relSchema) resolve(alias, name string) (int, error) {
	found := -1
	for i, c := range rs.cols {
		if c.name != name {
			continue
		}
		if alias != "" && c.alias != alias {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("engine: ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		if alias != "" {
			return -1, fmt.Errorf("engine: unknown column %s.%s", alias, name)
		}
		return -1, fmt.Errorf("engine: unknown column %q", name)
	}
	return found, nil
}

// evalEnv is the evaluation environment for one row.
type evalEnv struct {
	ctx *ExecCtx
	// rows holds the current row of every input of the statement, indexed
	// by BoundCol.Src (nil when no relation is in scope).
	rows []types.Row
	// aggs holds the current group's aggregate values, indexed by
	// AggRef.Idx (set only while a grouped query emits its groups).
	aggs []types.Value
	// unbound maps the column references preparing could not resolve to
	// the error resolution gave; evaluating one reports it.
	unbound map[*sqlparser.ColumnRef]error
}

// eval evaluates an expression in this environment.
func (env *evalEnv) eval(e sqlparser.Expr) (types.Value, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return x.Val, nil

	case *sqlparser.Param:
		if env.ctx == nil || x.N > len(env.ctx.Params) {
			return types.Null(), fmt.Errorf("engine: parameter $%d not bound", x.N)
		}
		return env.ctx.Params[x.N-1], nil

	case *sqlparser.VarRef:
		// Contracts are compiled with their variables resolved to frame
		// slots; the engine knows no variable by name.
		if x.Slot > 0 && env.ctx != nil && x.Slot <= len(env.ctx.Frame) {
			return env.ctx.Frame[x.Slot-1], nil
		}
		return types.Null(), fmt.Errorf("engine: unknown variable %q", x.Name)

	case *sqlparser.BoundCol:
		return env.rows[x.Src][x.Ord], nil

	case *sqlparser.AggRef:
		if x.Idx >= len(env.aggs) {
			return types.Null(), fmt.Errorf("engine: aggregate %s used outside grouped query", x.Name)
		}
		return env.aggs[x.Idx], nil

	case *sqlparser.ColumnRef:
		// Preparing a statement rewrites every resolvable reference to a
		// BoundCol, so what arrives here resolved to no column.
		if err, ok := env.unbound[x]; ok {
			return types.Null(), err
		}
		return types.Null(), fmt.Errorf("engine: no table in scope for column %q", x.Column)

	case *sqlparser.Unary:
		v, err := env.eval(x.X)
		if err != nil {
			return types.Null(), err
		}
		return evalUnary(x.Op, v)

	case *sqlparser.Binary:
		return env.evalBinary(x)

	case *sqlparser.IsNull:
		v, err := env.eval(x.X)
		if err != nil {
			return types.Null(), err
		}
		return types.NewBool(v.IsNull() != x.Not), nil

	case *sqlparser.InList:
		v, err := env.eval(x.X)
		if err != nil {
			return types.Null(), err
		}
		if v.IsNull() {
			return types.Null(), nil
		}
		anyNull := false
		for _, item := range x.List {
			iv, err := env.eval(item)
			if err != nil {
				return types.Null(), err
			}
			if iv.IsNull() {
				anyNull = true
				continue
			}
			if types.Equal(v, iv) {
				return types.NewBool(!x.Not), nil
			}
		}
		if anyNull {
			return types.Null(), nil
		}
		return types.NewBool(x.Not), nil

	case *sqlparser.Between:
		v, err := env.eval(x.X)
		if err != nil {
			return types.Null(), err
		}
		lo, err := env.eval(x.Lo)
		if err != nil {
			return types.Null(), err
		}
		hi, err := env.eval(x.Hi)
		if err != nil {
			return types.Null(), err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return types.Null(), nil
		}
		in := types.Compare(v, lo) >= 0 && types.Compare(v, hi) <= 0
		return types.NewBool(in != x.Not), nil

	case *sqlparser.Like:
		v, err := env.eval(x.X)
		if err != nil {
			return types.Null(), err
		}
		p, err := env.eval(x.Pattern)
		if err != nil {
			return types.Null(), err
		}
		if v.IsNull() || p.IsNull() {
			return types.Null(), nil
		}
		if v.Kind() != types.KindString || p.Kind() != types.KindString {
			return types.Null(), fmt.Errorf("engine: LIKE requires TEXT operands")
		}
		return types.NewBool(matchLike(v.Str(), p.Str()) != x.Not), nil

	case *sqlparser.FuncCall:
		if sqlparser.AggregateFuncs[x.Name] {
			return types.Null(), fmt.Errorf("engine: aggregate %s used outside grouped query", x.Name)
		}
		return env.evalScalarFunc(x)

	case *sqlparser.CaseExpr:
		for _, w := range x.Whens {
			c, err := env.eval(w.Cond)
			if err != nil {
				return types.Null(), err
			}
			if truthy(c) {
				return env.eval(w.Then)
			}
		}
		if x.Else != nil {
			return env.eval(x.Else)
		}
		return types.Null(), nil

	case *sqlparser.Cast:
		v, err := env.eval(x.X)
		if err != nil {
			return types.Null(), err
		}
		return castValue(v, x.To)

	default:
		return types.Null(), fmt.Errorf("engine: unsupported expression %T", e)
	}
}

// truthy interprets a value as a filter outcome (SQL: NULL acts false).
func truthy(v types.Value) bool {
	return v.Kind() == types.KindBool && v.Bool()
}

func evalUnary(op string, v types.Value) (types.Value, error) {
	if v.IsNull() {
		return types.Null(), nil
	}
	switch op {
	case "-":
		switch v.Kind() {
		case types.KindInt:
			return types.NewInt(-v.Int()), nil
		case types.KindFloat:
			return types.NewFloat(-v.Float()), nil
		}
		return types.Null(), fmt.Errorf("engine: unary - on %s", v.Kind())
	case "NOT":
		if v.Kind() != types.KindBool {
			return types.Null(), fmt.Errorf("engine: NOT on %s", v.Kind())
		}
		return types.NewBool(!v.Bool()), nil
	}
	return types.Null(), fmt.Errorf("engine: unknown unary %q", op)
}

func (env *evalEnv) evalBinary(x *sqlparser.Binary) (types.Value, error) {
	// AND/OR need SQL three-valued logic with short-circuiting.
	if x.Op == "AND" || x.Op == "OR" {
		l, err := env.eval(x.L)
		if err != nil {
			return types.Null(), err
		}
		if x.Op == "AND" && l.Kind() == types.KindBool && !l.Bool() {
			return types.NewBool(false), nil
		}
		if x.Op == "OR" && l.Kind() == types.KindBool && l.Bool() {
			return types.NewBool(true), nil
		}
		r, err := env.eval(x.R)
		if err != nil {
			return types.Null(), err
		}
		return evalLogic(x.Op, l, r)
	}

	l, err := env.eval(x.L)
	if err != nil {
		return types.Null(), err
	}
	r, err := env.eval(x.R)
	if err != nil {
		return types.Null(), err
	}
	if l.IsNull() || r.IsNull() {
		return types.Null(), nil
	}

	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if !comparable(l, r) {
			return types.Null(), fmt.Errorf("engine: cannot compare %s with %s", l.Kind(), r.Kind())
		}
		c := types.Compare(l, r)
		var out bool
		switch x.Op {
		case "=":
			out = c == 0
		case "<>":
			out = c != 0
		case "<":
			out = c < 0
		case "<=":
			out = c <= 0
		case ">":
			out = c > 0
		case ">=":
			out = c >= 0
		}
		return types.NewBool(out), nil

	case "+", "-", "*", "/", "%":
		return evalArith(x.Op, l, r)

	case "||":
		return types.NewString(stringify(l) + stringify(r)), nil
	}
	return types.Null(), fmt.Errorf("engine: unknown operator %q", x.Op)
}

func evalLogic(op string, l, r types.Value) (types.Value, error) {
	lb, lNull := boolOrNull(l)
	rb, rNull := boolOrNull(r)
	if !lNull && l.Kind() != types.KindBool || !rNull && r.Kind() != types.KindBool {
		return types.Null(), fmt.Errorf("engine: %s requires boolean operands", op)
	}
	if op == "AND" {
		switch {
		case !lNull && !lb, !rNull && !rb:
			return types.NewBool(false), nil
		case lNull || rNull:
			return types.Null(), nil
		default:
			return types.NewBool(true), nil
		}
	}
	switch {
	case !lNull && lb, !rNull && rb:
		return types.NewBool(true), nil
	case lNull || rNull:
		return types.Null(), nil
	default:
		return types.NewBool(false), nil
	}
}

func boolOrNull(v types.Value) (val bool, isNull bool) {
	if v.IsNull() {
		return false, true
	}
	if v.Kind() == types.KindBool {
		return v.Bool(), false
	}
	return false, false
}

// comparable reports whether two non-null values share a comparison domain.
func comparable(l, r types.Value) bool {
	if l.IsNumeric() && r.IsNumeric() {
		return true
	}
	return l.Kind() == r.Kind()
}

func evalArith(op string, l, r types.Value) (types.Value, error) {
	if !l.IsNumeric() || !r.IsNumeric() {
		return types.Null(), fmt.Errorf("engine: %s requires numeric operands, got %s and %s", op, l.Kind(), r.Kind())
	}
	if l.Kind() == types.KindInt && r.Kind() == types.KindInt {
		a, b := l.Int(), r.Int()
		switch op {
		case "+":
			return types.NewInt(a + b), nil
		case "-":
			return types.NewInt(a - b), nil
		case "*":
			return types.NewInt(a * b), nil
		case "/":
			if b == 0 {
				return types.Null(), fmt.Errorf("engine: division by zero")
			}
			return types.NewInt(a / b), nil
		case "%":
			if b == 0 {
				return types.Null(), fmt.Errorf("engine: division by zero")
			}
			return types.NewInt(a % b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case "+":
		return types.NewFloat(a + b), nil
	case "-":
		return types.NewFloat(a - b), nil
	case "*":
		return types.NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return types.Null(), fmt.Errorf("engine: division by zero")
		}
		return types.NewFloat(a / b), nil
	case "%":
		return types.Null(), fmt.Errorf("engine: %% requires integer operands")
	}
	return types.Null(), fmt.Errorf("engine: unknown arithmetic %q", op)
}

func stringify(v types.Value) string {
	if v.IsNull() {
		return ""
	}
	return v.String()
}

// castValue implements CAST(x AS kind).
func castValue(v types.Value, to types.Kind) (types.Value, error) {
	if v.IsNull() {
		return types.Null(), nil
	}
	if v.Kind() == to {
		return v, nil
	}
	switch to {
	case types.KindInt:
		switch v.Kind() {
		case types.KindFloat:
			f := v.Float()
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return types.Null(), fmt.Errorf("engine: cannot cast %v to BIGINT", f)
			}
			return types.NewInt(int64(math.RoundToEven(f))), nil
		case types.KindString:
			n, err := strconv.ParseInt(strings.TrimSpace(v.Str()), 10, 64)
			if err != nil {
				return types.Null(), fmt.Errorf("engine: cannot cast %q to BIGINT", v.Str())
			}
			return types.NewInt(n), nil
		case types.KindBool:
			if v.Bool() {
				return types.NewInt(1), nil
			}
			return types.NewInt(0), nil
		}
	case types.KindFloat:
		switch v.Kind() {
		case types.KindInt:
			return types.NewFloat(float64(v.Int())), nil
		case types.KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.Str()), 64)
			if err != nil {
				return types.Null(), fmt.Errorf("engine: cannot cast %q to DOUBLE", v.Str())
			}
			return types.NewFloat(f), nil
		}
	case types.KindString:
		return types.NewString(v.String()), nil
	case types.KindBool:
		switch v.Kind() {
		case types.KindInt:
			return types.NewBool(v.Int() != 0), nil
		case types.KindString:
			s := strings.ToLower(strings.TrimSpace(v.Str()))
			switch s {
			case "true", "t", "1":
				return types.NewBool(true), nil
			case "false", "f", "0":
				return types.NewBool(false), nil
			}
		}
	}
	return types.Null(), fmt.Errorf("engine: cannot cast %s to %s", v.Kind(), to)
}

// evalScalarFunc evaluates the deterministic scalar function library.
// Nondeterministic builtins (time, random, sequences) deliberately do not
// exist (§2(1), §4.3).
func (env *evalEnv) evalScalarFunc(x *sqlparser.FuncCall) (types.Value, error) {
	args := make([]types.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := env.eval(a)
		if err != nil {
			return types.Null(), err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("engine: %s expects %d argument(s), got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "ABS":
		if err := need(1); err != nil {
			return types.Null(), err
		}
		v := args[0]
		if v.IsNull() {
			return types.Null(), nil
		}
		switch v.Kind() {
		case types.KindInt:
			if v.Int() < 0 {
				return types.NewInt(-v.Int()), nil
			}
			return v, nil
		case types.KindFloat:
			return types.NewFloat(math.Abs(v.Float())), nil
		}
		return types.Null(), fmt.Errorf("engine: ABS on %s", v.Kind())
	case "LENGTH":
		if err := need(1); err != nil {
			return types.Null(), err
		}
		if args[0].IsNull() {
			return types.Null(), nil
		}
		if args[0].Kind() != types.KindString {
			return types.Null(), fmt.Errorf("engine: LENGTH on %s", args[0].Kind())
		}
		return types.NewInt(int64(len(args[0].Str()))), nil
	case "LOWER", "UPPER":
		if err := need(1); err != nil {
			return types.Null(), err
		}
		if args[0].IsNull() {
			return types.Null(), nil
		}
		if args[0].Kind() != types.KindString {
			return types.Null(), fmt.Errorf("engine: %s on %s", x.Name, args[0].Kind())
		}
		if x.Name == "LOWER" {
			return types.NewString(strings.ToLower(args[0].Str())), nil
		}
		return types.NewString(strings.ToUpper(args[0].Str())), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return types.Null(), nil
	case "ROUND":
		if err := need(1); err != nil {
			return types.Null(), err
		}
		if args[0].IsNull() {
			return types.Null(), nil
		}
		if !args[0].IsNumeric() {
			return types.Null(), fmt.Errorf("engine: ROUND on %s", args[0].Kind())
		}
		return types.NewFloat(math.Round(args[0].Float())), nil
	case "FLOOR":
		if err := need(1); err != nil {
			return types.Null(), err
		}
		if args[0].IsNull() {
			return types.Null(), nil
		}
		if !args[0].IsNumeric() {
			return types.Null(), fmt.Errorf("engine: FLOOR on %s", args[0].Kind())
		}
		return types.NewFloat(math.Floor(args[0].Float())), nil
	case "CEILING", "CEIL":
		if err := need(1); err != nil {
			return types.Null(), err
		}
		if args[0].IsNull() {
			return types.Null(), nil
		}
		if !args[0].IsNumeric() {
			return types.Null(), fmt.Errorf("engine: %s on %s", x.Name, args[0].Kind())
		}
		return types.NewFloat(math.Ceil(args[0].Float())), nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return types.Null(), fmt.Errorf("engine: %s expects 2 or 3 arguments", x.Name)
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null(), nil
		}
		s := args[0].Str()
		start := int(args[1].Int()) - 1 // 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(args) == 3 && !args[2].IsNull() {
			if n := int(args[2].Int()); start+n < end {
				end = start + n
			}
		}
		return types.NewString(s[start:end]), nil
	case "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(stringify(a))
		}
		return types.NewString(sb.String()), nil
	case "GREATEST", "LEAST":
		if len(args) == 0 {
			return types.Null(), fmt.Errorf("engine: %s needs arguments", x.Name)
		}
		best := types.Null()
		for _, a := range args {
			if a.IsNull() {
				continue
			}
			if best.IsNull() {
				best = a
				continue
			}
			c := types.Compare(a, best)
			if (x.Name == "GREATEST" && c > 0) || (x.Name == "LEAST" && c < 0) {
				best = a
			}
		}
		return best, nil
	}
	return types.Null(), fmt.Errorf("engine: unknown function %s (nondeterministic builtins are not available in contracts)", x.Name)
}

// matchLike implements SQL LIKE with % and _ wildcards.
func matchLike(s, pattern string) bool {
	// Dynamic programming over the pattern.
	return likeHelper(s, pattern)
}

func likeHelper(s, p string) bool {
	// Iterative two-pointer with backtracking on %.
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			ss++
			si, pi = ss, star+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// exprKey renders an expression as canonical SQL-like text: structurally
// equal expressions render equally and different ones differently, which
// is what GROUP BY matching needs; EXPLAIN prints predicates with it.
func exprKey(e sqlparser.Expr) string {
	list := func(xs []sqlparser.Expr) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = exprKey(x)
		}
		return strings.Join(parts, ", ")
	}
	not := func(b bool) string {
		if b {
			return " NOT"
		}
		return ""
	}
	switch x := e.(type) {
	case *sqlparser.Literal:
		if x.Val.Kind() == types.KindFloat && !strings.ContainsAny(x.Val.String(), ".eIN") {
			return x.Val.String() + ".0" // keep 1.0 apart from 1
		}
		return x.Val.SQLLiteral()
	case *sqlparser.ColumnRef:
		if x.Table == "" {
			return x.Column
		}
		return x.Table + "." + x.Column
	case *sqlparser.Param:
		return "$" + strconv.Itoa(x.N)
	case *sqlparser.VarRef:
		return ":" + x.Name
	case *sqlparser.Unary:
		return x.Op + " (" + exprKey(x.X) + ")"
	case *sqlparser.Binary:
		return "(" + exprKey(x.L) + " " + x.Op + " " + exprKey(x.R) + ")"
	case *sqlparser.IsNull:
		return "(" + exprKey(x.X) + " IS" + not(x.Not) + " NULL)"
	case *sqlparser.InList:
		return "(" + exprKey(x.X) + not(x.Not) + " IN (" + list(x.List) + "))"
	case *sqlparser.Between:
		return "(" + exprKey(x.X) + not(x.Not) + " BETWEEN " + exprKey(x.Lo) + " AND " + exprKey(x.Hi) + ")"
	case *sqlparser.Like:
		return "(" + exprKey(x.X) + not(x.Not) + " LIKE " + exprKey(x.Pattern) + ")"
	case *sqlparser.FuncCall:
		switch {
		case x.Star:
			return x.Name + "(*)"
		case x.Distinct:
			return x.Name + "(DISTINCT " + list(x.Args) + ")"
		}
		return x.Name + "(" + list(x.Args) + ")"
	case *sqlparser.CaseExpr:
		s := "CASE"
		for _, w := range x.Whens {
			s += " WHEN " + exprKey(w.Cond) + " THEN " + exprKey(w.Then)
		}
		if x.Else != nil {
			s += " ELSE " + exprKey(x.Else)
		}
		return s + " END"
	case *sqlparser.Cast:
		return "CAST(" + exprKey(x.X) + " AS " + x.To.String() + ")"
	}
	return fmt.Sprintf("%T", e)
}
