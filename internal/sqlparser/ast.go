package sqlparser

import (
	"strings"

	"bcrdb/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed scalar expression.
type Expr interface{ expr() }

// ---------------------------------------------------------------------------
// Expressions

// Literal is a constant value.
type Literal struct {
	Val types.Value
}

// ColumnRef names a column, optionally qualified by a table alias.
type ColumnRef struct {
	Table  string // optional
	Column string
	Pos    int
}

// Param is a positional parameter $N (1-based).
type Param struct {
	N   int
	Pos int
}

// VarRef is a procedure-language variable reference. The SQL parser never
// produces it; compiling a contract rewrites the ColumnRefs that name its
// variables into VarRefs.
type VarRef struct {
	Name string // for error messages
	// Slot is 1 + the index into the executing procedure's variable frame
	// (ExecCtx.Frame in the engine); a VarRef without one names nothing.
	Slot int
}

// BoundCol is a column reference the engine's planner has resolved to a
// position: row Ord of input Src (the FROM table is input 0, each JOIN the
// next). Like VarRef, the parser never produces it; preparing a statement
// rewrites every resolvable ColumnRef into one so evaluation indexes the
// row instead of comparing names.
type BoundCol struct {
	Src, Ord int
}

// AggRef stands for the value of the Idx-th aggregate of a grouped query
// in the expressions evaluated once per group (select items, HAVING,
// ORDER BY). The parser never produces it; preparing a grouped statement
// rewrites each aggregate FuncCall into one.
type AggRef struct {
	Idx  int
	Name string // the aggregate's name, for diagnostics
}

// Unary is a unary operation: -x, NOT x.
type Unary struct {
	Op string // "-", "NOT"
	X  Expr
}

// Binary is a binary operation. Op is one of
// + - * / % || = <> < <= > >= AND OR.
type Binary struct {
	Op   string
	L, R Expr
	Pos  int
}

// IsNull tests x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// InList tests x IN (e1, e2, ...).
type InList struct {
	X    Expr
	List []Expr
	Not  bool
}

// Between tests x BETWEEN lo AND hi.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

// Like tests x LIKE pattern ('%' and '_' wildcards).
type Like struct {
	X, Pattern Expr
	Not        bool
}

// FuncCall is a scalar or aggregate function invocation.
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
	Pos      int
}

// CaseExpr is CASE WHEN c THEN v [WHEN ...] [ELSE e] END.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // may be nil
}

// CaseWhen is one WHEN arm of a CaseExpr.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

// Cast converts an expression to a named type.
type Cast struct {
	X  Expr
	To types.Kind
}

func (*Literal) expr()   {}
func (*ColumnRef) expr() {}
func (*Param) expr()     {}
func (*VarRef) expr()    {}
func (*BoundCol) expr()  {}
func (*AggRef) expr()    {}
func (*Unary) expr()     {}
func (*Binary) expr()    {}
func (*IsNull) expr()    {}
func (*InList) expr()    {}
func (*Between) expr()   {}
func (*Like) expr()      {}
func (*FuncCall) expr()  {}
func (*CaseExpr) expr()  {}
func (*Cast) expr()      {}

// AggregateFuncs lists the recognized aggregate function names.
var AggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// HasAggregate reports whether e contains an aggregate function call.
func HasAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && AggregateFuncs[f.Name] {
			found = true
		}
	})
	return found
}

// WalkExpr calls fn for e and every sub-expression of e.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Unary:
		WalkExpr(x.X, fn)
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *IsNull:
		WalkExpr(x.X, fn)
	case *InList:
		WalkExpr(x.X, fn)
		for _, y := range x.List {
			WalkExpr(y, fn)
		}
	case *Between:
		WalkExpr(x.X, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *Like:
		WalkExpr(x.X, fn)
		WalkExpr(x.Pattern, fn)
	case *FuncCall:
		for _, y := range x.Args {
			WalkExpr(y, fn)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(x.Else, fn)
	case *Cast:
		WalkExpr(x.X, fn)
	}
}

// RewriteExpr returns a copy of e with fn applied bottom-up; fn may return
// a replacement node or its argument unchanged.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Unary:
		return fn(&Unary{Op: x.Op, X: RewriteExpr(x.X, fn)})
	case *Binary:
		return fn(&Binary{Op: x.Op, L: RewriteExpr(x.L, fn), R: RewriteExpr(x.R, fn), Pos: x.Pos})
	case *IsNull:
		return fn(&IsNull{X: RewriteExpr(x.X, fn), Not: x.Not})
	case *InList:
		n := &InList{X: RewriteExpr(x.X, fn), Not: x.Not}
		for _, y := range x.List {
			n.List = append(n.List, RewriteExpr(y, fn))
		}
		return fn(n)
	case *Between:
		return fn(&Between{X: RewriteExpr(x.X, fn), Lo: RewriteExpr(x.Lo, fn), Hi: RewriteExpr(x.Hi, fn), Not: x.Not})
	case *Like:
		return fn(&Like{X: RewriteExpr(x.X, fn), Pattern: RewriteExpr(x.Pattern, fn), Not: x.Not})
	case *FuncCall:
		n := &FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct, Pos: x.Pos}
		for _, y := range x.Args {
			n.Args = append(n.Args, RewriteExpr(y, fn))
		}
		return fn(n)
	case *CaseExpr:
		n := &CaseExpr{}
		for _, w := range x.Whens {
			n.Whens = append(n.Whens, CaseWhen{Cond: RewriteExpr(w.Cond, fn), Then: RewriteExpr(w.Then, fn)})
		}
		n.Else = RewriteExpr(x.Else, fn)
		return fn(n)
	case *Cast:
		return fn(&Cast{X: RewriteExpr(x.X, fn), To: x.To})
	default:
		return fn(e)
	}
}

// ---------------------------------------------------------------------------
// Statements

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       types.Kind
	NotNull    bool
	PrimaryKey bool
	Unique     bool
	Default    Expr // optional
}

// CreateTable is CREATE TABLE name (...).
type CreateTable struct {
	Name        string
	Columns     []ColumnDef
	PrimaryKey  []string // from table-level PRIMARY KEY (...) or column flag
	IfNotExists bool
}

// CreateIndex is CREATE [UNIQUE] INDEX name ON table (cols).
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// DropTable is DROP TABLE name.
type DropTable struct {
	Name     string
	IfExists bool
}

// Insert is INSERT INTO t [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string // empty = all columns in table order
	Rows    [][]Expr
}

// Update is UPDATE t SET col = e, ... [WHERE p].
type Update struct {
	Table string
	Set   []SetClause
	Where Expr // nil = all rows (a "blind update", §3.4.3)
}

// SetClause is one assignment in UPDATE ... SET.
type SetClause struct {
	Column string
	Value  Expr
}

// Delete is DELETE FROM t [WHERE p].
type Delete struct {
	Table string
	Where Expr
}

// TableRef is a table in a FROM clause.
type TableRef struct {
	Table string
	Alias string // defaults to Table
	Pos   int
}

// Join is one JOIN clause.
type Join struct {
	Kind  string // "INNER" or "LEFT"
	Right TableRef
	On    Expr
}

// SelectItem is one projected expression, optionally aliased.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool   // SELECT * or t.*
	Table string // for t.*
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a SELECT query.
type Select struct {
	Distinct   bool
	Items      []SelectItem
	From       *TableRef // nil for FROM-less selects
	Joins      []Join
	Where      Expr
	GroupBy    []Expr
	Having     Expr
	OrderBy    []OrderItem
	Limit      Expr // nil = no limit
	Offset     Expr
	Provenance bool // FROM t PROVENANCE — sees all committed versions (§4.2)
}

// Explain is EXPLAIN <select>: it reports the plan the engine would run
// for Query instead of running it.
type Explain struct {
	Query *Select
}

func (*Explain) stmt()     {}
func (*CreateTable) stmt() {}
func (*CreateIndex) stmt() {}
func (*DropTable) stmt()   {}
func (*Insert) stmt()      {}
func (*Update) stmt()      {}
func (*Delete) stmt()      {}
func (*Select) stmt()      {}

// StatementTables returns the names of all tables a statement touches.
func StatementTables(s Statement) []string {
	switch st := s.(type) {
	case *CreateTable:
		return []string{st.Name}
	case *CreateIndex:
		return []string{st.Table}
	case *DropTable:
		return []string{st.Name}
	case *Insert:
		return []string{st.Table}
	case *Update:
		return []string{st.Table}
	case *Delete:
		return []string{st.Table}
	case *Explain:
		return StatementTables(st.Query)
	case *Select:
		var out []string
		if st.From != nil {
			out = append(out, st.From.Table)
		}
		for _, j := range st.Joins {
			out = append(out, j.Right.Table)
		}
		return out
	}
	return nil
}

// kindFromTypeName maps SQL type names to value kinds.
func kindFromTypeName(name string) (types.Kind, bool) {
	switch strings.ToUpper(name) {
	case "BIGINT", "INT", "INTEGER":
		return types.KindInt, true
	case "DOUBLE", "FLOAT", "DOUBLE PRECISION":
		return types.KindFloat, true
	case "TEXT", "VARCHAR":
		return types.KindString, true
	case "BOOLEAN":
		return types.KindBool, true
	case "BYTEA":
		return types.KindBytes, true
	}
	return types.KindNull, false
}
