package engine

import (
	"fmt"
	"slices"
	"sync/atomic"

	"bcrdb/internal/index"
	"bcrdb/internal/sqlparser"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// Preparing a statement turns a SELECT, or the WHERE scan of an UPDATE or
// DELETE, into a queryPlan: tables resolved, column references bound to
// positions, sargable predicates extracted, the join probe index chosen,
// aggregates collected. Executing it (select.go) evaluates the bound
// values, picks the access path for the resulting bounds shape and streams
// rows through the operators.
//
// A plan depends only on the statement and the catalog, and the access
// path only on the catalog and on *which* predicates carry a usable value
// (never on the values), so whether an execution finds them cached or
// rebuilds them cannot be observed — the invariant every replica relies
// on, since the chosen index decides emission order and the recorded read
// ranges.

// queryPlan is the physical plan of one statement under one schema epoch.
type queryPlan struct {
	epoch      uint64
	tables     []*tableAccess // the FROM (or UPDATE/DELETE) table, then each JOIN in order
	provenance bool
	write      bool           // UPDATE or DELETE: the plan is the statement's WHERE scan
	where      sqlparser.Expr // bound
	nCands     int            // sargable predicates over all tables
	unbound    map[*sqlparser.ColumnRef]error
	// eagerErr is what resolving the first (in clause order) unresolved
	// reference of a SELECT's items, WHERE, GROUP BY, HAVING and ORDER BY
	// gave: it fails the statement even when no row reaches the reference.
	eagerErr error
	// groupErr is a grouped SELECT's "column must appear in GROUP BY"
	// verdict. It is reported after the eager reference: an unknown column
	// is the more useful complaint.
	groupErr error

	// SELECT output.
	cols     []string
	items    []sqlparser.Expr // bound
	order    []sqlparser.Expr // bound; evaluated into hidden trailing columns
	desc     []bool
	grouped  bool
	groupBy  []sqlparser.Expr // bound
	having   sqlparser.Expr   // bound
	aggs     []aggSpec
	distinct bool
	limit    sqlparser.Expr
	offset   sqlparser.Expr

	// UPDATE assignments.
	setOrds []int
	setVals []sqlparser.Expr // bound

	// states recycles execution scratch: a few slots, enough for the exec
	// workers that run one contract statement at the same time. (A sync.Pool
	// per plan would register every one-off statement's pool with the
	// runtime.)
	states [4]atomic.Pointer[execState]
}

// state takes an execution scratch from the plan, or makes one.
func (p *queryPlan) state() *execState {
	for i := range p.states {
		if st := p.states[i].Load(); st != nil && p.states[i].CompareAndSwap(st, nil) {
			return st
		}
	}
	return newExecState(p)
}

// tableAccess is one input of a plan: how its rows are found.
type tableAccess struct {
	name, alias string
	private     bool    // node-private table: off-limits to contracts
	derived     bool    // rows computed by a provider (storage.RegisterDerived): off-limits to contracts
	indexes     []ixDef // primary first, then the others by name
	pkCols      []int
	nullRow     types.Row

	// A scanned input (the first table; a joined table no index serves)
	// reads the range its sargable predicates allow.
	cands    []sargCand
	candBase int                           // offset of cands in the execution's value arrays
	paths    atomic.Pointer[[]*accessPath] // one per bounds shape seen

	// Joined inputs.
	left  bool           // LEFT JOIN: emit a NULL row when nothing matches
	on    sqlparser.Expr // bound over this and all earlier inputs
	probe *probePlan     // nil: nested loop over the scanned input
}

type ixDef struct {
	name string
	cols []int
}

// probePlan is an index-nested-loop join: per outer row, one point or
// prefix lookup in an index of the joined table.
type probePlan struct {
	index string
	keys  []sqlparser.Expr // bound over the earlier inputs, one per probed index column
	point bool             // keys cover the whole index key
}

// sargCand is a WHERE conjunct of the form column OP constant (or BETWEEN,
// or a one-element IN) on one input. Whether it constrains a scan is
// decided per execution: its value must evaluate, and not to NULL.
type sargCand struct {
	col int // table column ordinal
	op  candOp
	val sqlparser.Expr // references no column
	hi  sqlparser.Expr // candBetween: the upper bound (val is the lower)
}

type candOp uint8

const (
	candEq candOp = iota
	candLt
	candLe
	candGt
	candGe
	candBetween
)

// accessPath is the index choice for one bounds shape of one input.
type accessPath struct {
	active  []bool // the shape: which of the input's cands carry a value
	index   string
	cols    []int
	indexed bool  // false: full scan of the primary index
	eq      []int // per equality-prefix column, the cand supplying its value
	rng     []int // cands bounding the column after the prefix, in WHERE order
}

// maxPaths bounds the shapes remembered per input; a statement that keeps
// producing new ones (it would need that many NULL-able predicates) just
// chooses its path anew each time.
const maxPaths = 8

// splitConjuncts flattens a WHERE tree into AND-ed conjuncts.
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparser.Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sqlparser.Expr{e}
}

// isConstExpr reports whether x references no column and no aggregate
// (literals, params, procedure variables and arithmetic over them).
func isConstExpr(x sqlparser.Expr) bool {
	isConst := true
	sqlparser.WalkExpr(x, func(n sqlparser.Expr) {
		switch f := n.(type) {
		case *sqlparser.ColumnRef:
			isConst = false
		case *sqlparser.FuncCall:
			if sqlparser.AggregateFuncs[f.Name] {
				isConst = false
			}
		}
	})
	return isConst
}

// constValue evaluates an expression that references no table columns. It
// reports ok=false when the expression depends on a relation or fails.
func (e *Engine) constValue(ctx *ExecCtx, x sqlparser.Expr) (types.Value, bool) {
	if !isConstExpr(x) {
		return types.Null(), false
	}
	env := &evalEnv{ctx: ctx}
	v, err := env.eval(x)
	if err != nil {
		return types.Null(), false
	}
	return v, true
}

// sargCands mines the conjuncts for constraints on columns of the given
// table alias.
func sargCands(alias string, schema *storage.Schema, conjuncts []sqlparser.Expr) []sargCand {
	colOf := func(x sqlparser.Expr) (int, bool) {
		c, ok := x.(*sqlparser.ColumnRef)
		if !ok || (c.Table != "" && c.Table != alias) {
			return 0, false
		}
		ord := schema.ColIndex(c.Column)
		return ord, ord >= 0
	}
	var out []sargCand
	for _, cj := range conjuncts {
		switch x := cj.(type) {
		case *sqlparser.Binary:
			var op candOp
			switch x.Op {
			case "=":
				op = candEq
			case "<":
				op = candLt
			case "<=":
				op = candLe
			case ">":
				op = candGt
			case ">=":
				op = candGe
			default:
				continue
			}
			if col, ok := colOf(x.L); ok && isConstExpr(x.R) {
				out = append(out, sargCand{col: col, op: op, val: x.R})
			} else if col, ok := colOf(x.R); ok && isConstExpr(x.L) {
				// constant OP column: mirror the comparison.
				mirror := [...]candOp{candEq: candEq, candLt: candGt, candLe: candGe, candGt: candLt, candGe: candLe}
				out = append(out, sargCand{col: col, op: mirror[op], val: x.L})
			}
		case *sqlparser.Between:
			if col, ok := colOf(x.X); ok && !x.Not && isConstExpr(x.Lo) && isConstExpr(x.Hi) {
				out = append(out, sargCand{col: col, op: candBetween, val: x.Lo, hi: x.Hi})
			}
		case *sqlparser.InList:
			// Single-element IN acts as equality.
			if col, ok := colOf(x.X); ok && !x.Not && len(x.List) == 1 && isConstExpr(x.List[0]) {
				out = append(out, sargCand{col: col, op: candEq, val: x.List[0]})
			}
		}
	}
	return out
}

// choosePath picks, for one bounds shape, the index with the longest
// equality prefix (plus an optional range on the following column).
// Primary wins ties.
func (t *tableAccess) choosePath(active []bool) *accessPath {
	// Per column: does an equality, does any bound constrain it?
	flags := make([]struct{ point, bounded bool }, len(t.nullRow))
	for i, c := range t.cands {
		if active[i] {
			flags[c.col].bounded = true
			flags[c.col].point = flags[c.col].point || c.op == candEq
		}
	}
	best := &accessPath{index: t.indexes[0].name, cols: t.indexes[0].cols}
	bestScore := 0
	for _, ix := range t.indexes {
		nEq, rangeCol := 0, -1
		for _, c := range ix.cols {
			if !flags[c].bounded {
				break
			}
			if flags[c].point {
				nEq++
				continue
			}
			rangeCol = c
			break
		}
		score := nEq * 2
		if rangeCol >= 0 {
			score++
		}
		if score <= bestScore {
			continue
		}
		bestScore = score
		best = &accessPath{index: ix.name, cols: ix.cols, indexed: true}
		for _, c := range ix.cols[:nEq] {
			last := -1 // the last equality on a column is the one in force
			for i, cand := range t.cands {
				if active[i] && cand.col == c && cand.op == candEq {
					last = i
				}
			}
			best.eq = append(best.eq, last)
		}
		for i, cand := range t.cands {
			if active[i] && cand.col == rangeCol {
				best.rng = append(best.rng, i)
			}
		}
	}
	best.active = append([]bool(nil), active...)
	return best
}

// pathFor returns the access path for the given bounds shape, and whether
// it was already known.
func (t *tableAccess) pathFor(active []bool) (*accessPath, bool) {
	var known []*accessPath
	if p := t.paths.Load(); p != nil {
		known = *p
	}
search:
	for _, p := range known {
		for i, a := range p.active {
			if a != active[i] {
				continue search
			}
		}
		return p, true
	}
	p := t.choosePath(active)
	if len(known) < maxPaths {
		// A racing execution may drop this path from the list; it is then
		// chosen again, identically, the next time.
		next := append(append(make([]*accessPath, 0, len(known)+1), known...), p)
		t.paths.Store(&next)
	}
	return p, false
}

// scanRange turns the path's equality prefix plus the optional bounds on
// the next column into the index.Range to scan. vals holds the values of
// the input's cands (two slots each, the second for BETWEEN's upper bound).
func (p *accessPath) scanRange(st *execState, t *tableAccess) index.Range {
	if !p.indexed {
		return index.AllRange()
	}
	vals := st.vals[2*t.candBase:]
	nEq := len(p.eq)
	eqKey := func(extra int) types.Key {
		k := st.newKey(nEq + extra)
		for i, ci := range p.eq {
			k[i] = vals[2*ci]
		}
		return k
	}
	if len(p.rng) == 0 {
		if nEq == len(p.cols) {
			return index.PointRange(eqKey(0))
		}
		return index.PrefixRange(eqKey(0))
	}
	// The tightest bound wins; of equal bounds, the first one stated.
	var lo, hi types.Value
	var hasLo, hasHi, loInc, hiInc bool
	setLo := func(v types.Value, inc bool) {
		if !hasLo || types.Compare(v, lo) > 0 {
			lo, loInc, hasLo = v, inc, true
		}
	}
	setHi := func(v types.Value, inc bool) {
		if !hasHi || types.Compare(v, hi) < 0 {
			hi, hiInc, hasHi = v, inc, true
		}
	}
	for _, ci := range p.rng {
		switch v := vals[2*ci]; t.cands[ci].op {
		case candLt:
			setHi(v, false)
		case candLe:
			setHi(v, true)
		case candGt:
			setLo(v, false)
		case candGe:
			setLo(v, true)
		case candBetween:
			setLo(v, true)
			setHi(vals[2*ci+1], true)
		}
	}
	rng := index.Range{LoInc: true, HiInc: true}
	if hasLo {
		rng.Lo = eqKey(1)
		rng.Lo[nEq] = lo
		rng.LoInc = loInc
	} else if nEq > 0 {
		rng.Lo = eqKey(0)
	}
	if hasHi {
		rng.Hi = eqKey(1)
		rng.Hi[nEq] = hi
		rng.HiInc = hiInc
	} else if nEq > 0 {
		rng.Hi = eqKey(0)
	}
	return rng
}

// systemColumns are the provenance pseudo-columns, in the order a
// provenance scan appends them to a row.
var systemColumns = [...]string{"xmin", "xmax", "creator_block", "deleter_block"}

func isSystemColumn(name string) bool {
	return slices.Contains(systemColumns[:], name)
}

// planner carries the state of preparing one statement.
type planner struct {
	e     *Engine
	plan  *queryPlan
	scope relSchema // columns of the inputs added so far
}

// addTable resolves a table and appends it to the plan's inputs and to the
// name scope.
func (pl *planner) addTable(name, alias string) (*tableAccess, *storage.Schema, error) {
	t, err := pl.e.store.Table(name)
	if err != nil {
		return nil, nil, err
	}
	schema := t.Schema()
	p := pl.plan
	ta := &tableAccess{name: name, alias: alias, private: schema.Class == storage.ClassPrivate, derived: t.Derived(), pkCols: schema.PKCols}
	for _, ixName := range append([]string{t.PrimaryIndexName()}, t.Indexes()...) {
		if cols, ok := t.IndexCols(ixName); ok && (len(ta.indexes) == 0 || ixName != ta.indexes[0].name) {
			ta.indexes = append(ta.indexes, ixDef{ixName, cols})
		}
	}
	width := len(schema.Columns)
	if p.provenance {
		width += len(systemColumns)
	}
	src, refs := len(p.tables), make([]sqlparser.BoundCol, width)
	pl.scope.cols = slices.Grow(pl.scope.cols, width)
	for ord := range refs {
		colName := systemColumns[max(0, ord-len(schema.Columns))]
		if ord < len(schema.Columns) {
			colName = schema.Columns[ord].Name
		}
		refs[ord] = sqlparser.BoundCol{Src: src, Ord: ord}
		pl.scope.cols = append(pl.scope.cols, relCol{alias: alias, name: colName, ref: &refs[ord]})
	}
	ta.nullRow = make(types.Row, width)
	p.tables = append(p.tables, ta)
	return ta, &schema, nil
}

// scanPredicates gives a scanned input its sargable predicates from the
// WHERE conjuncts.
func (pl *planner) scanPredicates(ta *tableAccess, schema *storage.Schema, conjuncts []sqlparser.Expr) error {
	p := pl.plan
	if !p.provenance {
		// Contracts may not reference system columns outside provenance mode.
		for _, cj := range conjuncts {
			var bad error
			sqlparser.WalkExpr(cj, func(n sqlparser.Expr) {
				if c, ok := n.(*sqlparser.ColumnRef); ok && isSystemColumn(c.Column) && schema.ColIndex(c.Column) < 0 {
					bad = fmt.Errorf("%w: %s", ErrSysColumn, c.Column)
				}
			})
			if bad != nil {
				return bad
			}
		}
	}
	ta.cands = sargCands(ta.alias, schema, conjuncts)
	ta.candBase = p.nCands
	p.nCands += len(ta.cands)
	return nil
}

// addScanned is addTable plus scanPredicates: the first input of a plan.
func (pl *planner) addScanned(name, alias string, where sqlparser.Expr) (*storage.Schema, error) {
	ta, schema, err := pl.addTable(name, alias)
	if err == nil {
		err = pl.scanPredicates(ta, schema, splitConjuncts(where))
	}
	return schema, err
}

// bind rewrites the column references of x that resolve in scope into
// BoundCols; the others stay, remembered with their resolution error.
func (pl *planner) bind(x sqlparser.Expr, scope *relSchema) sqlparser.Expr {
	if x == nil {
		return nil
	}
	return sqlparser.RewriteExpr(x, func(n sqlparser.Expr) sqlparser.Expr {
		if c, ok := n.(*sqlparser.ColumnRef); ok {
			return pl.bindRef(c, scope)
		}
		return n
	})
}

func (pl *planner) bindRef(c *sqlparser.ColumnRef, scope *relSchema) sqlparser.Expr {
	i, err := scope.resolve(c.Table, c.Column)
	if err != nil {
		if pl.plan.unbound == nil {
			pl.plan.unbound = make(map[*sqlparser.ColumnRef]error)
		}
		pl.plan.unbound[c] = err
		return c
	}
	return scope.cols[i].ref
}

// bindGrouped is bind for the expressions a grouped query evaluates once
// per group: each aggregate call becomes an AggRef to a collected aggSpec.
func (pl *planner) bindGrouped(x sqlparser.Expr) sqlparser.Expr {
	if x == nil {
		return nil
	}
	return sqlparser.RewriteExpr(x, func(n sqlparser.Expr) sqlparser.Expr {
		switch n := n.(type) {
		case *sqlparser.ColumnRef:
			return pl.bindRef(n, &pl.scope)
		case *sqlparser.FuncCall:
			if sqlparser.AggregateFuncs[n.Name] {
				// RewriteExpr works bottom-up: the argument is bound already,
				// and an aggregate nested in it is an AggRef, which has no
				// value while input rows are accumulated.
				spec := aggSpec{call: n}
				if !n.Star && len(n.Args) == 1 {
					spec.arg = n.Args[0]
				}
				pl.plan.aggs = append(pl.plan.aggs, spec)
				return &sqlparser.AggRef{Idx: len(pl.plan.aggs) - 1, Name: n.Name}
			}
		}
		return n
	})
}

// prepareJoin adds one JOIN: an index-nested-loop probe when the ON clause
// equates a prefix of some index of the joined table with expressions over
// the earlier inputs, else a nested loop over a scan of the table.
func (pl *planner) prepareJoin(j sqlparser.Join, whereConjuncts []sqlparser.Expr) error {
	leftRS := relSchema{cols: pl.scope.cols[:len(pl.scope.cols):len(pl.scope.cols)]}
	ta, rightSchema, err := pl.addTable(j.Right.Table, j.Right.Alias)
	if err != nil {
		return err
	}
	ta.left = j.Kind == "LEFT"
	ta.on = pl.bind(j.On, &pl.scope)

	isRightCol := func(x sqlparser.Expr) (int, bool) {
		c, ok := x.(*sqlparser.ColumnRef)
		if !ok || (c.Table != "" && c.Table != j.Right.Alias) {
			return 0, false
		}
		ord := rightSchema.ColIndex(c.Column)
		if ord < 0 {
			return 0, false
		}
		// Ambiguity guard: unqualified name must not also resolve on the left.
		if c.Table == "" {
			if _, err := leftRS.resolve("", c.Column); err == nil {
				return 0, false
			}
		}
		return ord, true
	}
	refsOnlyLeft := func(x sqlparser.Expr) bool {
		ok := true
		sqlparser.WalkExpr(x, func(n sqlparser.Expr) {
			if c, is := n.(*sqlparser.ColumnRef); is {
				if _, err := leftRS.resolve(c.Table, c.Column); err != nil {
					ok = false
				}
			}
		})
		return ok
	}
	// The first equality found for a column of the joined table supplies
	// its probe value. The whole ON clause is evaluated on every candidate
	// pair anyway, so the other conjuncts need no separate bookkeeping.
	eqByOrd := make(map[int]sqlparser.Expr)
	for _, cj := range splitConjuncts(j.On) {
		b, isBin := cj.(*sqlparser.Binary)
		if !isBin || b.Op != "=" {
			continue
		}
		for _, side := range [2][2]sqlparser.Expr{{b.R, b.L}, {b.L, b.R}} {
			if ord, ok := isRightCol(side[0]); ok && refsOnlyLeft(side[1]) {
				if _, dup := eqByOrd[ord]; !dup {
					eqByOrd[ord] = side[1]
				}
				break
			}
		}
	}
	if !pl.plan.provenance {
		// The index covering the longest prefix of equated columns; the
		// primary index, then the first by name, wins ties.
		for _, ix := range ta.indexes {
			n := 0
			for n < len(ix.cols) && eqByOrd[ix.cols[n]] != nil {
				n++
			}
			if n > 0 && (ta.probe == nil || n > len(ta.probe.keys)) {
				ta.probe = &probePlan{index: ix.name, point: n == len(ix.cols), keys: make([]sqlparser.Expr, n)}
				for i, c := range ix.cols[:n] {
					ta.probe.keys[i] = pl.bind(eqByOrd[c], &leftRS)
				}
			}
		}
	}
	if ta.probe == nil {
		return pl.scanPredicates(ta, rightSchema, whereConjuncts)
	}
	return nil
}

// prepare builds the plan of a SELECT with a FROM clause, an UPDATE or a
// DELETE against the current catalog.
func (e *Engine) prepare(stmt sqlparser.Statement) (*queryPlan, error) {
	pl := &planner{e: e, plan: &queryPlan{epoch: e.store.SchemaEpoch()}}
	p := pl.plan
	var err error
	switch s := stmt.(type) {
	case *sqlparser.Select:
		err = pl.prepareSelect(s)
	case *sqlparser.Update:
		p.write = true
		var schema *storage.Schema
		if schema, err = pl.addScanned(s.Table, s.Table, s.Where); err != nil {
			break
		}
		for _, sc := range s.Set {
			ord := schema.ColIndex(sc.Column)
			if ord < 0 {
				return nil, fmt.Errorf("engine: column %q not in table %s", sc.Column, s.Table)
			}
			p.setOrds = append(p.setOrds, ord)
			p.setVals = append(p.setVals, pl.bind(sc.Value, &pl.scope))
		}
		p.where = pl.bind(s.Where, &pl.scope)
	case *sqlparser.Delete:
		p.write = true
		if _, err = pl.addScanned(s.Table, s.Table, s.Where); err == nil {
			p.where = pl.bind(s.Where, &pl.scope)
		}
	default:
		err = fmt.Errorf("engine: cannot prepare %T", stmt)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (pl *planner) prepareSelect(s *sqlparser.Select) error {
	p := pl.plan
	p.provenance, p.distinct, p.limit, p.offset = s.Provenance, s.Distinct, s.Limit, s.Offset
	if _, err := pl.addScanned(s.From.Table, s.From.Alias, s.Where); err != nil {
		return err
	}
	conjuncts := splitConjuncts(s.Where)
	for _, j := range s.Joins {
		if err := pl.prepareJoin(j, conjuncts); err != nil {
			return err
		}
	}

	items, err := expandItems(s, &pl.scope)
	if err != nil {
		return err
	}
	orderExprs := resolveOrderExprs(s, items)
	pl.eagerRefs(s)

	p.grouped = len(s.GroupBy) > 0 || s.Having != nil
	for _, it := range items {
		p.grouped = p.grouped || sqlparser.HasAggregate(it.Expr)
	}
	bindOut := pl.bindGrouped
	if p.grouped {
		p.groupErr = validateGrouping(s, items, orderExprs)
	} else {
		bindOut = func(x sqlparser.Expr) sqlparser.Expr { return pl.bind(x, &pl.scope) }
	}

	p.where = pl.bind(s.Where, &pl.scope)
	for _, g := range s.GroupBy {
		p.groupBy = append(p.groupBy, pl.bind(g, &pl.scope))
	}
	p.cols = make([]string, len(items))
	p.items = make([]sqlparser.Expr, len(items))
	for i, it := range items {
		p.cols[i] = itemName(it)
		p.items[i] = bindOut(it.Expr)
	}
	p.having = bindOut(s.Having)
	for i, oe := range orderExprs {
		bound := sqlparser.Expr(nil)
		for k, it := range items {
			if it.Expr == oe { // ORDER BY named an item: share its aggregates
				bound = p.items[k]
				break
			}
		}
		if bound == nil {
			bound = bindOut(oe)
		}
		p.order = append(p.order, bound)
		p.desc = append(p.desc, s.OrderBy[i].Desc)
	}
	return nil
}

// eagerRefs collects the references that must resolve for the query to
// run at all (PostgreSQL semantics: a bad column name fails even on empty
// input). ON clauses are not among them: they fail on the first pair of
// rows they are evaluated for.
func (pl *planner) eagerRefs(s *sqlparser.Select) {
	check := func(x sqlparser.Expr) {
		sqlparser.WalkExpr(x, func(n sqlparser.Expr) {
			if c, ok := n.(*sqlparser.ColumnRef); ok {
				if _, err := pl.scope.resolve(c.Table, c.Column); err != nil && pl.plan.eagerErr == nil {
					pl.plan.eagerErr = err
				}
			}
		})
	}
	for _, it := range s.Items {
		if !it.Star {
			check(it.Expr)
		}
	}
	check(s.Where)
	for _, g := range s.GroupBy {
		check(g)
	}
	check(s.Having)
order:
	for _, o := range s.OrderBy {
		// ORDER BY may name an output alias or a position.
		if c, ok := o.Expr.(*sqlparser.ColumnRef); ok && c.Table == "" {
			for _, it := range s.Items {
				if itemName(it) == c.Column {
					continue order
				}
			}
		}
		if l, ok := o.Expr.(*sqlparser.Literal); ok && l.Val.Kind() == types.KindInt {
			continue
		}
		check(o.Expr)
	}
}

// itemName derives the output column name for a select item.
func itemName(item sqlparser.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch x := item.Expr.(type) {
	case *sqlparser.ColumnRef:
		return x.Column
	case *sqlparser.FuncCall:
		return lowerASCII(x.Name)
	default:
		return "?column?"
	}
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// expandItems replaces * and t.* with explicit column references.
func expandItems(s *sqlparser.Select, rs *relSchema) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, item := range s.Items {
		if !item.Star {
			out = append(out, item)
			continue
		}
		matched := false
		for _, c := range rs.cols {
			if item.Table != "" && c.alias != item.Table {
				continue
			}
			matched = true
			out = append(out, sqlparser.SelectItem{
				Expr:  &sqlparser.ColumnRef{Table: c.alias, Column: c.name},
				Alias: c.name,
			})
		}
		if !matched {
			return nil, fmt.Errorf("engine: unknown table %q in %s.*", item.Table, item.Table)
		}
	}
	return out, nil
}

// resolveOrderExprs maps ORDER BY expressions to evaluable expressions:
// bare names matching an item alias resolve to that item's expression,
// and integer literals resolve positionally.
func resolveOrderExprs(s *sqlparser.Select, items []sqlparser.SelectItem) []sqlparser.Expr {
	out := make([]sqlparser.Expr, 0, len(s.OrderBy))
	for _, o := range s.OrderBy {
		e := o.Expr
		if c, ok := e.(*sqlparser.ColumnRef); ok && c.Table == "" {
			for _, it := range items {
				if itemName(it) == c.Column && it.Expr != nil {
					e = it.Expr
					break
				}
			}
		}
		if l, ok := e.(*sqlparser.Literal); ok && l.Val.Kind() == types.KindInt {
			n := int(l.Val.Int())
			if n >= 1 && n <= len(items) {
				e = items[n-1].Expr
			}
		}
		out = append(out, e)
	}
	return out
}

// validateGrouping checks that every column a grouped query references
// outside its aggregates is a GROUP BY expression.
func validateGrouping(s *sqlparser.Select, items []sqlparser.SelectItem, orderExprs []sqlparser.Expr) error {
	groupKeys := make([]string, len(s.GroupBy))
	for i, g := range s.GroupBy {
		groupKeys[i] = exprKey(g)
	}
	var validate func(x sqlparser.Expr) error
	all := func(xs ...sqlparser.Expr) error {
		for _, x := range xs {
			if err := validate(x); err != nil {
				return err
			}
		}
		return nil
	}
	validate = func(x sqlparser.Expr) error {
		if x == nil {
			return nil
		}
		key := exprKey(x)
		for _, gk := range groupKeys {
			if key == gk {
				return nil
			}
		}
		switch t := x.(type) {
		case *sqlparser.FuncCall:
			if sqlparser.AggregateFuncs[t.Name] {
				return nil
			}
			return all(t.Args...)
		case *sqlparser.ColumnRef:
			return fmt.Errorf("engine: column %q must appear in GROUP BY or an aggregate", t.Column)
		case *sqlparser.Unary:
			return validate(t.X)
		case *sqlparser.Binary:
			return all(t.L, t.R)
		case *sqlparser.IsNull:
			return validate(t.X)
		case *sqlparser.InList:
			return all(append([]sqlparser.Expr{t.X}, t.List...)...)
		case *sqlparser.Between:
			return all(t.X, t.Lo, t.Hi)
		case *sqlparser.Like:
			return all(t.X, t.Pattern)
		case *sqlparser.CaseExpr:
			for _, w := range t.Whens {
				if err := all(w.Cond, w.Then); err != nil {
					return err
				}
			}
			return validate(t.Else)
		case *sqlparser.Cast:
			return validate(t.X)
		}
		return nil
	}
	for _, it := range items {
		if err := validate(it.Expr); err != nil {
			return err
		}
	}
	if err := validate(s.Having); err != nil {
		return err
	}
	return all(orderExprs...)
}
