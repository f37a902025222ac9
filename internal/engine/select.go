package engine

import (
	"fmt"
	"slices"
	"sort"

	"bcrdb/internal/codec"
	"bcrdb/internal/index"
	"bcrdb/internal/sqlparser"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// Executing a queryPlan streams rows: the first input is scanned, every
// row is carried through the joins (an index probe per outer row, or a
// loop over an input scanned once up front), filtered by WHERE and handed
// to the sink — aggregate accumulators or the projection. Nothing is
// buffered between operators except the versions one scan or probe found,
// which live in scratch slices the plan recycles; what a query inherently
// has to hold (its groups, its output rows for DISTINCT/ORDER BY/LIMIT) is
// all that is materialised.
//
// What a replica can observe is fixed by three rules the old materialising
// executor followed and this one keeps: a scan emits in (index key, primary
// key) order and a probe or write scan in primary-key order, whatever
// order versions were inserted in; every scan records its range before it
// runs and every version it yields, whether or not a later operator drops
// the row; and a join emits, per outer row in order, the matching inner
// rows in order, so an aggregate sees — and a float SUM associates — the
// same sequence on every node.

// hit is one version a scan yielded: all an operator may keep of it.
type hit struct {
	id  uint64    // heap ref, for read tracking and writes
	row types.Row // immutable
}

// execState is the scratch of one execution of a plan.
type execState struct {
	plan    *queryPlan
	env     evalEnv
	hits    [][]hit                            // per input
	collect []func(v *storage.RowVersion) bool // per input: the ScanIndex callback filling hits
	vals    []types.Value                      // values of the sargable predicates, two slots each
	active  []bool                             // which of them carry a value
	keyBuf  []types.Value                      // backing store range keys are carved from
	sorter  hitSorter
	single  group // the one group of an aggregate without GROUP BY
	groups  map[string]*group
	byKey   []*group // groups in order of first appearance
	aggVals []types.Value
	out     []types.Row
}

func newExecState(p *queryPlan) *execState {
	st := &execState{
		plan:    p,
		hits:    make([][]hit, len(p.tables)),
		collect: make([]func(*storage.RowVersion) bool, len(p.tables)),
		vals:    make([]types.Value, 2*p.nCands),
		active:  make([]bool, p.nCands),
		aggVals: make([]types.Value, len(p.aggs)),
	}
	st.env.rows = make([]types.Row, len(p.tables))
	st.env.unbound = p.unbound
	st.single.aggs = make([]aggState, len(p.aggs))
	for i := range p.tables {
		i := i
		if p.provenance {
			st.collect[i] = func(v *storage.RowVersion) bool {
				st.hits[i] = append(st.hits[i], hit{v.ID, provenanceRow(v)})
				return true
			}
		} else {
			// Version data is immutable after insert and no operator mutates
			// a row in place, so the stored row is handed on uncopied.
			st.collect[i] = func(v *storage.RowVersion) bool {
				st.hits[i] = append(st.hits[i], hit{v.ID, v.Data})
				return true
			}
		}
	}
	return st
}

// provenanceRow extends a version's row with the system columns. It runs
// inside the scan callback: the stamps are guarded by the table latch.
func provenanceRow(v *storage.RowVersion) types.Row {
	row := make(types.Row, len(v.Data), len(v.Data)+4)
	copy(row, v.Data)
	orNull := func(set bool, n int64) types.Value {
		if set {
			return types.NewInt(n)
		}
		return types.Null()
	}
	return append(row,
		types.NewInt(int64(v.Xmin)),
		orNull(v.Xmax != 0, int64(v.Xmax)),
		orNull(v.CreatorBlk != storage.NoBlock, v.CreatorBlk),
		orNull(v.DeleterBlk != storage.NoBlock, v.DeleterBlk))
}

// release drops what the execution referenced and returns the scratch to
// the plan.
func (st *execState) release() {
	for i := range st.hits {
		clear(st.hits[i])
		st.hits[i] = st.hits[i][:0]
	}
	clear(st.env.rows)
	clear(st.vals)
	clear(st.aggVals)
	st.env.ctx, st.env.aggs, st.out = nil, nil, nil
	st.groups, st.byKey = nil, nil
	for i := range st.plan.states {
		if st.plan.states[i].CompareAndSwap(nil, st) {
			return
		}
	}
}

// newKey carves an n-value key out of keyBuf. Keys end up in the
// transaction's recorded ranges, so they are never reused; carving them
// from a shared chunk only saves the per-key allocation.
func (st *execState) newKey(n int) types.Key {
	if len(st.keyBuf) < n {
		st.keyBuf = make([]types.Value, 16*n)
	}
	k := st.keyBuf[:n:n]
	st.keyBuf = st.keyBuf[n:]
	return types.Key(k)
}

// hitSorter orders hits by the given columns, then by primary key.
type hitSorter struct {
	hits        []hit
	first, then []int
}

func (s *hitSorter) Len() int      { return len(s.hits) }
func (s *hitSorter) Swap(i, j int) { s.hits[i], s.hits[j] = s.hits[j], s.hits[i] }
func (s *hitSorter) Less(i, j int) bool {
	a, b := s.hits[i].row, s.hits[j].row
	for _, cols := range [2][]int{s.first, s.then} {
		for _, c := range cols {
			if cmp := types.Compare(a[c], b[c]); cmp != 0 {
				return cmp < 0
			}
		}
	}
	return false
}

// sortHits puts hits into emission order. ScanIndex yields index-key
// order with heap-ref ties, which already is the wanted order unless rows
// sharing an index key were inserted out of primary-key order (or, for a
// probe over a composite prefix, at all times) — so check before sorting.
func (st *execState) sortHits(hits []hit, first, then []int) {
	st.sorter = hitSorter{hits: hits, first: first, then: then}
	for i := 1; i < len(hits); i++ {
		if st.sorter.Less(i, i-1) {
			sort.Stable(&st.sorter)
			break
		}
	}
	st.sorter.hits = nil
}

// scan fills hits[i] with the versions of input i inside rng, in emission
// order (ixCols, then primary key), recording the range and the versions.
func (e *Engine) scan(st *execState, i int, ixName string, ixCols []int, rng index.Range) error {
	p, ctx := st.plan, st.env.ctx
	t := p.tables[i]
	track := ctx.tracking() && !p.provenance
	if track {
		ctx.Rec.NoteRange(t.name, ixName, rng)
	}
	mode := storage.ScanVisible
	if p.provenance {
		mode = storage.ScanProvenance
	}
	st.hits[i] = st.hits[i][:0]
	if err := e.store.ScanIndex(t.name, ixName, rng, ctx.selfID(), ctx.snapshotHeight(), mode, st.collect[i]); err != nil {
		return err
	}
	if rec := ctx.Rec; !p.provenance && rec != nil && len(rec.DeletedOld) > 0 {
		// What the transaction deleted, or replaced by UPDATE, is gone for it.
		st.hits[i] = slices.DeleteFunc(st.hits[i], func(h hit) bool { return rec.Supersedes(t.name, h.id) })
	}
	st.sortHits(st.hits[i], ixCols, t.pkCols)
	if track {
		for _, h := range st.hits[i] {
			ctx.Rec.NoteRead(t.name, h.id)
		}
	}
	return nil
}

// checkAccess enforces what depends on the execution context rather than
// on the plan: contracts may not read node-private tables, derived tables
// or anything called sys_ledger (their contents differ per node — the
// ledger carries node-local xids and is published asynchronously behind
// the committed height).
func (ctx *ExecCtx) checkAccess(t *tableAccess) error {
	if ctx.Mode != ModeContract {
		return nil
	}
	if t.private {
		return fmt.Errorf("%w: contract read of private table %q", ErrSchemaClass, t.name)
	}
	if t.derived || t.name == "sys_ledger" {
		return fmt.Errorf("%w: contract read of %q (node bookkeeping, sealed asynchronously)", ErrSchemaClass, t.name)
	}
	return nil
}

// pathOf evaluates input i's sargable predicates and returns the access
// path for the resulting bounds shape, and whether it was already known.
func (st *execState) pathOf(i int) (*accessPath, bool) {
	t := st.plan.tables[i]
	active := st.active[t.candBase : t.candBase+len(t.cands)]
	vals := st.vals[2*t.candBase:]
	for ci, c := range t.cands {
		v, err := st.env.eval(c.val)
		active[ci] = err == nil && !v.IsNull()
		vals[2*ci] = v
		if c.op == candBetween && active[ci] {
			hi, err := st.env.eval(c.hi)
			active[ci] = err == nil && !hi.IsNull()
			vals[2*ci+1] = hi
		}
	}
	return t.pathFor(active)
}

// scanInput scans input i over the access path its predicates allow: a
// SELECT in (index key, primary key) order, the WHERE scan of a write in
// primary-key order. It reports whether the path was already known.
func (e *Engine) scanInput(st *execState, i int) (known bool, err error) {
	p, ctx := st.plan, st.env.ctx
	t := p.tables[i]
	path, known := st.pathOf(i)
	if !path.indexed && ctx.tracking() && ctx.RequireIndex {
		if p.write && p.where == nil {
			return known, ErrBlindUpdate
		}
		return known, fmt.Errorf("%w: table %s", ErrNoIndex, t.name)
	}
	var ixCols []int
	if !p.write {
		ixCols = path.cols
	}
	return known, e.scan(st, i, path.index, ixCols, path.scanRange(st, t))
}

// planFor returns the plan hanging off pr, preparing stmt anew when there is
// none for the current schema epoch, and whether it was found.
func (e *Engine) planFor(pr *Prepared, stmt sqlparser.Statement) (plan *queryPlan, cached bool, err error) {
	if plan = pr.plan.Load(); plan != nil && plan.epoch == e.store.SchemaEpoch() {
		return plan, true, nil
	}
	if plan, err = e.prepare(stmt); err != nil {
		return nil, false, err
	}
	pr.plan.Store(plan)
	return plan, false, nil
}

// begin starts an execution of a prepared SELECT, UPDATE or DELETE: it
// finds (or builds) the statement's plan, takes an execution scratch from
// it and reads every scanned input. The caller releases the scratch.
func (e *Engine) begin(ctx *ExecCtx, pr *Prepared) (*execState, error) {
	plan, cached, err := e.planFor(pr, pr.stmt)
	if err != nil {
		e.planMisses.Add(1)
		return nil, err
	}
	st := plan.state()
	st.env.ctx = ctx
	// Every scanned input is read before anything is streamed: the ranges
	// land in the read set in input order, and an input is read (and
	// recorded) even when an earlier one turns out empty.
	for i, t := range plan.tables {
		var err error
		if !plan.write { // a write's table went through checkWriteClass
			err = ctx.checkAccess(t)
		}
		if err == nil && t.probe == nil {
			if i > 0 && ctx.tracking() && ctx.RequireIndex {
				err = fmt.Errorf("%w: join on %s has no usable index", ErrNoIndex, t.name)
			} else {
				var known bool
				known, err = e.scanInput(st, i)
				cached = cached && known
			}
		}
		if err != nil {
			st.release()
			return nil, err
		}
	}
	if cached {
		e.planHits.Add(1)
	} else {
		e.planMisses.Add(1)
	}
	return st, nil
}

func (e *Engine) execSelect(ctx *ExecCtx, pr *Prepared, s *sqlparser.Select) (*Result, error) {
	// FROM-less select: evaluate items once against the empty relation.
	if s.From == nil {
		env := &evalEnv{ctx: ctx}
		var row types.Row
		var cols []string
		for _, item := range s.Items {
			if item.Star {
				return nil, fmt.Errorf("engine: SELECT * requires a FROM clause")
			}
			v, err := env.eval(item.Expr)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			cols = append(cols, itemName(item))
		}
		return &Result{Cols: cols, Rows: []types.Row{row}}, nil
	}
	if s.Provenance && ctx.tracking() {
		return nil, fmt.Errorf("engine: provenance queries are read-only and cannot run inside contracts")
	}
	st, err := e.begin(ctx, pr)
	if err != nil {
		return nil, err
	}
	defer st.release()
	p := st.plan
	if err := p.checkRefs(); err != nil {
		return nil, err
	}
	if p.grouped {
		st.startGroups()
	}
	for _, h := range st.hits[0] {
		st.env.rows[0] = h.row
		if err := e.joinFrom(st, 1); err != nil {
			return nil, err
		}
	}
	if p.grouped {
		if err := st.emitGroups(); err != nil {
			return nil, err
		}
	}
	return e.finish(st)
}

// checkRefs is the eager name resolution of a SELECT: bad column
// references must fail even when the input is empty (PostgreSQL
// semantics), instead of lazily on the first row.
func (p *queryPlan) checkRefs() error {
	if p.eagerErr != nil {
		return p.eagerErr
	}
	return p.groupErr
}

// joinFrom carries the current row combination of inputs [0, i) through
// join i and the ones after it, then through WHERE into the sink.
func (e *Engine) joinFrom(st *execState, i int) error {
	p := st.plan
	if i == len(p.tables) {
		if p.where != nil {
			v, err := st.env.eval(p.where)
			if err != nil || !truthy(v) {
				return err
			}
		}
		if p.grouped {
			return st.accumulate()
		}
		return st.appendOutput()
	}
	t := p.tables[i]
	if t.probe != nil {
		key := st.newKey(len(t.probe.keys))
		for k, x := range t.probe.keys {
			v, err := st.env.eval(x)
			if err != nil {
				return err
			}
			if v.IsNull() {
				key = nil // NULL equals nothing: no lookup, no match
				break
			}
			key[k] = v
		}
		st.hits[i] = st.hits[i][:0]
		if key != nil {
			rng := index.PrefixRange(key)
			if t.probe.point {
				rng = index.PointRange(key)
			}
			if err := e.scan(st, i, t.probe.index, nil, rng); err != nil {
				return err
			}
		}
	}
	matched := false
	for _, h := range st.hits[i] {
		st.env.rows[i] = h.row
		v, err := st.env.eval(t.on)
		if err != nil {
			return err
		}
		if truthy(v) {
			matched = true
			if err := e.joinFrom(st, i+1); err != nil {
				return err
			}
		}
	}
	if !matched && t.left {
		st.env.rows[i] = t.nullRow
		return e.joinFrom(st, i+1)
	}
	return nil
}

// appendOutput evaluates the select items and the hidden ORDER BY keys in
// the current environment into a new output row.
func (st *execState) appendOutput() error {
	p := st.plan
	orow := make(types.Row, 0, len(p.items)+len(p.order))
	for _, exprs := range [2][]sqlparser.Expr{p.items, p.order} {
		for _, x := range exprs {
			v, err := st.env.eval(x)
			if err != nil {
				return err
			}
			orow = append(orow, v)
		}
	}
	st.out = append(st.out, orow)
	return nil
}

// aggSpec describes one aggregate call of a grouped query.
type aggSpec struct {
	call *sqlparser.FuncCall
	arg  sqlparser.Expr // bound; nil for COUNT(*) and for calls without exactly one argument
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max types.Value
	distinct map[string]bool
}

func (a *aggState) add(spec *aggSpec, v types.Value) error {
	f := spec.call
	if f.Star {
		a.count++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	if f.Distinct {
		if a.distinct == nil {
			a.distinct = make(map[string]bool)
		}
		b := codec.NewBuf(16)
		b.Value(v)
		k := string(b.Bytes())
		if a.distinct[k] {
			return nil
		}
		a.distinct[k] = true
	}
	switch f.Name {
	case "COUNT":
		a.count++
	case "SUM", "AVG":
		if !v.IsNumeric() {
			return fmt.Errorf("engine: %s on %s", f.Name, v.Kind())
		}
		a.count++
		if v.Kind() == types.KindFloat {
			if !a.isFloat {
				a.sumF = float64(a.sumI)
				a.isFloat = true
			}
			a.sumF += v.Float()
		} else if a.isFloat {
			a.sumF += v.Float()
		} else {
			a.sumI += v.Int()
		}
	case "MIN":
		if a.min.IsNull() || types.Compare(v, a.min) < 0 {
			a.min = v
		}
		a.count++
	case "MAX":
		if a.max.IsNull() || types.Compare(v, a.max) > 0 {
			a.max = v
		}
		a.count++
	default:
		return fmt.Errorf("engine: unknown aggregate %s", f.Name)
	}
	return nil
}

func (a *aggState) result(spec *aggSpec) types.Value {
	f := spec.call
	switch f.Name {
	case "COUNT":
		return types.NewInt(a.count)
	case "SUM":
		if a.count == 0 {
			return types.Null()
		}
		if a.isFloat {
			return types.NewFloat(a.sumF)
		}
		return types.NewInt(a.sumI)
	case "AVG":
		if a.count == 0 {
			return types.Null()
		}
		if a.isFloat {
			return types.NewFloat(a.sumF / float64(a.count))
		}
		return types.NewFloat(float64(a.sumI) / float64(a.count))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	}
	return types.Null()
}

// group is one group of a grouped query: its key, the first row
// combination that fell into it (the GROUP BY expressions of the output
// are evaluated against it; nothing is for the one group of an aggregate
// without GROUP BY, whose output may reference no column) and its
// accumulators.
type group struct {
	key   types.Key
	first []types.Row
	aggs  []aggState
}

// startGroups resets the grouping state for a new execution.
func (st *execState) startGroups() {
	p := st.plan
	if len(p.groupBy) == 0 {
		clear(st.single.aggs)
		return
	}
	st.groups = make(map[string]*group)
}

// accumulate adds the current row combination to its group.
func (st *execState) accumulate() error {
	p := st.plan
	g := &st.single
	if len(p.groupBy) > 0 {
		key := make(types.Key, len(p.groupBy))
		for i, x := range p.groupBy {
			v, err := st.env.eval(x)
			if err != nil {
				return err
			}
			key[i] = v
		}
		enc := codec.NewBuf(32)
		enc.Row(types.Row(key))
		if g = st.groups[string(enc.Bytes())]; g == nil {
			g = &group{key: key, first: append([]types.Row(nil), st.env.rows...), aggs: make([]aggState, len(p.aggs))}
			st.groups[string(enc.Bytes())] = g
			st.byKey = append(st.byKey, g)
		}
	}
	for i := range p.aggs {
		spec := &p.aggs[i]
		var v types.Value
		if !spec.call.Star {
			if spec.arg == nil {
				return fmt.Errorf("engine: %s expects one argument", spec.call.Name)
			}
			var err error
			if v, err = st.env.eval(spec.arg); err != nil {
				return err
			}
		}
		if err := g.aggs[i].add(spec, v); err != nil {
			return err
		}
	}
	return nil
}

// emitGroups turns the accumulated groups into output rows, in key order.
// An aggregate without GROUP BY has exactly one group, even over no input.
func (st *execState) emitGroups() error {
	p := st.plan
	if len(p.groupBy) == 0 {
		return st.emitGroup(&st.single)
	}
	sort.SliceStable(st.byKey, func(i, j int) bool {
		return types.CompareKeys(st.byKey[i].key, st.byKey[j].key) < 0
	})
	for _, g := range st.byKey {
		if err := st.emitGroup(g); err != nil {
			return err
		}
	}
	return nil
}

func (st *execState) emitGroup(g *group) error {
	p := st.plan
	for i := range p.aggs {
		st.aggVals[i] = g.aggs[i].result(&p.aggs[i])
	}
	copy(st.env.rows, g.first)
	st.env.aggs = st.aggVals
	if p.having != nil {
		hv, err := st.env.eval(p.having)
		if err != nil || !truthy(hv) {
			return err
		}
	}
	return st.appendOutput()
}

// finish applies the operators that need the whole output — DISTINCT,
// ORDER BY, LIMIT/OFFSET — and builds the result.
func (e *Engine) finish(st *execState) (*Result, error) {
	p, ctx := st.plan, st.env.ctx
	rows := st.out
	w := len(p.cols)
	if p.distinct {
		rows = dedupeRows(rows, w)
	}
	// ORDER BY keys are the hidden trailing columns; sort, then strip.
	if nOrder := len(p.order); nOrder > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			a, b := rows[i], rows[j]
			for k := 0; k < nOrder; k++ {
				c := types.Compare(a[w+k], b[w+k])
				if c != 0 {
					if p.desc[k] {
						return c > 0
					}
					return c < 0
				}
			}
			// Total tie-break over the visible columns keeps the order —
			// and therefore LIMIT results — identical on every replica.
			return types.CompareKeys(types.Key(a[:w]), types.Key(b[:w])) < 0
		})
		for i := range rows {
			rows[i] = rows[i][:w]
		}
	}
	if p.limit != nil || p.offset != nil {
		if p.limit != nil && len(p.order) == 0 && ctx.tracking() {
			return nil, ErrLimitNeedsOrder
		}
		offset := int64(0)
		if p.offset != nil {
			v, ok := e.constValue(ctx, p.offset)
			if !ok || v.Kind() != types.KindInt || v.Int() < 0 {
				return nil, fmt.Errorf("engine: OFFSET must be a non-negative integer")
			}
			offset = v.Int()
		}
		limit := int64(len(rows))
		if p.limit != nil {
			v, ok := e.constValue(ctx, p.limit)
			if !ok || v.Kind() != types.KindInt || v.Int() < 0 {
				return nil, fmt.Errorf("engine: LIMIT must be a non-negative integer")
			}
			limit = v.Int()
		}
		if offset > int64(len(rows)) {
			offset = int64(len(rows))
		}
		end := offset + limit
		if end > int64(len(rows)) {
			end = int64(len(rows))
		}
		rows = rows[offset:end]
	}
	return &Result{Cols: p.cols, Rows: rows}, nil
}

// dedupeRows removes duplicate rows (comparing the visible width w),
// keeping first occurrences.
func dedupeRows(rows []types.Row, w int) []types.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		b := codec.NewBuf(64)
		b.Row(r[:w])
		k := string(b.Bytes())
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
