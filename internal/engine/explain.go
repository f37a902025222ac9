package engine

import (
	"errors"
	"fmt"
	"strings"

	"bcrdb/internal/sqlparser"
	"bcrdb/internal/types"
)

// ErrExplainCtx rejects EXPLAIN outside plain read-only queries: what it
// reports (cache state, the path for this call's bounds shape) is
// node-local and must not reach a contract.
var ErrExplainCtx = errors.New("engine: EXPLAIN is only available to read-only queries")

// execExplain renders the plan the engine would run for the query, one
// text row per operator in data-flow order: every input with its access
// path (for a join also the strategy and the ON clause), the WHERE filter,
// the sink, the tail operators, and whether the plan was found prepared.
// Access paths are the ones this call's parameter values select.
func (e *Engine) execExplain(ctx *ExecCtx, pr *Prepared, s *sqlparser.Explain) (*Result, error) {
	if ctx.Mode != ModeReadOnly {
		return nil, ErrExplainCtx
	}
	q := s.Query
	res := &Result{Cols: []string{"plan"}}
	line := func(format string, args ...any) {
		res.Rows = append(res.Rows, types.Row{types.NewString(fmt.Sprintf(format, args...))})
	}
	if q.From == nil {
		line("result: one row of constants")
		return res, nil
	}
	plan, cached, err := e.planFor(pr, q)
	if err == nil {
		err = plan.checkRefs()
	}
	if err != nil {
		return nil, err
	}
	st := plan.state()
	st.env.ctx = ctx
	defer st.release()
	for i, t := range plan.tables {
		tbl, err := e.store.Table(t.name)
		if err != nil {
			return nil, err
		}
		schema := tbl.Schema()
		// describe renders "<kind> of <index> (<the index columns it binds>)".
		describe := func(kind, ixName string, ixCols []int) string {
			names := make([]string, len(ixCols))
			for k, c := range ixCols {
				names[k] = schema.Columns[c].Name
			}
			return fmt.Sprintf("%s of %s (%s)", kind, ixName, strings.Join(names, ", "))
		}
		// A derived table stores no index: its provider serves the chosen
		// path, or walks its whole source where the plan has no bound.
		derived := ""
		if t.derived {
			derived = "derived "
		}
		var access string
		if pb := t.probe; pb != nil {
			cols, _ := tbl.IndexCols(pb.index)
			kind := "prefix probe"
			if pb.point {
				kind = "point probe"
			}
			access = derived + describe(kind, pb.index, cols[:len(pb.keys)])
		} else {
			path, known := st.pathOf(i)
			cached = cached && known
			switch {
			case !path.indexed && t.derived:
				access = "scan"
			case !path.indexed:
				access = "full scan of " + path.index
			case len(path.rng) > 0:
				access = describe("range scan", path.index, path.cols[:len(path.eq)+1])
			case len(path.eq) == len(path.cols):
				access = describe("point scan", path.index, path.cols)
			default:
				access = describe("prefix scan", path.index, path.cols[:len(path.eq)])
			}
			access = derived + access
			if i > 0 {
				access = "nested loop over " + access
			}
		}
		if i == 0 {
			line("scan %s as %s: %s", t.name, t.alias, access)
		} else {
			j := q.Joins[i-1]
			line("%s join %s as %s: %s, on %s", strings.ToLower(j.Kind), t.name, t.alias, access, exprKey(j.On))
		}
	}
	if q.Where != nil {
		line("filter: %s", exprKey(q.Where))
	}
	if plan.grouped {
		keys := make([]string, len(q.GroupBy))
		for i, g := range q.GroupBy {
			keys[i] = exprKey(g)
		}
		line("aggregate: group by (%s)", strings.Join(keys, ", "))
	}
	if q.Having != nil {
		line("having: %s", exprKey(q.Having))
	}
	line("project: %s", strings.Join(plan.cols, ", "))
	if q.Distinct {
		line("distinct")
	}
	if len(q.OrderBy) > 0 {
		keys := make([]string, len(q.OrderBy))
		for i, o := range q.OrderBy {
			keys[i] = exprKey(o.Expr)
			if o.Desc {
				keys[i] += " DESC"
			}
		}
		line("sort: %s", strings.Join(keys, ", "))
	}
	if q.Limit != nil {
		line("limit: %s", exprKey(q.Limit))
	}
	if q.Offset != nil {
		line("offset: %s", exprKey(q.Offset))
	}
	if cached {
		line("plan cache: hit")
	} else {
		line("plan cache: miss")
	}
	return res, nil
}
