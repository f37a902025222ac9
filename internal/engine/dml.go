package engine

import (
	"fmt"

	"bcrdb/internal/sqlparser"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

func (e *Engine) writable(ctx *ExecCtx) error {
	if ctx.Mode == ModeReadOnly || ctx.Rec == nil {
		return ErrReadOnlyCtx
	}
	return nil
}

func (e *Engine) execInsert(ctx *ExecCtx, s *sqlparser.Insert) (*Result, error) {
	if err := e.refuseDerived(s.Table); err != nil {
		return nil, err
	}
	if err := e.writable(ctx); err != nil {
		return nil, err
	}
	if err := e.checkWriteClass(ctx, s.Table); err != nil {
		return nil, err
	}
	t, err := e.store.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()

	// Map the statement's column list to table ordinals.
	var ords []int
	if len(s.Columns) == 0 {
		ords = make([]int, len(schema.Columns))
		for i := range ords {
			ords[i] = i
		}
	} else {
		seen := make(map[int]bool)
		for _, c := range s.Columns {
			ord := schema.ColIndex(c)
			if ord < 0 {
				return nil, fmt.Errorf("engine: column %q not in table %s", c, s.Table)
			}
			if seen[ord] {
				return nil, fmt.Errorf("engine: column %q listed twice", c)
			}
			seen[ord] = true
			ords = append(ords, ord)
		}
	}

	env := &evalEnv{ctx: ctx}
	n := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(ords) {
			return nil, fmt.Errorf("engine: INSERT has %d values for %d columns", len(exprRow), len(ords))
		}
		row := make(types.Row, len(schema.Columns))
		filled := make([]bool, len(schema.Columns))
		for i, ex := range exprRow {
			v, err := env.eval(ex)
			if err != nil {
				return nil, err
			}
			row[ords[i]] = v
			filled[ords[i]] = true
		}
		for i, c := range schema.Columns {
			if !filled[i] {
				if c.HasDefault {
					row[i] = c.Default
				} else {
					row[i] = types.Null()
				}
			}
		}
		if _, err := e.store.Insert(ctx.Rec, s.Table, row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

func (e *Engine) execUpdate(ctx *ExecCtx, pr *Prepared, s *sqlparser.Update) (*Result, error) {
	if err := e.refuseDerived(s.Table); err != nil {
		return nil, err
	}
	if err := e.writable(ctx); err != nil {
		return nil, err
	}
	if err := e.checkWriteClass(ctx, s.Table); err != nil {
		return nil, err
	}
	st, err := e.matchForWrite(ctx, pr)
	if err != nil {
		return nil, err
	}
	defer st.release()
	p := st.plan
	for _, h := range st.hits[0] {
		newRow := h.row.Clone()
		st.env.rows[0] = h.row
		for i, x := range p.setVals {
			val, err := st.env.eval(x)
			if err != nil {
				return nil, err
			}
			newRow[p.setOrds[i]] = val
		}
		if err := e.store.MarkDelete(ctx.Rec, s.Table, h.id); err != nil {
			return nil, err
		}
		if _, err := e.store.Insert(ctx.Rec, s.Table, newRow); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(st.hits[0])}, nil
}

func (e *Engine) execDelete(ctx *ExecCtx, pr *Prepared, s *sqlparser.Delete) (*Result, error) {
	if err := e.refuseDerived(s.Table); err != nil {
		return nil, err
	}
	if err := e.writable(ctx); err != nil {
		return nil, err
	}
	if err := e.checkWriteClass(ctx, s.Table); err != nil {
		return nil, err
	}
	st, err := e.matchForWrite(ctx, pr)
	if err != nil {
		return nil, err
	}
	defer st.release()
	for _, h := range st.hits[0] {
		if err := e.store.MarkDelete(ctx.Rec, s.Table, h.id); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(st.hits[0])}, nil
}

// matchForWrite runs the WHERE scan of an UPDATE or DELETE and leaves in
// hits[0] the versions the statement applies to, in primary-key order. The
// scan is complete — every version read and tracked, every predicate
// evaluated — before the caller writes anything.
func (e *Engine) matchForWrite(ctx *ExecCtx, pr *Prepared) (*execState, error) {
	st, err := e.begin(ctx, pr)
	if err != nil {
		return nil, err
	}
	if where := st.plan.where; where != nil {
		kept := st.hits[0][:0]
		for _, h := range st.hits[0] {
			st.env.rows[0] = h.row
			v, err := st.env.eval(where)
			if err != nil {
				st.release()
				return nil, err
			}
			if truthy(v) {
				kept = append(kept, h)
			}
		}
		clear(st.hits[0][len(kept):])
		st.hits[0] = kept
	}
	return st, nil
}

// CreateTableWithDefaults is used by DDL execution to evaluate constant
// DEFAULT expressions at creation time (keeping them deterministic).
func evalDefault(ctx *ExecCtx, e *Engine, x sqlparser.Expr) (types.Value, error) {
	v, ok := e.constValue(ctx, x)
	if !ok {
		return types.Null(), fmt.Errorf("engine: DEFAULT must be a constant expression")
	}
	return v, nil
}

var _ = evalDefault // referenced from engine.go's CreateTable path

// storageColumns converts parser column definitions, evaluating defaults.
func (e *Engine) storageColumns(ctx *ExecCtx, defs []sqlparser.ColumnDef) ([]storage.Column, error) {
	out := make([]storage.Column, 0, len(defs))
	for _, c := range defs {
		col := storage.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull}
		if c.Default != nil {
			v, err := evalDefault(ctx, e, c.Default)
			if err != nil {
				return nil, err
			}
			cv, err := types.CoerceToKind(v, c.Type)
			if err != nil {
				return nil, fmt.Errorf("engine: DEFAULT for %s: %v", c.Name, err)
			}
			col.HasDefault = true
			col.Default = cv
		}
		out = append(out, col)
	}
	return out, nil
}
