package sqlparser

// Entry points only this package's tests use (moved out of parser.go and
// ast.go in PR 25, when the contract language stopped re-parsing text
// fragments).

// ParseStatements parses a semicolon-separated statement list.
func ParseStatements(src string) ([]Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	var out []Statement
	for !p.AtEOF() {
		if p.AcceptOp(";") {
			continue
		}
		s, err := p.ParseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.AcceptOp(";") && !p.AtEOF() {
			return nil, p.ErrHere("expected ';' between statements, found %s", p.Cur())
		}
	}
	return out, nil
}

// ParseExprString parses a standalone scalar expression.
func ParseExprString(src string) (Expr, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if !p.AtEOF() {
		return nil, p.ErrHere("unexpected %s after expression", p.Cur())
	}
	return e, nil
}

// IsReadOnly reports whether the statement cannot modify data.
func IsReadOnly(s Statement) bool {
	switch s.(type) {
	case *Select, *Explain:
		return true
	}
	return false
}
