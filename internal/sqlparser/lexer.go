package sqlparser

import (
	"fmt"
	"strings"
)

// lexer tokenizes SQL (and procedure-language) source text.
type lexer struct {
	src string
	pos int
}

// SyntaxError is returned for lexical and parse errors, with the byte
// offset into the source.
type SyntaxError struct {
	Pos int
	Msg string
	Src string
}

func (e *SyntaxError) Error() string {
	line, col := 1, 1
	for i := 0; i < e.Pos && i < len(e.Src); i++ {
		if e.Src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("sql: line %d col %d: %s", line, col, e.Msg)
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...), Src: l.src}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// next returns the next token.
func (l *lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]

	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentCont(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		upper := strings.ToUpper(word)
		if keywords[upper] {
			return Token{Kind: TokKeyword, Text: upper, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: strings.ToLower(word), Pos: start}, nil

	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		isFloat := false
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		if l.pos < len(l.src) && l.src[l.pos] == '.' {
			isFloat = true
			l.pos++
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
			mark := l.pos
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
			if l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				isFloat = true
				for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
					l.pos++
				}
			} else {
				l.pos = mark // not an exponent, back off
			}
		}
		kind := TokInt
		if isFloat {
			kind = TokFloat
		}
		return Token{Kind: kind, Text: l.src[start:l.pos], Pos: start}, nil

	case c == '\'':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, l.errf(start, "unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			sb.WriteByte(ch)
			l.pos++
		}
		return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil

	case c == '$':
		l.pos++
		if l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
			return Token{Kind: TokParam, Text: l.src[start:l.pos], Pos: start}, nil
		}
		// $$ body delimiter used by CREATE FUNCTION.
		if l.pos < len(l.src) && l.src[l.pos] == '$' {
			l.pos++
			return Token{Kind: TokOp, Text: "$$", Pos: start}, nil
		}
		return Token{}, l.errf(start, "unexpected character %q", c)

	default:
		// Multi-char operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<=", ">=", "<>", "!=", "||", ":=":
			l.pos += 2
			return Token{Kind: TokOp, Text: two, Pos: start}, nil
		}
		switch c {
		case '+', '-', '*', '/', '%', '(', ')', ',', '=', '<', '>', '.', ';', ':':
			l.pos++
			return Token{Kind: TokOp, Text: string(c), Pos: start}, nil
		}
		return Token{}, l.errf(start, "unexpected character %q", c)
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isSpace(c):
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				l.pos++
			}
			l.pos += 2
			if l.pos > len(l.src) {
				l.pos = len(l.src)
			}
		default:
			return
		}
	}
}

// tokenize returns all tokens of src including the trailing EOF token.
func tokenize(src string) ([]Token, error) {
	l := &lexer{src: src}
	var out []Token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
