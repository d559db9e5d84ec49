// Package lexer implements the scanner for ESP source text.
//
// The scanner is a straightforward hand-written byte scanner. ESP source is
// ASCII-oriented (identifiers, integers, C-style comments); the scanner
// tolerates arbitrary UTF-8 in comments.
package lexer

import (
	"fmt"

	"esplang/internal/diag"
	"esplang/internal/token"
)

// Error is a lexical error with its source position. It is the shared
// compiler diagnostic, so lexical errors render with caret excerpts like
// every other stage's.
type Error = diag.Diagnostic

// Lexer scans ESP source text into tokens.
type Lexer struct {
	src    []byte
	offset int // current reading offset
	line   int
	col    int
	errs   []*Error
}

// New returns a lexer over src.
func New(src []byte) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{Offset: l.offset, Line: l.line, Column: l.col}
}

func (l *Lexer) peek() byte {
	if l.offset >= len(l.src) {
		return 0
	}
	return l.src[l.offset]
}

func (l *Lexer) peekAt(n int) byte {
	if l.offset+n >= len(l.src) {
		return 0
	}
	return l.src[l.offset+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.offset]
	l.offset++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isLetter(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (l *Lexer) skipSpace() {
	for l.offset < len(l.src) {
		switch l.peek() {
		case ' ', '\t', '\r', '\n':
			l.advance()
		default:
			return
		}
	}
}

// Next returns the next token, skipping comments. At end of input it
// returns an EOF token (repeatedly, if called again).
func (l *Lexer) Next() token.Token {
	for {
		t := l.next()
		if t.Kind != token.COMMENT {
			return t
		}
	}
}

func (l *Lexer) next() token.Token {
	l.skipSpace()
	pos := l.pos()
	if l.offset >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	c := l.advance()
	switch {
	case isLetter(c):
		start := pos.Offset
		for l.offset < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		lit := string(l.src[start:l.offset])
		return token.Token{Kind: token.Lookup(lit), Pos: pos, Lit: lit}
	case isDigit(c):
		start := pos.Offset
		for l.offset < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.offset < len(l.src) && isLetter(l.peek()) {
			l.errorf(pos, "malformed number: letter %q follows digits", l.peek())
		}
		return token.Token{Kind: token.INT, Pos: pos, Lit: string(l.src[start:l.offset])}
	}

	two := func(second byte, yes, no token.Kind) token.Token {
		if l.peek() == second {
			l.advance()
			return token.Token{Kind: yes, Pos: pos}
		}
		return token.Token{Kind: no, Pos: pos}
	}

	switch c {
	case '+':
		return token.Token{Kind: token.ADD, Pos: pos}
	case '-':
		return two('>', token.ARROW, token.SUB)
	case '*':
		return token.Token{Kind: token.MUL, Pos: pos}
	case '%':
		return token.Token{Kind: token.REM, Pos: pos}
	case '/':
		switch l.peek() {
		case '/':
			start := pos.Offset
			for l.offset < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			return token.Token{Kind: token.COMMENT, Pos: pos, Lit: string(l.src[start:l.offset])}
		case '*':
			start := pos.Offset
			l.advance() // consume '*'
			closed := false
			for l.offset < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(pos, "unterminated block comment")
			}
			return token.Token{Kind: token.COMMENT, Pos: pos, Lit: string(l.src[start:l.offset])}
		}
		return token.Token{Kind: token.QUO, Pos: pos}
	case '&':
		if l.peek() == '&' {
			l.advance()
			return token.Token{Kind: token.LAND, Pos: pos}
		}
		l.errorf(pos, "unexpected character %q (ESP has no unary '&')", c)
		return token.Token{Kind: token.ILLEGAL, Pos: pos, Lit: string(c)}
	case '|':
		switch l.peek() {
		case '|':
			l.advance()
			return token.Token{Kind: token.LOR, Pos: pos}
		case '>':
			l.advance()
			return token.Token{Kind: token.PIPEGT, Pos: pos}
		}
		l.errorf(pos, "unexpected character %q (expected '||' or '|>')", c)
		return token.Token{Kind: token.ILLEGAL, Pos: pos, Lit: string(c)}
	case '!':
		return two('=', token.NEQ, token.NOT)
	case '=':
		return two('=', token.EQL, token.ASSIGN)
	case '<':
		return two('=', token.LEQ, token.LSS)
	case '>':
		return two('=', token.GEQ, token.GTR)
	case '$':
		return token.Token{Kind: token.DOLLAR, Pos: pos}
	case '#':
		return token.Token{Kind: token.HASH, Pos: pos}
	case '@':
		return token.Token{Kind: token.AT, Pos: pos}
	case '(':
		return token.Token{Kind: token.LPAREN, Pos: pos}
	case ')':
		return token.Token{Kind: token.RPAREN, Pos: pos}
	case '{':
		return token.Token{Kind: token.LBRACE, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBRACE, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBRACK, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBRACK, Pos: pos}
	case ',':
		return token.Token{Kind: token.COMMA, Pos: pos}
	case ';':
		return token.Token{Kind: token.SEMICOLON, Pos: pos}
	case ':':
		return token.Token{Kind: token.COLON, Pos: pos}
	case '.':
		if l.peek() == '.' && l.peekAt(1) == '.' {
			l.advance()
			l.advance()
			return token.Token{Kind: token.ELLIPSIS, Pos: pos}
		}
		return token.Token{Kind: token.DOT, Pos: pos}
	}
	l.errorf(pos, "unexpected character %q", c)
	return token.Token{Kind: token.ILLEGAL, Pos: pos, Lit: string(c)}
}

// ScanAll tokenizes the whole input (excluding comments) and returns the
// tokens up to and including EOF, plus any lexical errors.
func ScanAll(src []byte) ([]token.Token, []*Error) {
	l := New(src)
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, l.Errors()
		}
	}
}
