// Package directive implements the HPAC-ML programming-model grammar from
// Figure 3 of the paper: the tensor functor declaration, the tensor map
// clause, and the approx ml clause. In the original system a Clang extension
// parses these as #pragma annotations; Go has no annotation mechanism, so
// the same grammar is parsed at run time from directive strings and lowered
// onto the runtime API (see docs/ARCHITECTURE.md, "Paper concept →
// package map").
package directive

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical classes of the directive language.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokLParen  // (
	tokRParen  // )
	tokLBrack  // [
	tokRBrack  // ]
	tokColon   // :
	tokComma   // ,
	tokAssign  // =
	tokPlus    // +
	tokMinus   // -
	tokStar    // *
	tokSlash   // /
	tokPercent // %
	tokHash    // #
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of directive"
	case tokIdent:
		return "identifier"
	case tokInt:
		return "integer"
	case tokFloat:
		return "float"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrack:
		return "'['"
	case tokRBrack:
		return "']'"
	case tokColon:
		return "':'"
	case tokComma:
		return "','"
	case tokAssign:
		return "'='"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokPercent:
		return "'%'"
	case tokHash:
		return "'#'"
	}
	return "unknown token"
}

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset in the source, for error messages
}

// lexer converts a directive string into tokens. Line continuations
// (backslash-newline, as used in real pragmas) are treated as whitespace.
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\\':
			// Pragma line continuation: skip the backslash and any
			// following newline/whitespace.
			l.pos++
		case unicode.IsSpace(rune(c)):
			l.pos++
		case c == '"':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case unicode.IsDigit(rune(c)):
			l.lexInt()
		case isIdentStart(rune(c)):
			l.lexIdent()
		default:
			kind, ok := punctKind(c)
			if !ok {
				return nil, fmt.Errorf("directive: unexpected character %q at offset %d", c, l.pos)
			}
			l.emit(kind, string(c), l.pos)
			l.pos++
		}
	}
	l.emit(tokEOF, "", l.pos)
	return l.toks, nil
}

func punctKind(c byte) (tokenKind, bool) {
	switch c {
	case '(':
		return tokLParen, true
	case ')':
		return tokRParen, true
	case '[':
		return tokLBrack, true
	case ']':
		return tokRBrack, true
	case ':':
		return tokColon, true
	case ',':
		return tokComma, true
	case '=':
		return tokAssign, true
	case '+':
		return tokPlus, true
	case '-':
		return tokMinus, true
	case '*':
		return tokStar, true
	case '/':
		return tokSlash, true
	case '%':
		return tokPercent, true
	case '#':
		return tokHash, true
	}
	return tokEOF, false
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentCont(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *lexer) emit(kind tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentCont(rune(l.src[l.pos])) {
		l.pos++
	}
	l.emit(tokIdent, l.src[start:l.pos], start)
}

// lexInt scans a number: an integer, or a float literal when a '.'
// fraction and/or an e/E exponent follows the integer part (as used by
// the capture(frac:F) and trust(var:V) clauses, whose %g rendering may
// emit scientific notation; slice expressions stay integer-only and
// reject floats in the parser). An 'e' not followed by an (optionally
// signed) digit is left alone as the next identifier.
func (l *lexer) lexInt() {
	start := l.pos
	for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
		l.pos++
	}
	isFloat := false
	if l.pos+1 < len(l.src) && l.src[l.pos] == '.' && unicode.IsDigit(rune(l.src[l.pos+1])) {
		isFloat = true
		l.pos++
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		rest := l.src[l.pos+1:]
		if len(rest) > 0 && (rest[0] == '+' || rest[0] == '-') {
			rest = rest[1:]
		}
		if len(rest) > 0 && unicode.IsDigit(rune(rest[0])) {
			isFloat = true
			l.pos++ // e
			if l.src[l.pos] == '+' || l.src[l.pos] == '-' {
				l.pos++
			}
			for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
				l.pos++
			}
		}
	}
	if isFloat {
		l.emit(tokFloat, l.src[start:l.pos], start)
		return
	}
	l.emit(tokInt, l.src[start:l.pos], start)
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			l.emit(tokString, b.String(), start)
			return nil
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			c = l.src[l.pos]
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("directive: unterminated string starting at offset %d", start)
}
