package sqlengine

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokOp
	tokParam // ? positional placeholder
)

type token struct {
	kind tokenKind
	text string // uppercase for keywords, raw otherwise
	pos  int    // byte offset in input, for error messages
}

// keywords recognized by the parser. Identifiers matching these
// (case-insensitively) lex as tokKeyword.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "OFFSET": true,
	"AS": true, "ON": true, "JOIN": true, "INNER": true, "LEFT": true,
	"OUTER": true, "CROSS": true, "AND": true, "OR": true, "NOT": true,
	"NULL": true, "IS": true, "IN": true, "BETWEEN": true, "LIKE": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"CREATE": true, "TABLE": true, "DROP": true, "INSERT": true,
	"INTO": true, "VALUES": true, "DELETE": true, "UPDATE": true,
	"SET": true, "WITH": true, "DISTINCT": true, "ALL": true,
	"ASC": true, "DESC": true, "IF": true, "EXISTS": true,
	"TRUE": true, "FALSE": true, "CAST": true, "INDEX": true,
	"PRIMARY": true, "KEY": true, "UNION": true, "EXCEPT": true,
	"INTERSECT": true, "RECURSIVE": true, "EXPLAIN": true, "ANALYZE": true,
}

// lexer converts SQL text into tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lexSQL tokenizes the input; it returns an error with byte position on
// any unrecognized character or unterminated literal.
func lexSQL(src string) ([]token, error) {
	// Translated SQL runs about two bytes per token (operators,
	// parentheses and short aliases), so this capacity rarely grows.
	lx := &lexer{src: src, toks: make([]token, 0, len(src)/2+2)}
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		lx.toks = append(lx.toks, tok)
		if tok.kind == tokEOF {
			return lx.toks, nil
		}
	}
}

func (lx *lexer) errorf(pos int, format string, args ...any) error {
	line, col := 1, 1
	for i := 0; i < pos && i < len(lx.src); i++ {
		if lx.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("sql:%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (lx *lexer) next() (token, error) {
	lx.skipSpaceAndComments()
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, pos: lx.pos}, nil
	}
	start := lx.pos
	c := lx.src[lx.pos]

	switch {
	case c == '?':
		lx.pos++
		return token{kind: tokParam, text: "?", pos: start}, nil

	case isIdentStart(rune(c)):
		for lx.pos < len(lx.src) && isIdentPart(rune(lx.src[lx.pos])) {
			lx.pos++
		}
		word := lx.src[start:lx.pos]
		upper := strings.ToUpper(word)
		if keywords[upper] {
			return token{kind: tokKeyword, text: upper, pos: start}, nil
		}
		return token{kind: tokIdent, text: word, pos: start}, nil

	case c == '"': // quoted identifier
		lx.pos++
		var b strings.Builder
		for {
			if lx.pos >= len(lx.src) {
				return token{}, lx.errorf(start, "unterminated quoted identifier")
			}
			ch := lx.src[lx.pos]
			if ch == '"' {
				if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '"' {
					b.WriteByte('"')
					lx.pos += 2
					continue
				}
				lx.pos++
				break
			}
			b.WriteByte(ch)
			lx.pos++
		}
		return token{kind: tokIdent, text: b.String(), pos: start}, nil

	case c == '\'': // string literal
		lx.pos++
		var b strings.Builder
		for {
			if lx.pos >= len(lx.src) {
				return token{}, lx.errorf(start, "unterminated string literal")
			}
			ch := lx.src[lx.pos]
			if ch == '\'' {
				if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '\'' {
					b.WriteByte('\'')
					lx.pos += 2
					continue
				}
				lx.pos++
				break
			}
			b.WriteByte(ch)
			lx.pos++
		}
		return token{kind: tokString, text: b.String(), pos: start}, nil

	case c >= '0' && c <= '9' || c == '.' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] >= '0' && lx.src[lx.pos+1] <= '9':
		seenDot, seenExp := false, false
		for lx.pos < len(lx.src) {
			ch := lx.src[lx.pos]
			switch {
			case ch >= '0' && ch <= '9':
				lx.pos++
			case ch == '.' && !seenDot && !seenExp:
				seenDot = true
				lx.pos++
			case (ch == 'e' || ch == 'E') && !seenExp && lx.pos > start:
				seenExp = true
				lx.pos++
				if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
					lx.pos++
				}
			default:
				goto doneNumber
			}
		}
	doneNumber:
		return token{kind: tokNumber, text: lx.src[start:lx.pos], pos: start}, nil

	default:
		// Multi-char operators first.
		two := ""
		if lx.pos+1 < len(lx.src) {
			two = lx.src[lx.pos : lx.pos+2]
		}
		switch two {
		case "<<", ">>", "<=", ">=", "<>", "!=", "==", "||":
			lx.pos += 2
			return token{kind: tokOp, text: two, pos: start}, nil
		}
		switch c {
		case '+', '-', '*', '/', '%', '&', '|', '~', '<', '>', '=', '(', ')', ',', ';', '.':
			lx.pos++
			return token{kind: tokOp, text: string(c), pos: start}, nil
		}
		return token{}, lx.errorf(start, "unexpected character %q", string(c))
	}
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.pos++
		case c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			lx.pos += 2
			for lx.pos+1 < len(lx.src) && !(lx.src[lx.pos] == '*' && lx.src[lx.pos+1] == '/') {
				lx.pos++
			}
			lx.pos += 2
			if lx.pos > len(lx.src) {
				lx.pos = len(lx.src)
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
