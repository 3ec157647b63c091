// Package frontend compiles a small FORTRAN-style loop language into the
// schedulable loop IR. It stands in for the Cydrome FORTRAN77 front end
// the paper used (Section 6): the subset it accepts — DO loops over
// scalars and one-dimensional arrays with IF/THEN/ELSE bodies, no calls,
// no gotos — is exactly the class of loops the paper's compiler modulo
// schedules, and the lowering performs the paper's named preparation
// passes: if-conversion to predicated form (Section 2.2), load/store
// elimination so cross-iteration array flow travels in registers
// (Section 2.3), strength-reduced address recurrences, static single
// assignment renaming (Section 5.1), and array dependence analysis that
// labels memory arcs with exact or conservative ω distances (Section 3.1).
package frontend

import (
	"fmt"
	"strings"
	"unicode"
)

// TokKind classifies tokens.
type TokKind int

// Token kinds. Keywords are matched case-insensitively, FORTRAN style.
const (
	TokEOF TokKind = iota
	TokNewline
	TokIdent
	TokInt
	TokReal
	TokLParen
	TokRParen
	TokComma
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokAssign
	TokRelop // .lt. .le. .gt. .ge. .eq. .ne. and < <= > >= == /=
	TokAnd   // .and.
	TokOr    // .or.
	TokNot   // .not.
	TokKw    // keyword: subroutine, integer, real, do, if, then, else, end, enddo, endif, continue, call, goto
)

// Token is one lexeme with its source line for diagnostics.
type Token struct {
	Kind TokKind
	Text string // lower-cased for idents/keywords
	Line int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of file"
	case TokNewline:
		return "end of line"
	}
	return fmt.Sprintf("%q", t.Text)
}

var keywords = map[string]bool{
	"subroutine": true, "integer": true, "real": true, "do": true,
	"if": true, "then": true, "else": true, "elseif": true, "end": true,
	"enddo": true, "endif": true, "continue": true, "return": true,
	"call": true, "goto": true, "dimension": true, "parameter": true,
}

// Lex tokenizes the source. FORTRAN-style comment lines (leading C, c,
// or !) and '!' tail comments are skipped; statements end at newlines.
func Lex(src string) ([]Token, error) {
	var toks []Token
	line := 1
	i := 0
	n := len(src)
	emit := func(k TokKind, text string) {
		toks = append(toks, Token{Kind: k, Text: text, Line: line})
	}
	lastNewline := true
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			if !lastNewline {
				emit(TokNewline, "\\n")
				lastNewline = true
			}
			line++
			i++
			continue
		case c == '!':
			for i < n && src[i] != '\n' {
				i++
			}
			continue
		case c == '&':
			// Continuation: swallow the rest of the line and the
			// newline, so the statement continues on the next line.
			for i < n && src[i] != '\n' {
				i++
			}
			if i < n {
				i++
				line++
			}
			continue
		case (c == 'c' || c == 'C' || c == '*') && lastNewline:
			// Classic FORTRAN comment line: starts at column 1.
			// Distinguish from code: treat as comment only if followed
			// by a space or another comment-ish char; identifiers like
			// "continue" appear after leading whitespace in our inputs.
			if c == '*' || i+1 >= n || src[i+1] == ' ' || src[i+1] == '\n' {
				for i < n && src[i] != '\n' {
					i++
				}
				continue
			}
		case c == ' ' || c == '\t' || c == '\r':
			i++
			continue
		}
		lastNewline = false
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_':
			// ASCII only: a byte of a multi-byte rune is not a letter,
			// and the identifier scan below would not advance past it.
			j := i
			for j < n && (isAlnum(src[j]) || src[j] == '_') {
				j++
			}
			word := strings.ToLower(src[i:j])
			i = j
			if keywords[word] {
				emit(TokKw, word)
			} else {
				emit(TokIdent, word)
			}
		case unicode.IsDigit(rune(c)):
			j := i
			isReal := false
			for j < n && unicode.IsDigit(rune(src[j])) {
				j++
			}
			if j < n && src[j] == '.' && !isRelopStart(src[j:]) {
				isReal = true
				j++
				for j < n && unicode.IsDigit(rune(src[j])) {
					j++
				}
			}
			if j < n && (src[j] == 'e' || src[j] == 'E' || src[j] == 'd' || src[j] == 'D') {
				k := j + 1
				if k < n && (src[k] == '+' || src[k] == '-') {
					k++
				}
				if k < n && unicode.IsDigit(rune(src[k])) {
					isReal = true
					j = k
					for j < n && unicode.IsDigit(rune(src[j])) {
						j++
					}
				}
			}
			if isReal {
				emit(TokReal, strings.ToLower(strings.ReplaceAll(src[i:j], "d", "e")))
			} else {
				emit(TokInt, src[i:j])
			}
			i = j
		case c == '.':
			// .lt. style operators, .and., .or., .not., or a real like .5
			rest := strings.ToLower(src[i:minInt(i+6, n)])
			matched := false
			for _, op := range []struct {
				pat, text string
				kind      TokKind
			}{
				{".and.", "&&", TokAnd}, {".or.", "||", TokOr}, {".not.", "!", TokNot},
				{".lt.", "<", TokRelop}, {".le.", "<=", TokRelop},
				{".gt.", ">", TokRelop}, {".ge.", ">=", TokRelop},
				{".eq.", "==", TokRelop}, {".ne.", "/=", TokRelop},
			} {
				if strings.HasPrefix(rest, op.pat) {
					emit(op.kind, op.text)
					i += len(op.pat)
					matched = true
					break
				}
			}
			if matched {
				continue
			}
			if i+1 < n && unicode.IsDigit(rune(src[i+1])) {
				j := i + 1
				for j < n && unicode.IsDigit(rune(src[j])) {
					j++
				}
				emit(TokReal, src[i:j])
				i = j
				continue
			}
			return nil, fmt.Errorf("line %d: stray '.'", line)
		case c == '(':
			emit(TokLParen, "(")
			i++
		case c == ')':
			emit(TokRParen, ")")
			i++
		case c == ',':
			emit(TokComma, ",")
			i++
		case c == '+':
			emit(TokPlus, "+")
			i++
		case c == '-':
			emit(TokMinus, "-")
			i++
		case c == '*':
			if i+1 < n && src[i+1] == '*' {
				return nil, fmt.Errorf("line %d: exponentiation (**) is not supported", line)
			}
			emit(TokStar, "*")
			i++
		case c == '/':
			if i+1 < n && src[i+1] == '=' {
				emit(TokRelop, "/=")
				i += 2
			} else {
				emit(TokSlash, "/")
				i++
			}
		case c == '=':
			if i+1 < n && src[i+1] == '=' {
				emit(TokRelop, "==")
				i += 2
			} else {
				emit(TokAssign, "=")
				i++
			}
		case c == '<':
			if i+1 < n && src[i+1] == '=' {
				emit(TokRelop, "<=")
				i += 2
			} else {
				emit(TokRelop, "<")
				i++
			}
		case c == '>':
			if i+1 < n && src[i+1] == '=' {
				emit(TokRelop, ">=")
				i += 2
			} else {
				emit(TokRelop, ">")
				i++
			}
		default:
			return nil, fmt.Errorf("line %d: unexpected character %q", line, string(c))
		}
	}
	if len(toks) > 0 && toks[len(toks)-1].Kind != TokNewline {
		emit(TokNewline, "\\n")
	}
	emit(TokEOF, "")
	return toks, nil
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func isRelopStart(s string) bool {
	for _, p := range []string{".lt.", ".le.", ".gt.", ".ge.", ".eq.", ".ne.", ".and.", ".or.", ".not."} {
		if strings.HasPrefix(strings.ToLower(s), p) {
			return true
		}
	}
	return false
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
