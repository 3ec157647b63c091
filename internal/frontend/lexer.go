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
	"slices"
	"strings"
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

// isKeyword reports whether a lower-cased word is a keyword.
func isKeyword(word string) bool {
	switch word {
	case "subroutine", "integer", "real", "do", "if", "then", "else",
		"elseif", "end", "enddo", "endif", "continue", "return", "call",
		"goto", "dimension", "parameter":
		return true
	}
	return false
}

// lexInto tokenizes the source, appending to toks[:0]; on error it
// still returns the slice, for reuse. FORTRAN-style comment lines
// (leading C, c, or !) and '!' tail comments are skipped; statements end
// at newlines.
func lexInto(toks []Token, src string) ([]Token, error) {
	// Typical sources run 2.5 bytes per token; len/2 avoids regrowth
	// without reserving far more than the source needs.
	toks = slices.Grow(toks[:0], len(src)/2+2)
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
			upper := false
			for j < n && (isAlnum(src[j]) || src[j] == '_') {
				upper = upper || 'A' <= src[j] && src[j] <= 'Z'
				j++
			}
			word := src[i:j]
			if upper {
				word = strings.ToLower(word)
			}
			i = j
			if isKeyword(word) {
				emit(TokKw, word)
			} else {
				emit(TokIdent, word)
			}
		case isDigit(c):
			j := i
			isReal := false
			for j < n && isDigit(src[j]) {
				j++
			}
			if j < n && src[j] == '.' && dotOp(src[j:]) < 0 {
				isReal = true
				j++
				for j < n && isDigit(src[j]) {
					j++
				}
			}
			if k := scanExponent(src, j); k > j {
				isReal, j = true, k
			}
			if isReal {
				emit(TokReal, realText(src[i:j]))
			} else {
				emit(TokInt, src[i:j])
			}
			i = j
		case c == '.':
			// .lt. style operators, .and., .or., .not., or a real like .5
			if k := dotOp(src[i:]); k >= 0 {
				op := &dotOps[k]
				emit(op.kind, op.text)
				i += len(op.pat)
				continue
			}
			if i+1 < n && isDigit(src[i+1]) {
				j := i + 1
				for j < n && isDigit(src[j]) {
					j++
				}
				j = scanExponent(src, j)
				emit(TokReal, realText(src[i:j]))
				i = j
				continue
			}
			return toks, fmt.Errorf("line %d: stray '.'", line)
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
				return toks, fmt.Errorf("line %d: exponentiation (**) is not supported", line)
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
			return toks, fmt.Errorf("line %d: unexpected character %q", line, string(c))
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

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scanExponent returns the end of the exponent that starts at src[j]
// (e, E, d or D, an optional sign, and at least one digit), or j if
// none does.
func scanExponent(src string, j int) int {
	if j >= len(src) {
		return j
	}
	switch src[j] {
	case 'e', 'E', 'd', 'D':
	default:
		return j
	}
	k := j + 1
	if k < len(src) && (src[k] == '+' || src[k] == '-') {
		k++
	}
	if k >= len(src) || !isDigit(src[k]) {
		return j
	}
	for k < len(src) && isDigit(src[k]) {
		k++
	}
	return k
}

// realText spells a real literal as strconv.ParseFloat reads it:
// lower-cased, with a double-precision d exponent written as e.
func realText(s string) string {
	return strings.ReplaceAll(strings.ToLower(s), "d", "e")
}

// dotOps are the dotted FORTRAN operators and the token each becomes.
var dotOps = [...]struct {
	pat, text string
	kind      TokKind
}{
	{".and.", "&&", TokAnd}, {".or.", "||", TokOr}, {".not.", "!", TokNot},
	{".lt.", "<", TokRelop}, {".le.", "<=", TokRelop},
	{".gt.", ">", TokRelop}, {".ge.", ">=", TokRelop},
	{".eq.", "==", TokRelop}, {".ne.", "/=", TokRelop},
}

// dotOp returns the index in dotOps of the operator s starts with,
// matched case-insensitively, or -1. It reads at most five bytes of s,
// so deciding whether each "1." starts a real keeps lexing linear. No
// non-ASCII rune lower-cases to a letter of these operators, so ASCII
// folding matches what strings.ToLower would.
func dotOp(s string) int {
	for k := range dotOps {
		pat := dotOps[k].pat
		if len(s) < len(pat) {
			continue
		}
		match := true
		for j := 0; j < len(pat); j++ {
			c := s[j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != pat[j] {
				match = false
				break
			}
		}
		if match {
			return k
		}
	}
	return -1
}
