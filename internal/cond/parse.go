package cond

import (
	"fmt"
	"strings"

	"incxml/internal/interval"
	"incxml/internal/rat"
)

// Parse reads a condition from its textual form. The grammar follows the
// paper's notation in ASCII:
//
//	expr   := term  { ("|" | "or")  term }
//	term   := factor { ("&" | "and") factor }
//	factor := ("!" | "not") factor | "(" expr ")" | atom | "true" | "false"
//	atom   := ("=" | "!=" | "<" | "<=" | ">" | ">=") rational
//
// Examples: "< 200", ">= 100 & < 200", "!= 0", "(= 1 | = 2) & != 2", "true".
func Parse(s string) (Cond, error) {
	p := &parser{toks: tokenize(s)}
	c, err := p.parseExpr()
	if err != nil {
		return Cond{}, err
	}
	if p.pos != len(p.toks) {
		return Cond{}, fmt.Errorf("cond: trailing input %q", p.toks[p.pos])
	}
	return c, nil
}

// MustParse is Parse that panics on error; for literals in tests and tables.
func MustParse(s string) Cond {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

func tokenize(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(' || c == ')' || c == '&' || c == '|':
			toks = append(toks, string(c))
			i++
		case c == '!' && i+1 < len(s) && s[i+1] == '=':
			toks = append(toks, "!=")
			i += 2
		case c == '!':
			toks = append(toks, "!")
			i++
		case c == '<' || c == '>':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, s[i:i+2])
				i += 2
			} else {
				toks = append(toks, string(c))
				i++
			}
		case c == '=':
			toks = append(toks, "=")
			i++
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" \t\n()&|!<>=", rune(s[j])) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks
}

type parser struct {
	toks []string
	pos  int
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) parseExpr() (Cond, error) {
	c, err := p.parseTerm()
	if err != nil {
		return Cond{}, err
	}
	for p.peek() == "|" || p.peek() == "or" {
		p.next()
		d, err := p.parseTerm()
		if err != nil {
			return Cond{}, err
		}
		c = c.Or(d)
	}
	return c, nil
}

func (p *parser) parseTerm() (Cond, error) {
	c, err := p.parseFactor()
	if err != nil {
		return Cond{}, err
	}
	for p.peek() == "&" || p.peek() == "and" {
		p.next()
		d, err := p.parseFactor()
		if err != nil {
			return Cond{}, err
		}
		c = c.And(d)
	}
	return c, nil
}

func (p *parser) parseFactor() (Cond, error) {
	switch t := p.peek(); t {
	case "":
		return Cond{}, fmt.Errorf("cond: unexpected end of input")
	case "!", "not":
		p.next()
		c, err := p.parseFactor()
		if err != nil {
			return Cond{}, err
		}
		return c.Not(), nil
	case "(":
		p.next()
		c, err := p.parseExpr()
		if err != nil {
			return Cond{}, err
		}
		if p.next() != ")" {
			return Cond{}, fmt.Errorf("cond: missing closing parenthesis")
		}
		return c, nil
	case "true":
		p.next()
		return True(), nil
	case "false":
		p.next()
		return False(), nil
	case "=", "!=", "<", "<=", ">", ">=":
		op := p.next()
		v, err := rat.Parse(p.next())
		if err != nil {
			return Cond{}, fmt.Errorf("cond: after %q: %v", op, err)
		}
		switch op {
		case "=":
			return Eq(v), nil
		case "!=":
			return Ne(v), nil
		case "<":
			return Lt(v), nil
		case "<=":
			return Le(v), nil
		case ">":
			return Gt(v), nil
		default:
			return Ge(v), nil
		}
	default:
		return Cond{}, fmt.Errorf("cond: unexpected token %q", t)
	}
}

// String renders the condition in the same syntax Parse accepts, rebuilt
// from the interval normal form (so it is canonical: equivalent conditions
// print identically).
func (c Cond) String() string {
	s := c.Set()
	if s.IsEmpty() {
		return "false"
	}
	if s.IsFull() {
		return "true"
	}
	// Special-case "!= v": the normal form of Q \ {v} is the two open rays
	// (−∞, v) and (v, +∞).
	if ivs := s.Intervals(); len(ivs) == 2 && ivs[0].Lo.Inf < 0 && ivs[1].Hi.Inf > 0 &&
		ivs[0].Hi.Inf == 0 && ivs[1].Lo.Inf == 0 && !ivs[0].Hi.Closed && !ivs[1].Lo.Closed &&
		ivs[0].Hi.Value.Equal(ivs[1].Lo.Value) {
		return "!= " + ivs[0].Hi.Value.String()
	}
	parts := make([]string, 0, s.Size())
	for _, iv := range s.Intervals() {
		parts = append(parts, intervalCond(iv))
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return strings.Join(parts, " | ")
}

func intervalCond(iv interval.Interval) string {
	if v, ok := iv.IsPoint(); ok {
		return "= " + v.String()
	}
	var lo, hi string
	if iv.Lo.Inf == 0 {
		if iv.Lo.Closed {
			lo = ">= " + iv.Lo.Value.String()
		} else {
			lo = "> " + iv.Lo.Value.String()
		}
	}
	if iv.Hi.Inf == 0 {
		if iv.Hi.Closed {
			hi = "<= " + iv.Hi.Value.String()
		} else {
			hi = "< " + iv.Hi.Value.String()
		}
	}
	switch {
	case lo == "":
		return hi
	case hi == "":
		return lo
	default:
		return "(" + lo + " & " + hi + ")"
	}
}
