// Package core implements NGDs — numeric graph dependencies — the primary
// contribution of Fan, Liu, Lu, Tian: "Catching Numeric Inconsistencies in
// Graphs" (SIGMOD 2018), §3.
//
// An NGD φ = Q[x̄](X → Y) combines a graph pattern Q (matched in data graphs
// by homomorphism) with an attribute dependency X → Y whose literals compare
// linear arithmetic expressions over the matched nodes' attributes with
// built-in predicates =, ≠, <, ≤, >, ≥.
//
// A match h(x̄) of Q in G satisfies a literal e₁ ⊗ e₂ iff every term x.A in
// it resolves (node h(x) carries A) and h(e₁) ⊗ h(e₂) holds; it satisfies
// X → Y iff h ⊨ X implies h ⊨ Y. G ⊨ φ iff every match satisfies X → Y.
// A match with h ⊨ X and h ⊭ Y is a violation (§5.1).
package core

import (
	"fmt"
	"strconv"
	"strings"

	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/pattern"
)

// Literal is a comparison e₁ ⊗ e₂ between arithmetic expressions of Q[x̄].
type Literal struct {
	L  *expr.Expr
	Op expr.Cmp
	R  *expr.Expr
}

// Lit builds a literal.
func Lit(l *expr.Expr, op expr.Cmp, r *expr.Expr) Literal {
	return Literal{L: l, Op: op, R: r}
}

// ParseLiteral parses "e1 <= e2" style text.
func ParseLiteral(src string) (Literal, error) {
	l, op, r, err := expr.ParseComparison(src)
	if err != nil {
		return Literal{}, err
	}
	return Literal{L: l, Op: op, R: r}, nil
}

// MustLiteral is ParseLiteral for static rule tables; panics on error.
func MustLiteral(src string) Literal {
	l, err := ParseLiteral(src)
	if err != nil {
		panic(err)
	}
	return l
}

// Satisfied reports h ⊨ l: evaluation must succeed (all attributes present,
// types compatible) and the comparison must hold (§3 semantics (a)+(b)).
func (l Literal) Satisfied(b expr.Binding) bool {
	ok, err := expr.Compare(l.L, l.Op, l.R, b)
	return err == nil && ok
}

// Vars returns the distinct pattern variables mentioned by the literal.
func (l Literal) Vars() []string {
	seen := make(map[string]struct{})
	var out []string
	collect := func(e *expr.Expr) {
		e.Terms(func(v, _ string) {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				out = append(out, v)
			}
		})
	}
	collect(l.L)
	collect(l.R)
	return out
}

// IsLinear reports whether both sides fit the linear grammar of §3.
func (l Literal) IsLinear() bool { return l.L.IsLinear() && l.R.IsLinear() }

func (l Literal) String() string {
	return expr.FormatComparison(l.L, l.Op, l.R)
}

// NGD is a numeric graph dependency Q[x̄](X → Y).
type NGD struct {
	Name    string
	Pattern *pattern.Pattern
	X       []Literal // precondition (possibly empty)
	Y       []Literal // consequence (possibly empty)

	diameter int
}

// New validates and constructs an NGD: the pattern must be well-formed,
// every literal variable must be a pattern variable, and every expression
// must be linear (Theorem 3 makes the non-linear extension undecidable for
// the static analyses, and the paper's NGDs are linear by definition).
func New(name string, p *pattern.Pattern, X, Y []Literal) (*NGD, error) {
	if strings.Contains(name, ":") {
		// Violation.Key is name:id:id…; rule a over [1 2] and rule a:1 over
		// [2] would otherwise share the key a:1:2
		return nil, fmt.Errorf("ngd %s: rule name contains ':', the separator of violation keys", name)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("ngd %s: %w", name, err)
	}
	for _, set := range [2][]Literal{X, Y} {
		for _, l := range set {
			if !l.IsLinear() {
				return nil, fmt.Errorf("ngd %s: literal %s is not linear (degree %d)",
					name, l, max(l.L.Degree(), l.R.Degree()))
			}
			for _, v := range l.Vars() {
				if p.VarIndex(v) < 0 {
					return nil, fmt.Errorf("ngd %s: literal %s references unknown variable %q", name, l, v)
				}
			}
		}
	}
	return &NGD{Name: name, Pattern: p, X: X, Y: Y, diameter: p.Diameter()}, nil
}

// MustNew is New panicking on error (static rule tables, tests).
func MustNew(name string, p *pattern.Pattern, X, Y []Literal) *NGD {
	n, err := New(name, p, X, Y)
	if err != nil {
		panic(err)
	}
	return n
}

// Diameter returns d_Q of the NGD's pattern.
func (n *NGD) Diameter() int { return n.diameter }

// String renders the NGD compactly.
func (n *NGD) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: Q[%s](", n.Name, n.Pattern)
	for i, l := range n.X {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(l.String())
	}
	b.WriteString(" -> ")
	for i, l := range n.Y {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(l.String())
	}
	b.WriteString(")")
	return b.String()
}

// Match is an instantiation h(x̄) of a pattern in a graph: Match[i] is the
// node matched to pattern node i. Homomorphism semantics: entries need not
// be distinct.
type Match []graph.NodeID

// Clone returns a private copy of the match. The violation searchers emit
// matches aliasing reusable scratch bindings, valid only during the emit
// callback — any caller that retains one must Clone it first.
func (m Match) Clone() Match { return append(Match(nil), m...) }

// Binding resolves literal terms against a match of n.Pattern in g.
func (n *NGD) Binding(g *graph.Graph, m Match) expr.Binding {
	syms := g.Symbols()
	p := n.Pattern
	return func(variable, attr string) (graph.Value, bool) {
		idx := p.VarIndex(variable)
		if idx < 0 || idx >= len(m) {
			return graph.Value{}, false
		}
		a := syms.LookupAttr(attr)
		if a < 0 {
			return graph.Value{}, false
		}
		v := g.Attr(m[idx], a)
		return v, v.Valid()
	}
}

// SatisfiesAll reports h ⊨ Z for a literal set.
func SatisfiesAll(lits []Literal, b expr.Binding) bool {
	for _, l := range lits {
		if !l.Satisfied(b) {
			return false
		}
	}
	return true
}

// Violated reports whether match m of n.Pattern violates n in g:
// h ⊨ X but h ⊭ Y.
func (n *NGD) Violated(g *graph.Graph, m Match) bool {
	b := n.Binding(g, m)
	return SatisfiesAll(n.X, b) && !SatisfiesAll(n.Y, b)
}

// Holds reports whether match m satisfies X → Y.
func (n *NGD) Holds(g *graph.Graph, m Match) bool { return !n.Violated(g, m) }

// Set is a set Σ of NGDs.
type Set struct {
	Rules []*NGD
}

// NewSet bundles rules into a Σ.
func NewSet(rules ...*NGD) *Set { return &Set{Rules: rules} }

// Add appends a rule.
func (s *Set) Add(rules ...*NGD) { s.Rules = append(s.Rules, rules...) }

// Len reports ‖Σ‖, the number of rules.
func (s *Set) Len() int { return len(s.Rules) }

// Diameter returns dΣ: the maximum pattern diameter across Σ (§6.1); the
// locality radius of incremental detection.
func (s *Set) Diameter() int {
	d := 0
	for _, r := range s.Rules {
		if r.diameter > d {
			d = r.diameter
		}
	}
	return d
}

// Size returns |Σ|: total pattern nodes+edges+literals, the size measure of
// the complexity analyses.
func (s *Set) Size() int {
	sz := 0
	for _, r := range s.Rules {
		sz += len(r.Pattern.Nodes) + len(r.Pattern.Edges) + len(r.X) + len(r.Y)
	}
	return sz
}

// Violation identifies a rule violation: the entities h(x̄) that violate φ.
type Violation struct {
	Rule  *NGD
	Match Match
}

// Keyed is a violation with its canonical key beside it: the record a
// violation store holds once per stored violation, so that every index
// over the store can point at it instead of copying it. The field Key is
// Violation.Key() computed once; it shadows the method.
type Keyed struct {
	Key string
	Violation
}

// Cmp orders records by key.
func (k *Keyed) Cmp(o *Keyed) int { return strings.Compare(k.Key, o.Key) }

// Key returns a canonical dedup key for the violation. Keys are computed on
// every reconcile/index/feed step of the serving path, so the encoding is
// hand-rolled: one stack buffer, one string allocation for typical sizes.
func (v Violation) Key() string {
	var a [96]byte
	b := append(a[:0], v.Rule.Name...)
	for _, id := range v.Match {
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

// String renders v as rule(x=id, y=id, …), pattern variables in order.
func (v Violation) String() string {
	var a [96]byte
	b := append(a[:0], v.Rule.Name...)
	b = append(b, '(')
	for i, id := range v.Match {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, v.Rule.Pattern.Nodes[i].Var...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	b = append(b, ')')
	return string(b)
}
