package core

import (
	"strings"
	"testing"

	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/pattern"
)

func simplePattern() *pattern.Pattern {
	p := pattern.New()
	x := p.AddNode("x", "a")
	y := p.AddNode("y", "b")
	p.AddEdge(x, y, "e")
	return p
}

func TestNewValidation(t *testing.T) {
	// valid rule
	if _, err := New("ok", simplePattern(),
		[]Literal{MustLiteral("x.v = 1")},
		[]Literal{MustLiteral("y.v = 2")}); err != nil {
		t.Fatalf("valid rule rejected: %v", err)
	}
	// unknown variable
	if _, err := New("bad", simplePattern(), nil,
		[]Literal{MustLiteral("z.v = 2")}); err == nil {
		t.Error("unknown variable accepted")
	}
	// non-linear literal (Theorem 3 guard at construction)
	nl := Lit(expr.Mul(expr.V("x", "v"), expr.V("y", "v")), expr.Eq, expr.C(4))
	if _, err := New("nl", simplePattern(), nil, []Literal{nl}); err == nil {
		t.Error("non-linear literal accepted")
	}
	// ':' separates a violation key's fields: a name holding one would let
	// rule a over [1 2] and rule a:1 over [2] share the key a:1:2
	if _, err := New("a:1", simplePattern(), nil, nil); err == nil || !strings.Contains(err.Error(), "':'") {
		t.Errorf("rule name with ':' accepted: %v", err)
	}
	// invalid pattern
	bad := &pattern.Pattern{}
	if _, err := New("empty", bad, nil, nil); err == nil {
		t.Error("empty pattern accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid rule")
		}
	}()
	MustNew("bad", simplePattern(), nil, []Literal{MustLiteral("nope.v = 1")})
}

func TestLiteralSemantics(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(a, b, "e")
	g.SetAttr(a, "v", graph.Int(5))
	g.SetAttr(b, "v", graph.Int(7))

	rule := MustNew("r", simplePattern(), nil, []Literal{MustLiteral("x.v < y.v")})
	m := Match{a, b}
	bind := rule.Binding(g, m)
	if !rule.Y[0].Satisfied(bind) {
		t.Error("5 < 7 should satisfy")
	}
	if rule.Violated(g, m) {
		t.Error("satisfied rule reported violated")
	}

	// flip the values: violation
	g.SetAttr(b, "v", graph.Int(3))
	if !rule.Violated(g, m) {
		t.Error("5 < 3 should violate")
	}
	if rule.Holds(g, m) {
		t.Error("Holds disagrees with Violated")
	}
}

func TestLiteralVars(t *testing.T) {
	l := MustLiteral("x.a + y.b - x.c <= 2 * z.d")
	vars := l.Vars()
	if len(vars) != 3 {
		t.Fatalf("Vars() = %v, want x,y,z", vars)
	}
	want := map[string]bool{"x": true, "y": true, "z": true}
	for _, v := range vars {
		if !want[v] {
			t.Errorf("unexpected var %q", v)
		}
	}
}

func TestSetDiameterAndSize(t *testing.T) {
	r1 := MustNew("r1", simplePattern(), nil, []Literal{MustLiteral("x.v = 1")})
	p2 := pattern.New()
	a := p2.AddNode("a", "_")
	b := p2.AddNode("b", "_")
	c := p2.AddNode("c", "_")
	d := p2.AddNode("d", "_")
	p2.AddEdge(a, b, "e")
	p2.AddEdge(b, c, "e")
	p2.AddEdge(c, d, "e")
	r2 := MustNew("r2", p2, nil, []Literal{MustLiteral("a.v = 1")})

	set := NewSet(r1, r2)
	if set.Len() != 2 {
		t.Errorf("Len = %d", set.Len())
	}
	if set.Diameter() != 3 {
		t.Errorf("dΣ = %d, want 3", set.Diameter())
	}
	if set.Size() == 0 {
		t.Error("Size should be positive")
	}
	set.Add(r1)
	if set.Len() != 3 {
		t.Error("Add failed")
	}
}

func TestViolationKeyAndString(t *testing.T) {
	r := MustNew("myrule", simplePattern(), nil, []Literal{MustLiteral("x.v = 1")})
	v1 := Violation{Rule: r, Match: Match{1, 2}}
	v2 := Violation{Rule: r, Match: Match{1, 2}}
	v3 := Violation{Rule: r, Match: Match{2, 1}}
	if v1.Key() != v2.Key() {
		t.Error("equal violations have different keys")
	}
	if v1.Key() == v3.Key() {
		t.Error("different matches share a key")
	}
	if !strings.Contains(v1.String(), "myrule") || !strings.Contains(v1.String(), "x=1") {
		t.Errorf("String() = %q", v1.String())
	}
}

func TestRuleString(t *testing.T) {
	r := MustNew("r", simplePattern(),
		[]Literal{MustLiteral("x.v = 1")},
		[]Literal{MustLiteral("y.v >= 2"), MustLiteral("y.w <= 3")})
	s := r.String()
	for _, frag := range []string{"r:", "x.v = 1", "->", "y.v >= 2", "y.w <= 3"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q: %s", frag, s)
		}
	}
}

func TestBindingMissing(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	rule := MustNew("r", simplePattern(), nil, []Literal{MustLiteral("x.v = 1")})
	// match shorter than pattern: binding must return not-found, not panic
	bind := rule.Binding(g, Match{a})
	if _, ok := bind("y", "v"); ok {
		t.Error("out-of-range variable resolved")
	}
	if _, ok := bind("ghost", "v"); ok {
		t.Error("unknown variable resolved")
	}
	if _, ok := bind("x", "unseen-attr"); ok {
		t.Error("unknown attribute resolved")
	}
}

func TestSatisfiesAll(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.SetAttr(a, "v", graph.Int(1))
	g.SetAttr(b, "v", graph.Int(2))
	rule := MustNew("r", simplePattern(), nil, []Literal{MustLiteral("x.v = 1")})
	bind := rule.Binding(g, Match{a, b})
	if !SatisfiesAll(nil, bind) {
		t.Error("empty literal set should be satisfied")
	}
	if !SatisfiesAll([]Literal{MustLiteral("x.v = 1"), MustLiteral("y.v = 2")}, bind) {
		t.Error("true conjunction rejected")
	}
	if SatisfiesAll([]Literal{MustLiteral("x.v = 1"), MustLiteral("y.v = 9")}, bind) {
		t.Error("false conjunction accepted")
	}
}
