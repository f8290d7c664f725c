package match_test

import (
	"math"
	"testing"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
	. "ngd/internal/match"
	"ngd/internal/pattern"
)

func TestAddLiteralShapes(t *testing.T) {
	p := pattern.New()
	p.AddNode("x", "T")
	p.AddNode("y", "U")
	syms := graph.NewSymbols()
	syms.Attr("a")
	syms.Attr("b")

	cases := []struct {
		name string
		l    *expr.Expr
		op   expr.Cmp
		r    *expr.Expr
		want bool
	}{
		{"term=const", expr.V("x", "a"), expr.Eq, expr.C(5), true},
		{"const<=term (flipped)", expr.C(3), expr.Le, expr.V("y", "b"), true},
		{"term=const-arith", expr.V("x", "a"), expr.Eq, expr.Add(expr.C(2), expr.C(3)), true},
		{"term=string", expr.V("x", "a"), expr.Eq, expr.S("v"), true},
		{"two terms", expr.V("x", "a"), expr.Lt, expr.V("y", "b"), false},
		{"arith over term", expr.Abs(expr.V("x", "a")), expr.Le, expr.C(9), false},
		{"unknown attr still compiles", expr.V("x", "zzz"), expr.Eq, expr.C(1), true},
		{"div by zero const", expr.V("x", "a"), expr.Eq, expr.Div(expr.C(1), expr.C(0)), false},
	}
	for _, tc := range cases {
		f := NewFilters(2)
		if got := f.AddLiteral(p, syms, tc.l, tc.op, tc.r) >= 0; got != tc.want {
			t.Errorf("%s: AddLiteral compiled = %v, want %v", tc.name, got, tc.want)
		}
	}

	// flipping: 3 <= y.b must become y.b >= 3, attached to node y
	f := NewFilters(2)
	if node := f.AddLiteral(p, syms, expr.C(3), expr.Le, expr.V("y", "b")); node != 1 {
		t.Fatalf("AddLiteral attached to node %d, want 1", node)
	}
	pr := f[1].Preds[0]
	if pr.Op != expr.Ge {
		t.Fatalf("flip: got op %v, want >=", pr.Op)
	}
	// unknown attribute compiles to the unsatisfiable Attr=-1 predicate
	f2 := NewFilters(2)
	f2.AddLiteral(p, syms, expr.V("x", "zzz"), expr.Eq, expr.C(1))
	if f2[0].Preds[0].Attr >= 0 {
		t.Fatal("unknown attribute should compile to Attr=-1")
	}
}

// TestIntBounds: a numeric constant compiles to its rendering (what plan
// keys print) and to the int64 interval of the integers that satisfy the
// predicate — for ≠, of those that equal the constant — clamped to int64.
func TestIntBounds(t *testing.T) {
	p := pattern.New()
	p.AddNode("x", "T")
	syms := graph.NewSymbols()
	syms.Attr("a")
	q := func(n, d int64) *expr.Expr { return expr.Div(expr.C(n), expr.C(d)) }
	two63 := expr.Add(expr.C(math.MaxInt64), expr.C(1))
	const lo, hi = math.MinInt64, math.MaxInt64
	cases := []struct {
		op     expr.Cmp
		c      *expr.Expr
		konst  string
		lo, hi int64
		empty  bool
	}{
		{expr.Eq, q(5, 1), "5", 5, 5, false},
		{expr.Eq, q(7, 2), "7/2", 0, 0, true}, // no integer equals 3.5
		{expr.Lt, q(7, 2), "7/2", lo, 3, false},
		{expr.Lt, q(6, 2), "3", lo, 2, false},
		{expr.Le, q(7, 2), "7/2", lo, 3, false},
		{expr.Le, q(6, 2), "3", lo, 3, false},
		{expr.Gt, q(7, 2), "7/2", 4, hi, false},
		{expr.Gt, q(6, 2), "3", 4, hi, false},
		{expr.Ge, q(7, 2), "7/2", 4, hi, false},
		{expr.Ge, q(6, 2), "3", 3, hi, false},
		{expr.Lt, q(-7, 2), "-7/2", lo, -4, false},
		{expr.Ge, q(-7, 2), "-7/2", -3, hi, false},
		{expr.Ne, q(5, 1), "5", 5, 5, false},
		{expr.Ne, q(7, 2), "7/2", 0, 0, true},
		// the int64 edges, and constants beyond them
		{expr.Lt, expr.C(lo), "-9223372036854775808", 0, 0, true},
		{expr.Gt, expr.C(hi), "9223372036854775807", 0, 0, true},
		{expr.Ge, q(hi, 2), "9223372036854775807/2", hi/2 + 1, hi, false},
		{expr.Eq, two63, "9223372036854775808", 0, 0, true},
		{expr.Lt, two63, "9223372036854775808", lo, hi, false},
		{expr.Ge, two63, "9223372036854775808", 0, 0, true},
		{expr.Gt, expr.Neg(two63), "-9223372036854775808", lo + 1, hi, false},
		{expr.Ge, expr.Sub(expr.Neg(two63), expr.C(1)), "-9223372036854775809", lo, hi, false},
	}
	for _, tc := range cases {
		f := NewFilters(1)
		if f.AddLiteral(p, syms, expr.V("x", "a"), tc.op, tc.c) != 0 {
			t.Fatalf("x.a %v %s: not compiled", tc.op, tc.c)
		}
		pr := f[0].Preds[0]
		if pr.IsStr || pr.Const != tc.konst {
			t.Errorf("x.a %v %s: constant %q (string %v), want %q", tc.op, tc.c, pr.Const, pr.IsStr, tc.konst)
		}
		if empty := pr.Lo > pr.Hi; empty != tc.empty || (!empty && (pr.Lo != tc.lo || pr.Hi != tc.hi)) {
			t.Errorf("x.a %v %s: got [%d,%d], want [%d,%d] empty=%v",
				tc.op, tc.c, pr.Lo, pr.Hi, tc.lo, tc.hi, tc.empty)
		}
	}
}

// TestPlanPrefersIndexedSeed: with bare label counts the planner would seed
// at the smaller label bucket; with an indexed equality predicate available,
// index cardinality must win the seed choice.
func TestPlanPrefersIndexedSeed(t *testing.T) {
	g := graph.New()
	tl := g.Symbols().Label("T")
	ul := g.Symbols().Label("U")
	val := g.Symbols().Attr("val")
	// 100 T nodes, one of which has val=1; 10 U nodes; T->U edges everywhere
	var ts, us []graph.NodeID
	for i := 0; i < 100; i++ {
		n := g.AddNodeL(tl)
		g.SetAttrA(n, val, graph.Int(0))
		ts = append(ts, n)
	}
	g.SetAttrA(ts[42], val, graph.Int(1))
	for i := 0; i < 10; i++ {
		us = append(us, g.AddNodeL(ul))
	}
	el := g.Symbols().Label("e")
	for i, tn := range ts {
		g.AddEdgeL(tn, us[i%len(us)], el)
	}

	p := pattern.New()
	x := p.AddNode("x", "T")
	y := p.AddNode("y", "U")
	p.AddEdge(x, y, "e")

	plain := planFor(g, p, nil)
	if plain.Steps[0].Node != y {
		t.Fatalf("unfiltered plan should seed at U (10 < 100), got node %d", plain.Steps[0].Node)
	}

	pruned := planFor(g, p, nil, core.Lit(expr.V("x", "val"), expr.Eq, expr.C(1)))
	if pruned.Steps[0].Node != x {
		t.Fatalf("pruned plan should seed at the indexed T node (cardinality 1), got node %d",
			pruned.Steps[0].Node)
	}
	if pruned.Steps[0].SeedPred < 0 {
		t.Fatal("seed step should carry the index predicate")
	}

	// the matcher must enumerate exactly the one indexed candidate
	m := NewMatcher(g, pruned, Hooks{})
	var matches [][]graph.NodeID
	m.Run(NewPartial(2), func(sol []graph.NodeID) bool {
		matches = append(matches, append([]graph.NodeID(nil), sol...))
		return true
	})
	if len(matches) != 1 || matches[0][x] != ts[42] {
		t.Fatalf("matches = %v, want exactly [x=%d]", matches, ts[42])
	}
	if m.Stat.Candidates > 3 {
		t.Fatalf("indexed seed scanned %d candidates, expected ≤ 3", m.Stat.Candidates)
	}
}

// TestMatcherFilterEquivalence: pruned and unpruned enumeration agree on a
// randomized-ish star graph, for equality, range and string predicates.
func TestMatcherFilterEquivalence(t *testing.T) {
	g := graph.New()
	tl := g.Symbols().Label("T")
	ul := g.Symbols().Label("U")
	val := g.Symbols().Attr("val")
	el := g.Symbols().Label("e")
	for i := 0; i < 60; i++ {
		n := g.AddNodeL(tl)
		switch i % 5 {
		case 0:
			g.SetAttrA(n, val, graph.Int(int64(i%7)))
		case 1:
			g.SetAttrA(n, val, graph.Str("s"))
		case 2:
			g.SetAttrA(n, val, graph.Float(float64(i%7)))
		case 3:
			g.SetAttrA(n, val, graph.Float(0.5))
			// case 4: no attribute
		}
		u := g.AddNodeL(ul)
		g.AddEdgeL(n, u, el)
	}

	p := pattern.New()
	x := p.AddNode("x", "T")
	y := p.AddNode("y", "U")
	p.AddEdge(x, y, "e")

	lits := []struct {
		name string
		op   expr.Cmp
		c    *expr.Expr
	}{
		{"eq", expr.Eq, expr.C(3)},
		{"le", expr.Le, expr.C(4)},
		{"gt", expr.Gt, expr.C(2)},
		{"ne", expr.Ne, expr.C(3)},
		{"str", expr.Eq, expr.S("s")},
		{"half", expr.Lt, expr.Div(expr.C(7), expr.C(2))},
	}
	for _, lc := range lits {
		filtered := planFor(g, p, nil, core.Lit(expr.V("x", "val"), lc.op, lc.c))
		if filtered.Filters == nil {
			t.Fatalf("%s: literal did not compile", lc.name)
		}
		pred := &filtered.Filters[x].Preds[0]
		enumerate := func(plan *Plan) map[graph.NodeID]bool {
			got := make(map[graph.NodeID]bool)
			m := NewMatcher(g, plan, Hooks{})
			m.Run(NewPartial(2), func(sol []graph.NodeID) bool {
				got[sol[x]] = true
				return true
			})
			return got
		}
		pruned := enumerate(filtered)
		// unpruned baseline: no filters, then apply the predicate by hand
		want := make(map[graph.NodeID]bool)
		m := NewMatcher(g, planFor(g, p, nil), Hooks{})
		m.Run(NewPartial(2), func(sol []graph.NodeID) bool {
			if pred.Holds(g, sol[x]) {
				want[sol[x]] = true
			}
			return true
		})
		if len(pruned) != len(want) {
			t.Fatalf("%s: pruned %d nodes, want %d", lc.name, len(pruned), len(want))
		}
		for v := range pruned {
			if !want[v] {
				t.Fatalf("%s: pruned result has unexpected node %d", lc.name, v)
			}
		}
	}
}
