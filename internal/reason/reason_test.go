package reason

import (
	"errors"
	"testing"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/paperdata"
	"ngd/internal/pattern"
)

func singleNodeRule(name, label string, x, y []core.Literal) *core.NGD {
	p := pattern.New()
	p.AddNode("x", label)
	return core.MustNew(name, p, x, y)
}

// TestPaperExample5 pins the worked satisfiability examples of §4.
func TestPaperExample5(t *testing.T) {
	// φ5 = Q[x:_](∅ → x.A = 7 ∧ x.B = 7)
	phi5 := singleNodeRule("phi5", "_", nil, []core.Literal{
		core.MustLiteral("x.A = 7"), core.MustLiteral("x.B = 7"),
	})
	// φ6 = Q[x:_](∅ → x.A + x.B = 11)
	phi6 := singleNodeRule("phi6", "_", nil, []core.Literal{
		core.MustLiteral("x.A + x.B = 11"),
	})

	// separately each is satisfiable
	for _, r := range []*core.NGD{phi5, phi6} {
		v, err := Satisfiable(core.NewSet(r), Options{})
		if err != nil || v != Yes {
			t.Fatalf("%s alone: %v %v, want yes", r.Name, v, err)
		}
	}
	// together: unsatisfiable (7+7 ≠ 11)
	v, err := Satisfiable(core.NewSet(phi5, phi6), Options{})
	if err != nil || v != No {
		t.Fatalf("{φ5, φ6}: %v %v, want no", v, err)
	}

	// replace φ6's pattern with label 'a': satisfiable (a graph with no
	// 'a'-labeled node models Σ0) but not strongly satisfiable
	phi6a := singleNodeRule("phi6a", "a", nil, []core.Literal{
		core.MustLiteral("x.A + x.B = 11"),
	})
	v, err = Satisfiable(core.NewSet(phi5, phi6a), Options{})
	if err != nil || v != Yes {
		t.Fatalf("{φ5, φ6'}: %v %v, want yes", v, err)
	}
	v, err = StronglySatisfiable(core.NewSet(phi5, phi6a), Options{})
	if err != nil || v != No {
		t.Fatalf("strong {φ5, φ6'}: %v %v, want no", v, err)
	}

	// φ7 = (x.A ≤ 3 → x.B > 6), φ8 = (x.A > 3 → x.B > 6),
	// φ9 = (∅ → x.B < 6 ∧ x.A ≠ 0): jointly unsatisfiable
	phi7 := singleNodeRule("phi7", "_",
		[]core.Literal{core.MustLiteral("x.A <= 3")},
		[]core.Literal{core.MustLiteral("x.B > 6")})
	phi8 := singleNodeRule("phi8", "_",
		[]core.Literal{core.MustLiteral("x.A > 3")},
		[]core.Literal{core.MustLiteral("x.B > 6")})
	phi9 := singleNodeRule("phi9", "_", nil,
		[]core.Literal{core.MustLiteral("x.B < 6"), core.MustLiteral("x.A != 0")})
	v, err = Satisfiable(core.NewSet(phi7, phi8, phi9), Options{})
	if err != nil || v != No {
		t.Fatalf("{φ7, φ8, φ9}: %v %v, want no", v, err)
	}
	// without φ9 (so A may be absent): satisfiable
	v, err = Satisfiable(core.NewSet(phi7, phi8), Options{})
	if err != nil || v != Yes {
		t.Fatalf("{φ7, φ8}: %v %v, want yes", v, err)
	}
}

func TestPaperRulesSatisfiable(t *testing.T) {
	v, err := StronglySatisfiable(paperdata.AllRules(), Options{})
	if err != nil || v != Yes {
		t.Fatalf("paper rules φ1–φ4 should be strongly satisfiable: %v %v", v, err)
	}
}

func TestImplicationBasics(t *testing.T) {
	a7 := singleNodeRule("a7", "_", nil, []core.Literal{core.MustLiteral("x.A = 7")})

	// Σ = {∅ → A=7} implies ∅ → A+A = 14
	dbl := singleNodeRule("dbl", "_", nil, []core.Literal{core.MustLiteral("x.A + x.A = 14")})
	v, err := Implies(core.NewSet(a7), dbl, Options{})
	if err != nil || v != Yes {
		t.Fatalf("A=7 ⊨ A+A=14: %v %v", v, err)
	}

	// but not ∅ → A = 8
	a8 := singleNodeRule("a8", "_", nil, []core.Literal{core.MustLiteral("x.A = 8")})
	v, err = Implies(core.NewSet(a7), a8, Options{})
	if err != nil || v != No {
		t.Fatalf("A=7 ⊭ A=8: %v %v", v, err)
	}

	// ranges: A ≥ 5 implies A ≥ 3, not A ≥ 6
	ge5 := singleNodeRule("ge5", "_", nil, []core.Literal{core.MustLiteral("x.A >= 5")})
	ge3 := singleNodeRule("ge3", "_", nil, []core.Literal{core.MustLiteral("x.A >= 3")})
	ge6 := singleNodeRule("ge6", "_", nil, []core.Literal{core.MustLiteral("x.A >= 6")})
	if v, _ := Implies(core.NewSet(ge5), ge3, Options{}); v != Yes {
		t.Errorf("A≥5 ⊨ A≥3 failed: %v", v)
	}
	if v, _ := Implies(core.NewSet(ge5), ge6, Options{}); v != No {
		t.Errorf("A≥5 ⊭ A≥6 failed: %v", v)
	}
}

func TestImplicationWithPrecondition(t *testing.T) {
	// Σ forces A=1 on every 'a' node; then (B=1 → A=1) is implied: no model
	// of Σ can violate it.
	sigma := singleNodeRule("forceA", "a", nil, []core.Literal{core.MustLiteral("x.A = 1")})
	phi := singleNodeRule("condA", "a",
		[]core.Literal{core.MustLiteral("x.B = 1")},
		[]core.Literal{core.MustLiteral("x.A = 1")})
	v, err := Implies(core.NewSet(sigma), phi, Options{})
	if err != nil || v != Yes {
		t.Fatalf("implication with precondition: %v %v", v, err)
	}

	// a rule on label 'b' says nothing about 'a' nodes: not implied
	sigmaB := singleNodeRule("forceB", "b", nil, []core.Literal{core.MustLiteral("x.A = 1")})
	v, err = Implies(core.NewSet(sigmaB), phi, Options{})
	if err != nil || v != No {
		t.Fatalf("cross-label implication should fail: %v %v", v, err)
	}
}

func TestImplicationTransitivity(t *testing.T) {
	// x -e-> y with A drift ≤ 2 per hop implies drift ≤ 4 over two hops
	mk := func(name string, hops int, bound int64) *core.NGD {
		p := pattern.New()
		prev := p.AddNode("x0", "n")
		for i := 1; i <= hops; i++ {
			cur := p.AddNode(nodeName(i), "n")
			p.AddEdge(prev, cur, "e")
			prev = cur
		}
		lit := core.Lit(
			expr.Abs(expr.Sub(expr.V("x0", "A"), expr.V(nodeName(hops), "A"))),
			expr.Le, expr.C(bound))
		return core.MustNew(name, p, nil, []core.Literal{lit})
	}
	oneHop := mk("hop1", 1, 2)
	twoHop := mk("hop2", 2, 4)
	tooTight := mk("hop2tight", 2, 3)

	if v, err := Implies(core.NewSet(oneHop), twoHop, Options{}); err != nil || v != Yes {
		t.Fatalf("1-hop drift ⊨ 2-hop double bound: %v %v", v, err)
	}
	if v, err := Implies(core.NewSet(oneHop), tooTight, Options{}); err != nil || v != No {
		t.Fatalf("1-hop drift ⊭ tighter 2-hop bound: %v %v", v, err)
	}
}

func nodeName(i int) string {
	return "x" + string(rune('0'+i))
}

func TestStringLiterals(t *testing.T) {
	// ∅ → x.cat = "living" conflicts with ∅ → x.cat ≠ "living"
	isLiving := singleNodeRule("l1", "_", nil, []core.Literal{core.MustLiteral(`x.cat = "living"`)})
	notLiving := singleNodeRule("l2", "_", nil, []core.Literal{core.MustLiteral(`x.cat != "living"`)})
	v, err := Satisfiable(core.NewSet(isLiving, notLiving), Options{})
	if err != nil || v != No {
		t.Fatalf("contradictory string rules: %v %v, want no", v, err)
	}
	// different constants are fine together only if equality is not forced
	isDead := singleNodeRule("l3", "_", nil, []core.Literal{core.MustLiteral(`x.cat = "dead"`)})
	v, err = Satisfiable(core.NewSet(isLiving, isDead), Options{})
	if err != nil || v != No {
		t.Fatalf("cat = living ∧ cat = dead: %v %v, want no", v, err)
	}
	v, err = Satisfiable(core.NewSet(notLiving, isDead), Options{})
	if err != nil || v != Yes {
		t.Fatalf("cat ≠ living ∧ cat = dead: %v %v, want yes", v, err)
	}
}

func TestNonLinearRejected(t *testing.T) {
	// Theorem 3: degree-2 expressions make the analyses undecidable; the
	// API must refuse them. Build the rule bypassing core.New's validation.
	p := pattern.New()
	p.AddNode("x", "_")
	bad := &core.NGD{Name: "square", Pattern: p, Y: []core.Literal{
		core.Lit(expr.Mul(expr.V("x", "A"), expr.V("x", "A")), expr.Eq, expr.C(4)),
	}}
	if _, err := Satisfiable(core.NewSet(bad), Options{}); !errors.Is(err, ErrNonLinear) {
		t.Fatalf("non-linear rule accepted: %v", err)
	}
	if _, err := Implies(core.NewSet(), bad, Options{}); !errors.Is(err, ErrNonLinear) {
		t.Fatalf("non-linear implication accepted: %v", err)
	}
}

func TestSelfImplication(t *testing.T) {
	// every rule implies itself
	r := singleNodeRule("self", "a",
		[]core.Literal{core.MustLiteral("x.A > 0")},
		[]core.Literal{core.MustLiteral("x.B <= 10")})
	v, err := Implies(core.NewSet(r), r, Options{})
	if err != nil || v != Yes {
		t.Fatalf("self implication: %v %v", v, err)
	}
	// and the empty Σ does not imply it
	v, err = Implies(core.NewSet(), r, Options{})
	if err != nil || v != No {
		t.Fatalf("∅ ⊨ r should fail: %v %v", v, err)
	}
}

func TestEmptySetSatisfiable(t *testing.T) {
	// no rules: vacuously no pattern to match — the paper's condition (b)
	// requires a matching pattern, so the empty set is unsatisfiable by
	// convention of the existential scan (no candidate rule)
	v, err := Satisfiable(core.NewSet(), Options{})
	if err != nil || v != No {
		t.Fatalf("empty set: %v %v", v, err)
	}
	// strong satisfiability of the empty set holds vacuously
	v, err = StronglySatisfiable(core.NewSet(), Options{})
	if err != nil || v != Yes {
		t.Fatalf("strong empty set: %v %v", v, err)
	}
}

func TestAbsInReasoning(t *testing.T) {
	// |A - B| ≤ 1 ∧ A - B = 5 is unsatisfiable; with A - B = 1 satisfiable
	absRule := singleNodeRule("abs", "_", nil, []core.Literal{
		core.MustLiteral("abs(x.A - x.B) <= 1"),
	})
	gap5 := singleNodeRule("gap5", "_", nil, []core.Literal{core.MustLiteral("x.A - x.B = 5")})
	gap1 := singleNodeRule("gap1", "_", nil, []core.Literal{core.MustLiteral("x.A - x.B = 1")})
	if v, err := Satisfiable(core.NewSet(absRule, gap5), Options{}); err != nil || v != No {
		t.Fatalf("abs ∧ gap5: %v %v, want no", v, err)
	}
	if v, err := Satisfiable(core.NewSet(absRule, gap1), Options{}); err != nil || v != Yes {
		t.Fatalf("abs ∧ gap1: %v %v, want yes", v, err)
	}
}

// TestGroundAtoms: a consequent whose terms cancel leaves an atom with no
// variable, decided when it is asserted, by the sign of its constant.
func TestGroundAtoms(t *testing.T) {
	for _, tc := range []struct {
		y    string
		want Verdict
	}{
		{"x.a >= x.a + 1", No},
		{"x.a + 1 > x.a", Yes},
		{"2 * x.a < x.a + x.a", No},
		{"x.a - x.a = 0", Yes},
	} {
		r := singleNodeRule("ground", "_", nil, []core.Literal{core.MustLiteral(tc.y)})
		if v, err := Satisfiable(core.NewSet(r), Options{}); err != nil || v != tc.want {
			t.Errorf("%s: %v %v, want %v", tc.y, v, err, tc.want)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	// a closed Done channel degrades every analysis to Unknown — never to a
	// wrong Yes/No — and an open one leaves the answers untouched.
	phi5 := singleNodeRule("phi5", "_", nil, []core.Literal{
		core.MustLiteral("x.A = 7"), core.MustLiteral("x.B = 7"),
	})
	phi6 := singleNodeRule("phi6", "_", nil, []core.Literal{
		core.MustLiteral("x.A + x.B = 11"),
	})
	set := core.NewSet(phi5, phi6)

	closed := make(chan struct{})
	close(closed)
	dead := Options{Done: closed}
	if v, err := Satisfiable(set, dead); err != nil || v != Unknown {
		t.Fatalf("cancelled Satisfiable: %v %v, want unknown", v, err)
	}
	if v, err := StronglySatisfiable(set, dead); err != nil || v != Unknown {
		t.Fatalf("cancelled StronglySatisfiable: %v %v, want unknown", v, err)
	}
	if v, err := Implies(set, phi5, dead); err != nil || v != Unknown {
		t.Fatalf("cancelled Implies: %v %v, want unknown", v, err)
	}
	if v, err := PatternConsistent(set, phi5, dead); err != nil || v != Unknown {
		t.Fatalf("cancelled PatternConsistent: %v %v, want unknown", v, err)
	}

	// an open channel does not perturb the verdicts
	live := Options{Done: make(chan struct{})}
	if v, err := Satisfiable(set, live); err != nil || v != No {
		t.Fatalf("live Satisfiable: %v %v, want no", v, err)
	}
	if v, err := Implies(core.NewSet(phi5), phi5, live); err != nil || v != Yes {
		t.Fatalf("live self-implication: %v %v, want yes", v, err)
	}
}

func TestPatternConsistent(t *testing.T) {
	// PatternConsistent(Σ, anchor) probes whether anchor's canonical
	// instance admits an assignment satisfying all of Σ — the building
	// block of unsat-core shrinking.
	phi5 := singleNodeRule("phi5", "_", nil, []core.Literal{
		core.MustLiteral("x.A = 7"), core.MustLiteral("x.B = 7"),
	})
	phi6 := singleNodeRule("phi6", "_", nil, []core.Literal{
		core.MustLiteral("x.A + x.B = 11"),
	})
	if v, err := PatternConsistent(core.NewSet(phi5, phi6), phi5, Options{}); err != nil || v != No {
		t.Fatalf("anchor φ5 under {φ5,φ6}: %v %v, want no", v, err)
	}
	// dropping φ6 from Σ while keeping the anchor: consistent again
	if v, err := PatternConsistent(core.NewSet(phi5), phi5, Options{}); err != nil || v != Yes {
		t.Fatalf("anchor φ5 under {φ5}: %v %v, want yes", v, err)
	}
}
