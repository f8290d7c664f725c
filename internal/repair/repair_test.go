package repair_test

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/pattern"
	"ngd/internal/repair"
	"ngd/internal/session"
	"ngd/internal/solver"
)

// mapStore adapts a plain violation map to inc.Store for direct Enumerate
// tests that bypass the session.
type mapStore map[string]core.Violation

func (m mapStore) Has(key string) bool { return m[key].Rule != nil }
func (m mapStore) Posting(n graph.NodeID) []*core.Keyed {
	var keys []string
	for k, v := range m {
		if slices.Contains(v.Match, n) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	p := make([]*core.Keyed, len(keys))
	for i, k := range keys {
		p[i] = &core.Keyed{Key: k, Violation: m[k]}
	}
	return p
}

func storeOf(vs ...core.Violation) mapStore {
	m := make(mapStore, len(vs))
	for _, v := range vs {
		m[v.Key()] = v
	}
	return m
}

func singleNodeRule(name, label string, x, y []core.Literal) *core.NGD {
	p := pattern.New()
	p.AddNode("x", label)
	return core.MustNew(name, p, x, y)
}

// TestAttrFixMinimalPerturbation: the cheapest clearing assignment wins.
// φ = Q[x:item](x.price ≥ 100 → x.discount = 10), item{price:150, discount:0}.
// Branch A (satisfy Y) costs |10−0| = 10; branch B (falsify X) costs
// |99−150| = 51. The ranked fix must be branch A's.
func TestAttrFixMinimalPerturbation(t *testing.T) {
	r := singleNodeRule("disc", "item",
		[]core.Literal{core.MustLiteral("x.price >= 100")},
		[]core.Literal{core.MustLiteral("x.discount = 10")})
	g := graph.New()
	n := g.AddNode("item")
	g.SetAttr(n, "price", graph.Int(150))
	g.SetAttr(n, "discount", graph.Int(0))

	s := session.New(g, core.NewSet(r), session.Options{})
	if s.Len() != 1 {
		t.Fatalf("seed store: %d violations, want 1", s.Len())
	}
	key := s.Violations()[0].Key()

	res, err := s.PreviewRepair(key, repair.Options{})
	if err != nil {
		t.Fatalf("PreviewRepair: %v", err)
	}
	top, ok := res.Top()
	if !ok {
		t.Fatalf("no fixes: %+v", res)
	}
	if top.Kind != repair.KindAttr || top.Node != n {
		t.Fatalf("top fix %+v, want attr fix on node %d", top, n)
	}
	if top.Perturb != 10 {
		t.Fatalf("perturb %d, want 10 (set discount 0→10)", top.Perturb)
	}
	if len(top.Sets) != 1 || top.Sets[0].Attr != "discount" || top.Sets[0].New != 10 {
		t.Fatalf("sets %+v, want discount→10", top.Sets)
	}
	if top.Sets[0].Old == nil || *top.Sets[0].Old != 0 {
		t.Fatalf("old %v, want 0", top.Sets[0].Old)
	}
	if len(top.Clears) != 1 || top.Clears[0] != key {
		t.Fatalf("clears %v, want [%s]", top.Clears, key)
	}
	if len(top.Introduces) != 0 {
		t.Fatalf("introduces %v, want none", top.Introduces)
	}
}

// TestAttrFixCreatesAbsentAttribute: a Y term over an attribute the node
// lacks is cleared by creating the attribute.
func TestAttrFixCreatesAbsentAttribute(t *testing.T) {
	r := singleNodeRule("tag", "item",
		nil, []core.Literal{core.MustLiteral("x.grade = 3")})
	g := graph.New()
	g.AddNode("item")

	s := session.New(g, core.NewSet(r), session.Options{})
	if s.Len() != 1 {
		t.Fatalf("seed store: %d violations, want 1", s.Len())
	}
	res, err := s.PreviewRepair(s.Violations()[0].Key(), repair.Options{})
	if err != nil {
		t.Fatalf("PreviewRepair: %v", err)
	}
	top, ok := res.Top()
	if !ok {
		t.Fatalf("no fixes: %+v", res)
	}
	if len(top.Sets) != 1 || top.Sets[0].Attr != "grade" || top.Sets[0].New != 3 || top.Sets[0].Old != nil {
		t.Fatalf("sets %+v, want create grade=3", top.Sets)
	}
	if top.Perturb != 3 {
		t.Fatalf("perturb %d, want 3 (absent counts from 0)", top.Perturb)
	}
}

// TestAttrFixPerturbationLeavesInt64: a fix whose Σ|x − o| leaves int64 is
// unknown to the solver, like an out-of-range witness, never a fix with a
// wrapped (negative) perturbation. Clearing val = MinInt64 under
// x.val ≥ 0, or val = MaxInt64 under x.val < 0, moves it by at least 2⁶³.
func TestAttrFixPerturbationLeavesInt64(t *testing.T) {
	for _, tc := range []struct {
		old int64
		lit string
	}{
		{math.MinInt64, "x.val >= 0"},
		{math.MaxInt64, "x.val < 0"},
	} {
		r := singleNodeRule("far", "item", nil, []core.Literal{core.MustLiteral(tc.lit)})
		g := graph.New()
		n := g.AddNode("item")
		g.SetAttr(n, "val", graph.Int(tc.old))
		v := core.Violation{Rule: r, Match: core.Match{n}}
		res := repair.Enumerate(g, core.NewSet(r), inc.Options{}, storeOf(v), v, repair.Options{})
		for _, f := range res.Fixes {
			t.Errorf("val=%d under %s: fix %s with perturbation %d", tc.old, tc.lit, f.ID, f.Perturb)
		}
		if !res.Unrepairable || !strings.Contains(res.Reason, "budget") {
			t.Errorf("val=%d under %s: unrepairable=%v (%q), want an unknown solve", tc.old, tc.lit, res.Unrepairable, res.Reason)
		}
	}
}

// TestAttrFixFoldsOtherNodes: solving for one node folds the other node's
// committed value into the constraint. Under |a.val − b.val| ≤ 5 with
// a.val = 100 and b.val = 40, freeing a must land on 45 (b's 40 folded in)
// and freeing b on 95; a fold with the wrong sign solves for values the
// preview then discards.
func TestAttrFixFoldsOtherNodes(t *testing.T) {
	p := pattern.New()
	a := p.AddNode("a", "item")
	b := p.AddNode("b", "item")
	p.AddEdge(a, b, "mirror")
	r := core.MustNew("near", p, nil,
		[]core.Literal{core.MustLiteral("abs(a.val - b.val) <= 5")})

	g := graph.New()
	u := g.AddNode("item")
	v := g.AddNode("item")
	g.SetAttr(u, "val", graph.Int(100))
	g.SetAttr(v, "val", graph.Int(40))
	g.AddEdge(u, v, "mirror")

	vio := core.Violation{Rule: r, Match: core.Match{u, v}}
	res := repair.Enumerate(g, core.NewSet(r), inc.Options{}, storeOf(vio), vio, repair.Options{})
	if res.Stats.Discarded != 0 {
		t.Errorf("discarded %d candidates, want 0", res.Stats.Discarded)
	}
	want := map[string][3]int64{ // fix ID → old, new, perturbation
		fmt.Sprintf("attr:%d", u): {100, 45, 55},
		fmt.Sprintf("attr:%d", v): {40, 95, 55},
	}
	if len(res.Fixes) != 3 {
		t.Fatalf("fixes %+v, want two attr fixes and one edge delete", res.Fixes)
	}
	for _, f := range res.Fixes {
		if f.Kind == repair.KindEdgeDelete {
			continue
		}
		w, ok := want[f.ID]
		if !ok || len(f.Sets) != 1 || f.Sets[0].Attr != "val" || f.Sets[0].Old == nil ||
			*f.Sets[0].Old != w[0] || f.Sets[0].New != w[1] || f.Perturb != w[2] {
			t.Errorf("fix %s: sets %+v perturb %d, want val %d→%d perturb %d", f.ID, f.Sets, f.Perturb, w[0], w[1], w[2])
		}
		delete(want, f.ID)
	}
	if len(want) != 0 {
		t.Errorf("missing attr fixes %v", want)
	}
}

// TestEdgeDeleteCandidate: a two-node match offers both attribute and
// edge-deletion fixes, and every fix clears the target.
func TestEdgeDeleteCandidate(t *testing.T) {
	p := pattern.New()
	x := p.AddNode("x", "acct")
	y := p.AddNode("y", "acct")
	p.AddEdge(x, y, "owes")
	r := core.MustNew("bal", p, nil,
		[]core.Literal{core.MustLiteral("x.bal <= y.bal")})

	g := graph.New()
	u := g.AddNode("acct")
	v := g.AddNode("acct")
	g.SetAttr(u, "bal", graph.Int(5))
	g.SetAttr(v, "bal", graph.Int(3))
	g.AddEdge(u, v, "owes")

	s := session.New(g, core.NewSet(r), session.Options{})
	if s.Len() != 1 {
		t.Fatalf("seed store: %d violations, want 1", s.Len())
	}
	key := s.Violations()[0].Key()
	res, err := s.PreviewRepair(key, repair.Options{})
	if err != nil {
		t.Fatalf("PreviewRepair: %v", err)
	}
	kinds := map[string]int{}
	for _, f := range res.Fixes {
		kinds[f.Kind]++
		found := false
		for _, c := range f.Clears {
			if c == key {
				found = true
			}
		}
		if !found {
			t.Fatalf("fix %s does not clear the target", f.ID)
		}
	}
	if kinds[repair.KindAttr] == 0 || kinds[repair.KindEdgeDelete] == 0 {
		t.Fatalf("fix kinds %v, want both attr and edge-delete", kinds)
	}
	var edge repair.Fix
	for _, f := range res.Fixes {
		if f.Kind == repair.KindEdgeDelete {
			edge = f
		}
	}
	if edge.Src != u || edge.Dst != v || edge.Label != "owes" {
		t.Fatalf("edge fix %+v, want delete %d-owes->%d", edge, u, v)
	}
	// attr fixes (perturb 2, same score) rank above the edge deletion
	if top, _ := res.Top(); top.Kind != repair.KindAttr {
		t.Fatalf("top fix kind %s, want attr before edge-delete on equal score", top.Kind)
	}
}

// TestCrossViolationClearance: a shared-node fix that clears two stored
// violations outranks one clearing only the target.
func TestCrossViolationClearance(t *testing.T) {
	r1 := singleNodeRule("r1", "item",
		nil, []core.Literal{core.MustLiteral("x.a <= 10")})
	r2 := singleNodeRule("r2", "item",
		nil, []core.Literal{core.MustLiteral("x.a <= 20")})
	g := graph.New()
	n := g.AddNode("item")
	g.SetAttr(n, "a", graph.Int(50))

	s := session.New(g, core.NewSet(r1, r2), session.Options{})
	if s.Len() != 2 {
		t.Fatalf("seed store: %d violations, want 2", s.Len())
	}
	key := s.Violations()[0].Key()
	res, err := s.PreviewRepair(key, repair.Options{})
	if err != nil {
		t.Fatalf("PreviewRepair: %v", err)
	}
	top, ok := res.Top()
	if !ok {
		t.Fatalf("no fixes: %+v", res)
	}
	// minimal fix for r1 alone is a=10, which also clears r2's violation
	if len(top.Clears) != 2 {
		t.Fatalf("clears %v, want both stored violations", top.Clears)
	}
	if top.Score != 2 {
		t.Fatalf("score %d, want 2", top.Score)
	}
}

// TestInfeasibleSystemIsUnrepairable: a consequent no assignment satisfies
// (x.a ≠ x.a) with no antecedent to falsify and no edges to delete yields
// ranked-empty with a reason, not a panic.
func TestInfeasibleSystemIsUnrepairable(t *testing.T) {
	r := singleNodeRule("never", "item",
		nil, []core.Literal{core.MustLiteral("x.a != x.a")})
	g := graph.New()
	n := g.AddNode("item")
	g.SetAttr(n, "a", graph.Int(1))

	v := core.Violation{Rule: r, Match: core.Match{n}}
	if !r.Violated(g, v.Match) {
		t.Fatal("setup: expected a violation")
	}
	res := repair.Enumerate(g, core.NewSet(r), inc.Options{}, storeOf(v), v, repair.Options{})
	if !res.Unrepairable || len(res.Fixes) != 0 {
		t.Fatalf("want unrepairable with no fixes, got %+v", res)
	}
	if res.Reason == "" {
		t.Fatal("want a reason for unrepairability")
	}
}

// TestNonLinearRuleIsUnrepairable: a rule with a non-linear literal (only
// constructible around core.New, which rejects them) surfaces as
// unrepairable with a non-linear reason instead of panicking the solver.
func TestNonLinearRuleIsUnrepairable(t *testing.T) {
	p := pattern.New()
	p.AddNode("x", "item")
	r := &core.NGD{
		Name:    "nl",
		Pattern: p,
		Y: []core.Literal{{
			L:  expr.Mul(expr.V("x", "a"), expr.V("x", "a")),
			Op: expr.Eq,
			R:  expr.C(1),
		}},
	}
	g := graph.New()
	n := g.AddNode("item")
	g.SetAttr(n, "a", graph.Int(2))

	v := core.Violation{Rule: r, Match: core.Match{n}}
	if !r.Violated(g, v.Match) {
		t.Fatal("setup: expected a violation")
	}
	res := repair.Enumerate(g, core.NewSet(r), inc.Options{}, storeOf(v), v, repair.Options{})
	if !res.Unrepairable || len(res.Fixes) != 0 {
		t.Fatalf("want unrepairable with no fixes, got %+v", res)
	}
	if !strings.Contains(res.Reason, "non-linear") {
		t.Fatalf("reason %q, want a non-linear explanation", res.Reason)
	}
}

// TestDeadlineExhaustion: a pre-expired Options.Solver.Done aborts the
// enumeration cleanly — no fixes, a budget reason, no panic.
func TestDeadlineExhaustion(t *testing.T) {
	r := singleNodeRule("disc", "item",
		[]core.Literal{core.MustLiteral("x.price >= 100")},
		[]core.Literal{core.MustLiteral("x.discount = 10")})
	g := graph.New()
	n := g.AddNode("item")
	g.SetAttr(n, "price", graph.Int(150))
	g.SetAttr(n, "discount", graph.Int(0))

	done := make(chan struct{})
	close(done)
	v := core.Violation{Rule: r, Match: core.Match{n}}
	res := repair.Enumerate(g, core.NewSet(r), inc.Options{}, storeOf(v), v,
		repair.Options{Solver: solver.Options{Done: done}})
	if !res.Unrepairable || len(res.Fixes) != 0 {
		t.Fatalf("want unrepairable under an expired deadline, got %+v", res)
	}
	if res.Reason == "" {
		t.Fatal("want a deadline reason")
	}
}

// TestPreviewLeavesSessionUntouched: PreviewRepair changes neither the
// snapshot epoch nor the stored violations nor the graph's attributes.
func TestPreviewLeavesSessionUntouched(t *testing.T) {
	r := singleNodeRule("disc", "item",
		[]core.Literal{core.MustLiteral("x.price >= 100")},
		[]core.Literal{core.MustLiteral("x.discount = 10")})
	g := graph.New()
	n := g.AddNode("item")
	g.SetAttr(n, "price", graph.Int(150))
	g.SetAttr(n, "discount", graph.Int(0))

	s := session.New(g, core.NewSet(r), session.Options{})
	before := s.Snapshot()
	key := s.Violations()[0].Key()
	if _, err := s.PreviewRepair(key, repair.Options{}); err != nil {
		t.Fatalf("PreviewRepair: %v", err)
	}
	after := s.Snapshot()
	if after.Epoch != before.Epoch {
		t.Fatalf("epoch moved %d → %d across a preview", before.Epoch, after.Epoch)
	}
	if after.Len() != before.Len() || !s.Has(key) {
		t.Fatalf("store changed across a preview: %d → %d", before.Len(), after.Len())
	}
	if got, _ := g.AttrByName(n, "discount").AsInt(); got != 0 {
		t.Fatalf("preview mutated the graph: discount = %d", got)
	}
}

// TestStaleKey: previewing a key the store does not hold errors with
// ErrNoViolation (the serving layer's 409).
func TestStaleKey(t *testing.T) {
	r := singleNodeRule("disc", "item",
		[]core.Literal{core.MustLiteral("x.price >= 100")},
		[]core.Literal{core.MustLiteral("x.discount = 10")})
	g := graph.New()
	s := session.New(g, core.NewSet(r), session.Options{})
	if _, err := s.PreviewRepair("disc:0", repair.Options{}); err == nil {
		t.Fatal("want an error for a stale key")
	} else if !strings.Contains(err.Error(), "not in store") {
		t.Fatalf("error %v, want ErrNoViolation", err)
	}
}
