package plan_test

import (
	"slices"
	"testing"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/pattern"
	"ngd/internal/plan"
	"ngd/internal/ref"
)

// skewedGraph builds a graph with a deliberately lopsided label
// distribution: many `big` nodes, few `tiny` nodes, every tiny node linked
// from every big node — so a frequency-aware planner must seed at `tiny`.
func skewedGraph() (*graph.Graph, []graph.NodeID, []graph.NodeID) {
	g := graph.New()
	big := g.Symbols().Label("big")
	tiny := g.Symbols().Label("tiny")
	rel := g.Symbols().Label("rel")
	var bigs, tinys []graph.NodeID
	for i := 0; i < 60; i++ {
		bigs = append(bigs, g.AddNodeL(big))
	}
	for i := 0; i < 3; i++ {
		tinys = append(tinys, g.AddNodeL(tiny))
	}
	for _, b := range bigs {
		for _, t := range tinys {
			g.AddEdgeL(b, t, rel)
		}
	}
	return g, bigs, tinys
}

func pairRule(name string) *core.NGD {
	q := pattern.New()
	x := q.AddNode("x", "big")
	y := q.AddNode("y", "tiny")
	q.AddEdge(x, y, "rel")
	return core.MustNew(name, q, nil, []core.Literal{
		core.Lit(expr.V("x", "v"), expr.Eq, expr.C(1)),
	})
}

func TestCostPlanSeedsAtSelectiveNode(t *testing.T) {
	g, _, _ := skewedGraph()
	r := pairRule("pair")
	prog := plan.New(g, core.NewSet(r), plan.Options{})
	_, pl := prog.PlanFor(g, r, nil)
	if len(pl.Steps) != 2 {
		t.Fatalf("plan has %d steps, want 2", len(pl.Steps))
	}
	if pl.Steps[0].Node != 1 {
		t.Fatalf("cost plan seeds at node %d (label big ×60); want 1 (tiny ×3)", pl.Steps[0].Node)
	}
	if pl.Steps[1].AnchorEdge != 0 {
		t.Fatal("second step must anchor on the pattern edge")
	}
}

func TestPlanCacheHitsMissesInvalidation(t *testing.T) {
	g, bigs, tinys := skewedGraph()
	r := pairRule("pair")
	prog := plan.New(g, core.NewSet(r), plan.Options{ChurnThreshold: 8})

	_, p1 := prog.PlanFor(g, r, nil)
	_, p2 := prog.PlanFor(g, r, nil)
	if p1 != p2 {
		t.Fatal("second PlanFor did not serve the cached plan")
	}
	c := prog.Counters()
	if c.Misses != 1 || c.Hits != 1 || c.Invalidations != 0 {
		t.Fatalf("counters after warm lookup = %+v, want 1 miss / 1 hit", c)
	}

	// a distinct bound signature is a distinct key
	prog.PlanFor(g, r, []int{0})
	if c := prog.Counters(); c.Misses != 2 {
		t.Fatalf("a new bound-slot set should miss once; counters %+v", c)
	}

	// churn past the threshold invalidates
	rel := g.Symbols().Label("rel")
	for i := 0; i < 20; i++ {
		g.AddEdgeL(tinys[0], bigs[i], rel)
	}
	_, p3 := prog.PlanFor(g, r, nil)
	if p3 == p1 {
		t.Fatal("stale plan survived churn past the threshold")
	}
	if c := prog.Counters(); c.Invalidations != 1 {
		t.Fatalf("counters after churn = %+v, want 1 invalidation", c)
	}
}

func TestIdenticalRulesShareGroupAndPattern(t *testing.T) {
	p := gen.YAGO2
	set := core.NewSet(
		gen.FollowerRule(p, 1), gen.FollowerRule(p, 2), gen.FollowerRule(p, 3),
		gen.SumRule(0, 10), gen.SumRule(0, 11), gen.SumRule(1, 12),
	)
	ds := gen.Generate(p, 80, 3)
	prog := plan.New(ds.G, set, plan.Options{})
	c := prog.Counters()
	if c.Rules != 6 {
		t.Fatalf("rules = %d, want 6", c.Rules)
	}
	// follower×3 collapse to one group, sum-T0×2 to one, sum-T1 its own
	if c.Groups != 3 {
		t.Fatalf("groups = %d, want 3 (identical patterns+filters dedupe)", c.Groups)
	}
	a := prog.CompiledFor(set.Rules[0])
	b := prog.CompiledFor(set.Rules[1])
	if a.CP != b.CP {
		t.Fatal("identical patterns must share one compiled instance")
	}
	_, pa := prog.PlanFor(ds.G, set.Rules[0], nil)
	_, pb := prog.PlanFor(ds.G, set.Rules[1], nil)
	if pa != pb {
		t.Fatal("rules in one group must share cached plans")
	}
}

// TestCloneClasses pins what makes two rules clones: the same (pattern,
// filters) group and the same X and Y up to variable names and literal
// order — and nothing looser.
func TestCloneClasses(t *testing.T) {
	g := graph.New()
	for _, l := range []string{"person", "city", "lives", "born"} {
		g.Symbols().Label(l)
	}
	rule := func(name, x, y, edge string, X, Y []string) *core.NGD {
		q := pattern.New()
		q.AddEdge(q.AddNode(x, "person"), q.AddNode(y, "city"), edge)
		lits := func(srcs []string) []core.Literal {
			out := make([]core.Literal, len(srcs))
			for i, s := range srcs {
				out[i] = core.MustLiteral(s)
			}
			return out
		}
		return core.MustNew(name, q, lits(X), lits(Y))
	}
	X := []string{"x.age >= 18", "x.a = y.a"}
	Y := []string{"x.b <= y.b", "y.c = 1"}
	base := rule("base", "x", "y", "lives", X, Y)
	clone := rule("clone", "p", "q", "lives", []string{"p.a = q.a", "p.age >= 18"}, []string{"q.c = 1", "p.b <= q.b"})
	set := core.NewSet(base,
		rule("near-constant", "x", "y", "lives", X, []string{"x.b <= y.b", "y.c = 2"}),
		clone,
		rule("other-filter", "x", "y", "lives", []string{"x.height >= 18", "x.a = y.a"}, Y),
		rule("other-edge", "x", "y", "born", X, Y),
		rule("literal-twice", "x", "y", "lives", X, append([]string{"y.c = 1"}, Y...)),
	)
	prog := plan.New(g, set, plan.Options{})
	classes, of := prog.Classes(set)
	if len(classes) != 5 || !slices.Equal(of, []int{0, 1, 0, 2, 3, 4}) {
		t.Fatalf("classes of %v = %v, want base and clone together, the rest alone", names(set.Rules), of)
	}
	if got := names(classes[0].Rules); !slices.Equal(got, []string{"base", "clone"}) || classes[0].C.Rule != base {
		t.Fatalf("class 0 = %v led by %s, want [base clone] led by base", got, classes[0].C.Rule.Name)
	}
	if c := prog.Counters(); c.Classes != 5 || c.Rules != 6 {
		t.Fatalf("counters = %+v, want 5 classes over 6 rules", c)
	}
	if again, _ := prog.Classes(set); &again[0] != &classes[0] {
		t.Fatal("Classes of an unchanged set must be memoized")
	}

	// a class holds the members of the set passed, led by the first of them
	sub := core.NewSet(set.Rules[1], clone)
	if cs, of := prog.Classes(sub); len(cs) != 2 || cs[1].C.Rule != clone || len(cs[1].Rules) != 1 || !slices.Equal(of, []int{0, 1}) {
		t.Fatalf("classes of a subset = %v / %v, want two singletons", cs, of)
	}

	// a rule added to the set after New is absorbed into its class
	late := rule("late", "u", "v", "lives", []string{"u.age >= 18", "u.a = v.a"}, []string{"u.b <= v.b", "v.c = 1"})
	set.Add(late)
	classes, of = prog.Classes(set)
	if got := names(classes[0].Rules); !slices.Equal(got, []string{"base", "clone", "late"}) || of[6] != 0 {
		t.Fatalf("class 0 after a late rule = %v (of %v)", got, of)
	}
	if c := prog.Counters(); c.Classes != 5 || c.Rules != 7 {
		t.Fatalf("counters after a late clone = %+v, want 5 classes over 7 rules", c)
	}
}

func names(rules []*core.NGD) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Name
	}
	return out
}

func TestShareForestMergesPrefixes(t *testing.T) {
	p := gen.YAGO2
	// three identical-pattern rules plus two sum rules: the forest must be
	// narrower than one path per rule
	set := core.NewSet(
		gen.FollowerRule(p, 1), gen.FollowerRule(p, 2), gen.FollowerRule(p, 3),
		gen.SumRule(0, 10), gen.SumRule(0, 11),
	)
	ds := gen.Generate(p, 80, 3)
	prog := plan.New(ds.G, set, plan.Options{})
	sh := prog.ShareFor(ds.G, set)
	if len(sh.Rules) != 5 {
		t.Fatalf("forest holds %d rules, want 5", len(sh.Rules))
	}
	if got := len(sh.Root.Children); got >= 5 {
		t.Fatalf("forest has %d root branches for 5 rules — no prefix merged", got)
	}
	if sh.SharedRules < 5 {
		t.Fatalf("SharedRules = %d, want all 5 (both families overlap)", sh.SharedRules)
	}
	// memoized while plans are stable, rebuilt when the graph churns enough
	if sh2 := prog.ShareFor(ds.G, set); sh2 != sh {
		t.Fatal("stable ShareFor must memoize")
	}
}

// sameKeys fails unless got is exactly the violation key set want.
func sameKeys(t *testing.T, name string, got []core.Violation, want map[string]core.Violation) {
	t.Helper()
	keys := detect.VioKeySet(got)
	if len(keys) != len(want) {
		t.Fatalf("%s found %d violations, reference %d", name, len(keys), len(want))
	}
	for k := range keys {
		if _, ok := want[k]; !ok {
			t.Fatalf("%s-only violation %s", name, k)
		}
	}
}

// TestSharedDectMatchesPerRule drives the shared forest end to end over a
// generated workload: it must find exactly the oracle's violations, as must
// the union of independent singleton-set runs (which share nothing by
// construction), and must not scan more candidates than those runs together.
func TestSharedDectMatchesPerRule(t *testing.T) {
	p := gen.YAGO2
	p.ErrorRate = 0.25
	ds := gen.Generate(p, 120, 5)
	rules := gen.Rules(p, gen.RuleConfig{Count: 21, MaxDiameter: 5, Seed: 5})

	want := detect.VioKeySet(ref.Detect(ds.G, rules))
	if len(want) == 0 {
		t.Fatal("vacuous workload")
	}
	shared := detect.Dect(ds.G, rules, detect.Options{})
	var solo detect.Result
	for _, r := range rules.Rules {
		one := detect.Dect(ds.G, core.NewSet(r), detect.Options{})
		solo.Violations = append(solo.Violations, one.Violations...)
		solo.Counters.Candidates += one.Counters.Candidates
	}
	sameKeys(t, "shared", shared.Violations, want)
	sameKeys(t, "per-rule", solo.Violations, want)
	if shared.Counters.Candidates > solo.Counters.Candidates {
		t.Fatalf("sharing scanned more candidates (%d) than per-rule search (%d)",
			shared.Counters.Candidates, solo.Counters.Candidates)
	}
	t.Logf("candidates: shared %d vs per-rule %d", shared.Counters.Candidates, solo.Counters.Candidates)
}

// TestHubTrapAnchorsOnSparseEdge pins the cost planner's anchor choice. The
// pattern's user node can be reached through a many-to-many hub relation
// (likes: every user likes every item) or a sparse one (owns: two owners per
// rare item). Anchoring on the hub side costs ~96 kilounits on this graph;
// the fan statistics must pick the sparse side (~0.2), with the violation
// set unchanged.
func TestHubTrapAnchorsOnSparseEdge(t *testing.T) {
	g := graph.New()
	var items, rares, users []graph.NodeID
	for i := 0; i < 4; i++ {
		items = append(items, g.AddNode("item"))
	}
	for i := 0; i < 40; i++ {
		rares = append(rares, g.AddNode("rare"))
	}
	for i := 0; i < 1200; i++ {
		u := g.AddNode("user")
		g.SetAttr(u, "vip", graph.Int(int64(i%2)))
		users = append(users, u)
	}
	for i, it := range items {
		for k := 0; k < 10; k++ {
			g.AddEdge(it, rares[(i*10+k)%len(rares)], "promo")
		}
	}
	for _, u := range users {
		for _, it := range items {
			g.AddEdge(u, it, "likes")
		}
	}
	for i, r := range rares {
		g.AddEdge(users[(2*i)%len(users)], r, "owns")
		g.AddEdge(users[(2*i+1)%len(users)], r, "owns")
	}
	q := pattern.New()
	iN := q.AddNode("i", "item")
	rN := q.AddNode("r", "rare")
	uN := q.AddNode("u", "user")
	q.AddEdge(iN, rN, "promo")
	q.AddEdge(uN, iN, "likes")
	q.AddEdge(uN, rN, "owns")
	trap := core.NewSet(core.MustNew("hub-trap", q, nil,
		[]core.Literal{core.Lit(expr.V("u", "vip"), expr.Eq, expr.C(1))}))

	res := detect.Dect(g, trap, detect.Options{})
	if work := res.Counters.Candidates + res.Counters.Checks; work > 1000 {
		t.Fatalf("hub-trap Dect did %d work units, want ≤ 1000 (hub-side anchoring costs ~96000)", work)
	}
	want := detect.VioKeySet(ref.Detect(g, trap))
	if len(want) == 0 {
		t.Fatal("vacuous workload")
	}
	sameKeys(t, "Dect", res.Violations, want)
}

func TestForPattern(t *testing.T) {
	g, _, _ := skewedGraph()
	q := pattern.New()
	q.AddNode("a", "big")
	q.AddNode("b", "tiny")
	q.AddEdge(0, 1, "rel")
	cp := pattern.Compile(q, g.Symbols())
	pl := plan.ForPattern(g, cp)
	if len(pl.Steps) != 2 || pl.Steps[0].Node != 1 {
		t.Fatalf("ForPattern plan = %+v, want tiny-seeded 2-step plan", pl.Steps)
	}
}

// TestPivotPlansSignPinsByRole: a pre-bound node is no step, so it used to
// sign as depth 0 like the step-0 node, and the two pins of one pivot alike;
// a forest over pivot-anchored plans of several rules would then merge chains
// that enumerate different candidates.
func TestPivotPlansSignPinsByRole(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 60, 4)

	// the peer rule's two pivot slots (x→y, y→x) share one cached plan;
	// pinned as (x, y) its first step extends the source pin, as (y, x) the
	// destination pin
	peer := gen.PeerCycleRule(gen.YAGO2, 1)
	prog := plan.New(ds.G, core.NewSet(peer), plan.Options{})
	c, pl := prog.PlanFor(ds.G, peer, []int{0, 1})
	sh := plan.ShareOf([]plan.ShareRule{
		{Rule: peer, C: c, Plan: pl, Pins: []int{0, 1}},
		{Rule: peer, C: c, Plan: pl, Pins: []int{1, 0}},
	})
	if len(sh.Root.Children) != 2 {
		t.Fatalf("peer pivots of opposite orientation share a chain (%d root branches, want 2)", len(sh.Root.Children))
	}
	again := plan.ShareOf([]plan.ShareRule{
		{Rule: peer, C: c, Plan: pl, Pins: []int{0, 1}},
		{Rule: peer, C: c, Plan: pl, Pins: []int{0, 1}},
	})
	if len(again.Root.Children) != 1 {
		t.Fatalf("equal pins must still share (%d root branches, want 1)", len(again.Root.Children))
	}

	// x→y pinned; step 0 binds z from y in both; step 1 binds w from z (the
	// step-0 node) in the chain, from y (a pin) in the fork
	shape := func(name string, wFromZ bool) *core.NGD {
		q := pattern.New()
		x, y, z, w := q.AddNode("x", "_"), q.AddNode("y", "_"), q.AddNode("z", "_"), q.AddNode("w", "_")
		q.AddEdge(x, y, "next")
		q.AddEdge(y, z, "next")
		if wFromZ {
			q.AddEdge(z, w, "next")
		} else {
			q.AddEdge(y, w, "next")
		}
		return core.MustNew(name, q, nil, []core.Literal{core.Lit(expr.V("x", "v"), expr.Eq, expr.C(1))})
	}
	chain, fork := shape("chain", true), shape("fork", false)
	prog = plan.New(ds.G, core.NewSet(chain, fork), plan.Options{})
	var srs []plan.ShareRule
	for _, r := range []*core.NGD{chain, fork} {
		c, pl := prog.PlanFor(ds.G, r, []int{0, 1})
		srs = append(srs, plan.ShareRule{Rule: r, C: c, Plan: pl, Pins: []int{0, 1}})
	}
	sh = plan.ShareOf(srs)
	if len(sh.Root.Children) != 1 {
		t.Fatalf("chain and fork must share step 0 (%d root branches)", len(sh.Root.Children))
	}
	if got := len(sh.Root.Children[0].Children); got != 2 {
		t.Fatalf("a pin-anchored and a step-0-anchored step share a node (%d branches at depth 1, want 2)", got)
	}
}

// followerHub builds the benchmark's follower shape around one hub: n
// entities follow it, each with a p4 edge to an integer node whose val
// lies in [0, 100000) — inside the follower rule's band whatever a's value.
func followerHub(n int) (*graph.Graph, graph.NodeID, []graph.NodeID, []graph.NodeID) {
	g := graph.New()
	hub := g.AddNode("entity")
	var xs, as []graph.NodeID
	for i := 0; i < n; i++ {
		x, a := g.AddNode("entity"), g.AddNode("integer")
		g.SetAttr(a, "val", graph.Int(int64(i*997%100000)))
		g.AddEdge(x, hub, "follows")
		g.AddEdge(x, a, "p4")
		xs, as = append(xs, x), append(as, a)
	}
	return g, hub, xs, as
}

// TestCutBindsBoundSideFirst pins the ¬Y cut of the follower rule: its two
// orientations are compiled, the pivot plans bind the cut's bound side
// before the hub's fan-in scan, the edge-value index is built at plan time,
// and a search from a pivot is cut before it scans the hub's followers —
// until an outlier target leaves the band, when it finds what ref finds.
func TestCutBindsBoundSideFirst(t *testing.T) {
	g, hub, xs, as := followerHub(200)
	r := gen.FollowerRule(gen.YAGO2, 0) // x y z a b; Y |a.val − b.val| ≤ 100000
	rules := core.NewSet(r)
	prog := plan.New(g, rules, plan.Options{})
	c := prog.CompiledFor(r)
	p4 := g.Symbols().Label("p4")
	if len(c.Cuts) != 2 {
		t.Fatalf("%d cuts, want 2 (a bound, b bound)", len(c.Cuts))
	}
	for i, want := range [][2]int{{3, 4}, {4, 3}} {
		if cut := c.Cuts[i]; cut.Band.Bound != want[0] || cut.Band.Free != want[1] || cut.Label != p4 || cut.BySrc {
			t.Errorf("cut %d = bound %d free %d label %d bySrc %v, want %v through p4 targets",
				i, cut.Band.Bound, cut.Band.Free, cut.Label, cut.BySrc, want)
		}
	}
	for _, tc := range []struct {
		bound, order []int
	}{
		{[]int{0, 2}, []int{3, 1, 4}}, // x, z pinned: a, y, b
		{[]int{1, 2}, []int{4, 0, 3}}, // y, z pinned: b, x, a
	} {
		_, pl := prog.PlanFor(g, r, tc.bound)
		var order []int
		for _, st := range pl.Steps {
			order = append(order, st.Node)
		}
		if !slices.Equal(order, tc.order) {
			t.Errorf("pivot plan for %v binds %v, want %v", tc.bound, order, tc.order)
		}
	}
	if g.EdgeValIndexFor(p4, g.Symbols().LookupAttr("val"), false) == nil {
		t.Fatal("PlanFor did not build the cut's edge-value index")
	}

	search := func() (match.Counters, int) {
		_, pl := prog.PlanFor(g, r, []int{0, 2})
		s := detect.NewSearcher(g, c, pl)
		partial := match.NewPartial(5)
		partial[0], partial[2] = xs[0], hub
		vios := 0
		st := s.Run(partial, func(core.Match) bool { vios++; return true })
		return st, vios
	}
	if st, vios := search(); st.Cuts != 1 || st.Candidates > 1 || vios != 0 {
		t.Fatalf("in band: %d cuts, %d candidates, %d violations; want the pivot cut after one candidate", st.Cuts, st.Candidates, vios)
	}
	g.SetAttr(as[7], "val", graph.Int(1<<40))
	st, vios := search()
	if st.Cuts != 0 || vios == 0 {
		t.Fatalf("with an outlier: %d cuts, %d violations; want no cut", st.Cuts, vios)
	}
	want := 0
	for _, v := range ref.Detect(g, rules) {
		if v.Match[0] == xs[0] {
			want++
		}
	}
	if vios != want {
		t.Fatalf("the pivot found %d violations, ref %d", vios, want)
	}
}
