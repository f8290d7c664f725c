package session_test

// The sequential commit reads ΔVio⁻ off the store's by-node postings instead
// of searching deletion pivots. The differential table checks the lookup
// against inc.IncDect on generated streams (runDifferential); these are the
// cases a generator will not make, and the counts that say no search ran.

import (
	"testing"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/pattern"
	"ngd/internal/session"
)

// eventKeys lists an event side's canonical keys.
func eventKeys(recs []*core.Keyed) []string {
	keys := make([]string, len(recs))
	for i, k := range recs {
		keys[i] = k.Key
	}
	return keys
}

// violationsOf lists the records' violations.
func violationsOf(recs []*core.Keyed) []core.Violation {
	vs := make([]core.Violation, len(recs))
	for i, k := range recs {
		vs[i] = k.Violation
	}
	return vs
}

// mustRecheck fails the test when the store is not Vio(Σ, G).
func mustRecheck(t *testing.T, s *session.Session) {
	t.Helper()
	if err := s.Recheck(); err != nil {
		t.Fatal(err)
	}
}

// TestLookupRemovesOnceAcrossTwoDeletedEdges: one violation whose match uses
// two edges the same batch deletes is found under both, removed once and
// listed once in the event.
func TestLookupRemovesOnceAcrossTwoDeletedEdges(t *testing.T) {
	q := pattern.New()
	x, y, z := q.AddNode("x", "T"), q.AddNode("y", "T"), q.AddNode("z", "integer")
	q.AddEdge(x, y, "a")
	q.AddEdge(y, z, "b")
	rule := core.MustNew("chain", q, nil, []core.Literal{core.Lit(expr.V("z", "val"), expr.Ge, expr.C(0))})

	g := graph.New()
	u, v, w := g.AddNode("T"), g.AddNode("T"), g.AddNode("integer")
	g.SetAttr(w, "val", graph.Int(-1))
	a, b := g.Symbols().Label("a"), g.Symbols().Label("b")
	g.AddEdgeL(u, v, a)
	g.AddEdgeL(v, w, b)
	s := session.New(g, core.NewSet(rule), session.Options{})
	if s.Len() != 1 {
		t.Fatalf("seed store = %d, want 1", s.Len())
	}
	key := s.Violations()[0].Key()

	d := &graph.Delta{}
	d.Delete(u, v, a)
	d.Delete(v, w, b)
	st := s.Commit(d)
	if st.Minus != 1 || st.Looked != 2 || s.Len() != 0 {
		t.Fatalf("Minus=%d Looked=%d store=%d, want 1/2/0", st.Minus, st.Looked, s.Len())
	}
	if got := eventKeys(st.Event.Removed); len(got) != 1 || got[0] != key || len(st.Event.Added) != 0 {
		t.Fatalf("event = +%v/−%v, want −[%s] only", eventKeys(st.Event.Added), got, key)
	}
	mustRecheck(t, s)

	// a delete-only batch, then the same edges again: the violation returns
	// under the same key
	d = &graph.Delta{}
	d.Insert(u, v, a)
	d.Insert(v, w, b)
	st = s.Commit(d)
	if got := eventKeys(st.Event.Added); st.Plus != 1 || len(got) != 1 || got[0] != key {
		t.Fatalf("re-insertion: Plus=%d event +%v, want +[%s]", st.Plus, got, key)
	}
	mustRecheck(t, s)
}

// TestLookupPeerRuleBothOrientations: one label at two pattern-edge slots.
// Deleting u→v kills the match that maps slot 0 onto it and the mirrored
// match that maps slot 1 onto it; the matches of another pair stay.
func TestLookupPeerRuleBothOrientations(t *testing.T) {
	q := pattern.New()
	x, y := q.AddNode("x", "P"), q.AddNode("y", "P")
	q.AddEdge(x, y, "peer")
	q.AddEdge(y, x, "peer")
	rule := core.MustNew("peers-agree", q, nil, []core.Literal{core.Lit(expr.V("x", "val"), expr.Eq, expr.V("y", "val"))})

	g := graph.New()
	peer := g.Symbols().Label("peer")
	var n [4]graph.NodeID
	for i := range n {
		n[i] = g.AddNode("P")
		g.SetAttr(n[i], "val", graph.Int(int64(i)))
	}
	for _, p := range [][2]int{{0, 1}, {2, 3}} {
		g.AddEdgeL(n[p[0]], n[p[1]], peer)
		g.AddEdgeL(n[p[1]], n[p[0]], peer)
	}
	s := session.New(g, core.NewSet(rule), session.Options{})
	if s.Len() != 4 {
		t.Fatalf("seed store = %d, want 4 (two pairs, two orientations)", s.Len())
	}

	for i, e := range [][2]int{{0, 1}, {3, 2}} {
		d := &graph.Delta{}
		d.Delete(n[e[0]], n[e[1]], peer)
		st := s.Commit(d)
		if want := 4 - 2*(i+1); st.Minus != 2 || len(st.Event.Removed) != 2 || s.Len() != want {
			t.Fatalf("delete %d→%d: Minus=%d event −%d store=%d, want 2/2/%d",
				e[0], e[1], st.Minus, len(st.Event.Removed), s.Len(), want)
		}
		mustRecheck(t, s)
	}
}

// TestLookupSelfLoopPatternEdge: a pattern edge x→x is used by a match only
// through the loop at its node, not through another edge of that label
// leaving it.
func TestLookupSelfLoopPatternEdge(t *testing.T) {
	q := pattern.New()
	x := q.AddNode("x", "T")
	q.AddEdge(x, x, "self")
	rule := core.MustNew("loop", q, nil, []core.Literal{core.Lit(expr.V("x", "val"), expr.Ge, expr.C(0))})

	g := graph.New()
	self := g.Symbols().Label("self")
	u, w := g.AddNode("T"), g.AddNode("T")
	g.SetAttr(u, "val", graph.Int(-1))
	g.SetAttr(w, "val", graph.Int(1))
	g.AddEdgeL(u, u, self)
	g.AddEdgeL(u, w, self)
	s := session.New(g, core.NewSet(rule), session.Options{})
	if s.Len() != 1 {
		t.Fatalf("seed store = %d, want 1", s.Len())
	}

	d := &graph.Delta{}
	d.Delete(u, w, self)
	if st := s.Commit(d); st.Minus != 0 || s.Len() != 1 {
		t.Fatalf("deleting u→w: Minus=%d store=%d, want 0/1", st.Minus, s.Len())
	}
	mustRecheck(t, s)
	d = &graph.Delta{}
	d.Delete(u, u, self)
	if st := s.Commit(d); st.Minus != 1 || st.Looked != 1 || s.Len() != 0 {
		t.Fatalf("deleting u→u: Minus=%d Looked=%d store=%d, want 1/1/0", st.Minus, st.Looked, s.Len())
	}
	mustRecheck(t, s)
}

// TestLookupWalksShorterPosting: a hub with a long posting loses an edge to a
// node with none, then one to a node with a single entry; the entries
// examined are the other endpoint's, never the hub's.
func TestLookupWalksShorterPosting(t *testing.T) {
	q := pattern.New()
	x, y := q.AddNode("x", "T"), q.AddNode("y", "integer")
	q.AddEdge(x, y, "p")
	rule := core.MustNew("pos", q, nil, []core.Literal{core.Lit(expr.V("y", "val"), expr.Ge, expr.C(0))})

	g := graph.New()
	p := g.Symbols().Label("p")
	hub := g.AddNode("T")
	var bad []graph.NodeID
	for i := 0; i < 40; i++ {
		b := g.AddNode("integer")
		g.SetAttr(b, "val", graph.Int(-1))
		g.AddEdgeL(hub, b, p)
		bad = append(bad, b)
	}
	fine := g.AddNode("integer")
	g.SetAttr(fine, "val", graph.Int(1))
	g.AddEdgeL(hub, fine, p)
	s := session.New(g, core.NewSet(rule), session.Options{})
	if got := len(s.Snapshot().Node(hub)); got != 40 {
		t.Fatalf("hub posting = %d, want 40", got)
	}

	d := &graph.Delta{}
	d.Delete(hub, fine, p)
	if st := s.Commit(d); st.Looked != 0 || st.Minus != 0 || st.Cost != 0 {
		t.Fatalf("hub→unposted node: Looked=%d Minus=%d Cost=%v, want all 0", st.Looked, st.Minus, st.Cost)
	}
	d = &graph.Delta{}
	d.Delete(hub, bad[7], p)
	if st := s.Commit(d); st.Looked != 1 || st.Minus != 1 || s.Len() != 39 {
		t.Fatalf("hub→posted node: Looked=%d Minus=%d store=%d, want 1/1/39", st.Looked, st.Minus, s.Len())
	}
	mustRecheck(t, s)
}

// TestLookupBesideAbsorbedArrival: one commit deletes an edge of a stored
// violation, delivers a node that binds the rule's isolated slot, and then
// one more whose only new match also uses an inserted edge. The arrivals are
// absorbed on G′, so the deleted reading pairs with none of them and the
// match that ΔVio⁺ finds again is counted once.
func TestLookupBesideAbsorbedArrival(t *testing.T) {
	g := graph.New()
	reads := g.Symbols().Label("reads")
	reading := func(val int64) graph.NodeID {
		y := g.AddNode("integer")
		g.SetAttr(y, "val", graph.Int(val))
		return y
	}
	limit := func(c int64) graph.NodeID {
		z := g.AddNode("limit")
		g.SetAttr(z, "cap", graph.Int(c))
		return z
	}
	x := g.AddNode("sensor")
	y50, y40 := reading(50), reading(40)
	g.AddEdgeL(x, y50, reads)
	g.AddEdgeL(x, y40, reads)
	limit(45)
	s := session.New(g, core.NewSet(hybridIsoRule()), session.Options{})
	if s.Len() != 1 {
		t.Fatalf("seed store = %d, want 1 (50 ≥ 45)", s.Len())
	}

	limit(30) // arrives: 40 ≥ 30 violates, 50 would too but its edge goes
	d := &graph.Delta{}
	d.Delete(x, y50, reads)
	st := s.Commit(d)
	if st.Minus != 1 || st.Absorbed != 1 || st.Plus != 0 || s.Len() != 1 {
		t.Fatalf("Minus=%d Absorbed=%d Plus=%d store=%d, want 1/1/0/1", st.Minus, st.Absorbed, st.Plus, s.Len())
	}
	if len(st.Event.Removed) != 1 || len(st.Event.Added) != 1 {
		t.Fatalf("event = +%d/−%d, want +1/−1", len(st.Event.Added), len(st.Event.Removed))
	}
	mustRecheck(t, s)

	limit(5) // arrives with a new reading of 7: (7, 5) and (40, 5) violate
	d = &graph.Delta{}
	d.Insert(x, reading(7), reads)
	st = s.Commit(d)
	if st.Absorbed+st.Plus != 2 || len(st.Event.Added) != 2 || s.Len() != 3 {
		t.Fatalf("Absorbed=%d Plus=%d event +%d store=%d, want two additions in all and a store of 3",
			st.Absorbed, st.Plus, len(st.Event.Added), s.Len())
	}
	if st.StoreSize != 1+st.Absorbed+st.Plus-st.Minus {
		t.Fatalf("accounting broken: %+v", st)
	}
	mustRecheck(t, s)
}

// TestCommitCountsSayWhatRan pins the commit's work as counts. A delete-only
// batch expands no pivot, draws no plan and costs the posting entries it
// examined. An insert-only batch costs what IncDect's ΔVio⁺ side costs
// through the same plans: searching G′ scans the candidates the fork of G
// with ΔG applied does.
func TestCommitCountsSayWhatRan(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 200, 12)
	s := session.New(ds.G, gen.EffectivenessRules(gen.YAGO2), session.Options{})

	// random deletions, and an edge under each of the first stored violations
	rnd := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.08), Gamma: 1, Seed: 1}).Normalize(ds.G)
	del := &graph.Delta{Ops: rnd.Deletions()}
	for _, v := range s.Violations()[:min(5, s.Len())] {
		pe := v.Rule.Pattern.Edges[0]
		del.Delete(v.Match[pe.Src], v.Match[pe.Dst], ds.G.Symbols().LookupLabel(pe.Label))
	}
	st := s.Commit(del)
	if st.Deleted == 0 || st.Minus == 0 {
		t.Fatalf("vacuous: the batch deleted %d edges and removed %d violations", st.Deleted, st.Minus)
	}
	if st.Pivots != 0 || st.PlanHits+st.PlanMisses != 0 || st.Cost != float64(st.Looked) || st.Looked < st.Minus {
		t.Fatalf("delete-only commit: Pivots=%d plan lookups=%d Cost=%v Looked=%d Minus=%d",
			st.Pivots, st.PlanHits+st.PlanMisses, st.Cost, st.Looked, st.Minus)
	}
	mustRecheck(t, s)

	rnd = gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.08), Gamma: 1, Seed: 2}).Normalize(ds.G)
	ins := &graph.Delta{Ops: rnd.Insertions()}
	want := inc.IncDect(ds.G, s.Rules(), ins, inc.Options{Program: s.Program()})
	st = s.Commit(ins)
	if st.Inserted == 0 || len(want.Plus) == 0 {
		t.Fatalf("vacuous: the batch inserted %d edges for %d violations", st.Inserted, len(want.Plus))
	}
	if st.Pivots != want.Pivots || st.Plus != len(want.Plus) || st.Looked != 0 ||
		st.Cost != float64(want.Counters.Candidates+want.Counters.Checks) {
		t.Fatalf("insert-only commit: Pivots=%d Plus=%d Cost=%v Looked=%d, IncDect: %d/%d/%d",
			st.Pivots, st.Plus, st.Cost, st.Looked, want.Pivots, len(want.Plus), want.Counters.Candidates+want.Counters.Checks)
	}
	if st.Cuts != 0 {
		t.Fatalf("insert-only commit under Σ without a band rule: Cuts=%d", st.Cuts)
	}
	mustRecheck(t, s)

	// the ¬Y cut: a new follower of a hub whose followers' p4 values all
	// lie in the band is cut at both pivot slots, right after its own p4
	// target binds; once that target is a far outlier, the attribute pass
	// searches from it without a cut and finds its violations
	g := graph.New()
	hub := g.AddNode("entity")
	for i := 0; i < 50; i++ {
		x, a := g.AddNode("entity"), g.AddNode("integer")
		g.SetAttr(a, "val", graph.Int(int64(i*1000)))
		g.AddEdge(x, hub, "follows")
		g.AddEdge(x, a, "p4")
	}
	x, a := g.AddNode("entity"), g.AddNode("integer")
	g.SetAttr(a, "val", graph.Int(500))
	g.AddEdge(x, a, "p4")
	s = session.New(g, core.NewSet(gen.FollowerRule(gen.YAGO2, 0)), session.Options{})
	follow := &graph.Delta{}
	follow.Insert(x, hub, g.Symbols().Label("follows"))
	if st = s.Commit(follow); st.Pivots != 2 || st.Cuts != 2 || st.Plus != 0 || st.Cost > 4 {
		t.Fatalf("in-band follower: Pivots=%d Cuts=%d Plus=%d Cost=%v, want 2 pivots both cut", st.Pivots, st.Cuts, st.Plus, st.Cost)
	}
	st = s.CommitBatch(nil, []graph.AttrOp{{Node: a, Attr: g.Symbols().Attr("val"), Val: graph.Int(1 << 40)}})
	if st.Cuts != 0 || st.AttrPlus == 0 {
		t.Fatalf("outlier: Cuts=%d AttrPlus=%d, want no cut and its violations found", st.Cuts, st.AttrPlus)
	}
	mustRecheck(t, s)
}
