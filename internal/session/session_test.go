package session_test

import (
	"testing"
	"time"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/pattern"
	"ngd/internal/plan"
	"ngd/internal/ref"
	"ngd/internal/session"
)

// mkStreamWorkload builds a small generated dataset plus rule set.
func mkStreamWorkload(t *testing.T, p gen.Profile, entities, rules int, seed int64) (*gen.Dataset, *core.Set) {
	t.Helper()
	ds := gen.Generate(p, entities, seed)
	rs := gen.Rules(p, gen.RuleConfig{Count: rules, MaxDiameter: 4, Seed: seed})
	return ds, rs
}

func TestSessionSeedsFromBatchDetection(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 200, 1)
	rules := gen.EffectivenessRules(gen.YAGO2)
	s := session.New(ds.G, rules, session.Options{})
	if s.Len() == 0 {
		t.Fatal("expected the seeded store to hold the injected errors' violations")
	}
	if err := s.Recheck(); err != nil {
		t.Fatalf("seed store inconsistent: %v", err)
	}
}

func TestSessionCommitKeepsInvariant(t *testing.T) {
	ds, rules := mkStreamWorkload(t, gen.YAGO2, 200, 8, 2)
	s := session.New(ds.G, rules, session.Options{})
	for b := 0; b < 3; b++ {
		d := gen.RandomDelta(ds, gen.DeltaConfig{
			Size: gen.DeltaSize(ds.G, 0.08), Gamma: 1, Seed: int64(100 + b),
		})
		st := s.Commit(d)
		if st.StoreSize != s.Len() {
			t.Fatalf("batch %d: StoreSize %d != Len %d", b, st.StoreSize, s.Len())
		}
		if err := s.Recheck(); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	if s.Commits() != 3 {
		t.Fatalf("Commits = %d, want 3", s.Commits())
	}
}

func TestSessionCoalescing(t *testing.T) {
	g := graph.New()
	q := pattern.New()
	x := q.AddNode("x", "T")
	y := q.AddNode("y", "integer")
	q.AddEdge(x, y, "p")
	rule := core.MustNew("pos", q, nil, []core.Literal{
		core.Lit(expr.V("y", "val"), expr.Ge, expr.C(0)),
	})

	tn := g.AddNode("T")
	val := g.Symbols().Attr("val")
	bad := g.AddNode("integer")
	g.SetAttrA(bad, val, graph.Int(-1))
	ok := g.AddNode("integer")
	g.SetAttrA(ok, val, graph.Int(5))
	p := g.Symbols().Label("p")

	s := session.New(g, core.NewSet(rule), session.Options{})
	if s.Len() != 0 {
		t.Fatalf("store = %d, want 0 before any edges", s.Len())
	}

	d := &graph.Delta{}
	d.Insert(tn, ok, p)
	d.Insert(tn, ok, p)  // duplicate unit: dedupes
	d.Insert(tn, bad, p) // will annihilate with the delete below
	d.Delete(tn, bad, p)
	d.Delete(ok, bad, p) // deleting a non-edge: elided
	st := s.Commit(d)

	if st.RawOps != 5 {
		t.Fatalf("RawOps = %d, want 5", st.RawOps)
	}
	if st.Ops != 1 {
		t.Fatalf("coalesced Ops = %d, want 1 (dedupe + annihilation + elision)", st.Ops)
	}
	if st.Inserted != 1 || st.Deleted != 0 {
		t.Fatalf("committed %d/%d, want 1 insert, 0 deletes", st.Inserted, st.Deleted)
	}
	if s.Len() != 0 {
		t.Fatalf("store = %d, want 0 (the violating edge annihilated)", s.Len())
	}
	if err := s.Recheck(); err != nil {
		t.Fatal(err)
	}

	// now actually wire the violating edge: one new violation
	d2 := &graph.Delta{}
	d2.Insert(tn, bad, p)
	st2 := s.Commit(d2)
	if st2.Plus != 1 || s.Len() != 1 {
		t.Fatalf("Plus = %d store = %d, want 1/1", st2.Plus, s.Len())
	}
	// and remove it again: reconciled out
	d3 := &graph.Delta{}
	d3.Delete(tn, bad, p)
	st3 := s.Commit(d3)
	if st3.Minus != 1 || s.Len() != 0 {
		t.Fatalf("Minus = %d store = %d, want 1/0", st3.Minus, s.Len())
	}
	if err := s.Recheck(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionAbsorbsNewNodes(t *testing.T) {
	ds, rules := mkStreamWorkload(t, gen.YAGO2, 120, 6, 4)
	rules.Add(gen.NodeRule())
	s := session.New(ds.G, rules, session.Options{})
	before := s.Len()

	// a node arrives between commits, violating the edge-less rule; no
	// edges accompany it, so only absorption can find it
	val := ds.G.Symbols().Attr("val")
	v := ds.G.AddNode("integer")
	ds.G.SetAttrA(v, val, graph.Int(7))

	st := s.Commit(nil)
	if st.NewNodes != 1 {
		t.Fatalf("NewNodes = %d, want 1", st.NewNodes)
	}
	if s.Len() != before+1 {
		t.Fatalf("store = %d, want %d (the arriving 7-valued node)", s.Len(), before+1)
	}
	if err := s.Recheck(); err != nil {
		t.Fatal(err)
	}
}

// crossRule has two isolated pattern nodes and no edges: matched as a
// cross product, every A value must stay ≤ every B value.
func crossRule() *core.NGD {
	q := pattern.New()
	q.AddNode("x", "A")
	q.AddNode("y", "B")
	return core.MustNew("cross", q, nil, []core.Literal{
		core.Lit(expr.V("x", "val"), expr.Le, expr.V("y", "val")),
	})
}

func TestSessionAbsorbsDisconnectedEdgelessRule(t *testing.T) {
	g := graph.New()
	val := g.Symbols().Attr("val")
	a := g.AddNode("A")
	g.SetAttrA(a, val, graph.Int(5))
	b := g.AddNode("B")
	g.SetAttrA(b, val, graph.Int(10))

	s := session.New(g, core.NewSet(crossRule()), session.Options{})
	if s.Len() != 0 {
		t.Fatalf("seed store = %d, want 0 (5 ≤ 10)", s.Len())
	}

	// a low B arrives: (A=5, B=3) violates via the cross product
	b2 := g.AddNode("B")
	g.SetAttrA(b2, val, graph.Int(3))
	if st := s.Commit(nil); st.NewNodes != 1 || st.Absorbed != 1 || s.Len() != 1 {
		t.Fatalf("after B=3: NewNodes=%d Absorbed=%d store=%d, want 1/1/1",
			st.NewNodes, st.Absorbed, s.Len())
	}
	if err := s.Recheck(); err != nil {
		t.Fatal(err)
	}

	// a high A and a low B arrive in the same window: matches pairing the
	// two new nodes must come out exactly once (smallest-slot dedup)
	a2 := g.AddNode("A")
	g.SetAttrA(a2, val, graph.Int(20))
	b3 := g.AddNode("B")
	g.SetAttrA(b3, val, graph.Int(1))
	st := s.Commit(nil)
	// violations now: (5,3) (5,1) (20,10) (20,3) (20,1) — 4 absorbed, and
	// the store-size accounting identity holds
	if s.Len() != 5 || st.Absorbed != 4 {
		t.Fatalf("store = %d Absorbed = %d, want 5/4", s.Len(), st.Absorbed)
	}
	if st.StoreSize != 1+st.Absorbed+st.Plus-st.Minus {
		t.Fatalf("accounting broken: %+v", st)
	}
	if err := s.Recheck(); err != nil {
		t.Fatal(err)
	}
}

// hybridIsoRule mixes an edge component with an isolated node: every
// reading y hanging off a sensor x must stay below every limit node z.
func hybridIsoRule() *core.NGD {
	q := pattern.New()
	x := q.AddNode("x", "sensor")
	y := q.AddNode("y", "integer")
	q.AddNode("z", "limit")
	q.AddEdge(x, y, "reads")
	return core.MustNew("cap", q, nil, []core.Literal{
		core.Lit(expr.V("y", "val"), expr.Lt, expr.V("z", "cap")),
	})
}

func TestSessionAbsorbsIsolatedNodeInEdgedRule(t *testing.T) {
	g := graph.New()
	val := g.Symbols().Attr("val")
	cap := g.Symbols().Attr("cap")
	reads := g.Symbols().Label("reads")
	x := g.AddNode("sensor")
	y := g.AddNode("integer")
	g.SetAttrA(y, val, graph.Int(50))
	g.AddEdgeL(x, y, reads)
	z := g.AddNode("limit")
	g.SetAttrA(z, cap, graph.Int(100))

	s := session.New(g, core.NewSet(hybridIsoRule()), session.Options{})
	if s.Len() != 0 {
		t.Fatalf("seed store = %d, want 0 (50 < 100)", s.Len())
	}

	// a tighter limit arrives with no edges at all: the existing
	// (sensor, reading) pair now violates against it
	z2 := g.AddNode("limit")
	g.SetAttrA(z2, cap, graph.Int(30))
	s.Commit(nil)
	if s.Len() != 1 {
		t.Fatalf("store = %d, want 1 (reading 50 ≥ new cap 30)", s.Len())
	}
	if err := s.Recheck(); err != nil {
		t.Fatal(err)
	}

	// and the edge side still flows through the pivots: a new reading
	// violates against both limits... 120 ≥ 30 and 120 ≥ 100
	y2 := g.AddNode("integer")
	g.SetAttrA(y2, val, graph.Int(120))
	d := &graph.Delta{}
	d.Insert(x, y2, reads)
	st := s.Commit(d)
	if st.Plus != 2 || s.Len() != 3 {
		t.Fatalf("Plus=%d store=%d, want 2/3", st.Plus, s.Len())
	}
	if err := s.Recheck(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionEmptyCommit(t *testing.T) {
	ds, rules := mkStreamWorkload(t, gen.YAGO2, 120, 6, 5)
	s := session.New(ds.G, rules, session.Options{})
	before := s.Len()
	st := s.Commit(&graph.Delta{})
	if st.RawOps != 0 || st.Ops != 0 || st.Plus != 0 || st.Minus != 0 {
		t.Fatalf("empty commit did work: %+v", st)
	}
	if s.Len() != before {
		t.Fatalf("store changed on empty commit: %d -> %d", before, s.Len())
	}
}

// TestCommitLapsSumToWall pins an identity, not a timing: the stage laps of
// every commit — with a hook, arrivals, deletions, insertions, attribute ops,
// or nothing at all — read one clock and add up to its wall time exactly.
func TestCommitLapsSumToWall(t *testing.T) {
	ds, rules := mkStreamWorkload(t, gen.YAGO2, 120, 6, 5)
	rules.Add(gen.NodeRule())
	s := session.New(ds.G, rules, session.Options{})
	hooked := 0
	s.SetCommitHook(func(*graph.Graph, *graph.Delta, []graph.AttrOp, graph.NodeID, graph.NodeID) error {
		hooked++
		return nil
	})
	val := ds.G.Symbols().Attr("val")
	check := func(st session.BatchStats) {
		t.Helper()
		l := st.Laps
		var sum time.Duration
		for _, d := range []time.Duration{l.Coalesce, l.WAL, l.Lookup, l.Apply, l.Absorb, l.Plus, l.Attr, l.Publish} {
			if d < 0 {
				t.Fatalf("batch %d: negative lap in %+v", st.Batch, l)
			}
			sum += d
		}
		if sum != st.Wall {
			t.Fatalf("batch %d: laps sum to %v, wall %v (%+v)", st.Batch, sum, st.Wall, l)
		}
	}
	for b := 0; b < 3; b++ {
		ds.G.SetAttr(ds.G.AddNode("integer"), "val", graph.Int(7))
		d := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.05), Gamma: 1, Seed: 300 + int64(b)})
		check(s.CommitBatch(d, []graph.AttrOp{{Node: ds.Entities[b], Attr: val, Val: graph.Int(int64(b))}}))
	}
	check(s.Commit(nil))
	if hooked != 4 {
		t.Fatalf("hook ran %d times, want 4", hooked)
	}
	if err := s.Recheck(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionViolationsSortedAndKeyed(t *testing.T) {
	ds, rules := mkStreamWorkload(t, gen.Pokec, 100, 6, 6)
	s := session.New(ds.G, rules, session.Options{})
	vs := s.Violations()
	if len(vs) != s.Len() {
		t.Fatalf("Violations len %d != store %d", len(vs), s.Len())
	}
	for i := 1; i < len(vs); i++ {
		if vs[i-1].Key() >= vs[i].Key() {
			t.Fatalf("violations not strictly sorted at %d", i)
		}
	}
	for _, v := range vs {
		if !s.Has(v.Key()) {
			t.Fatalf("Has(%s) = false for a stored violation", v.Key())
		}
	}
}

// TestSessionPlanCacheWarm pins the serving-latency point of the shared
// rule program: the seeding run compiles every batch plan once, the first
// commit compiles the pivot-slot plans it needs, and from then on whole
// batches commit with plan-cache hits only — zero compilation preamble.
func TestSessionPlanCacheWarm(t *testing.T) {
	ds, rules := mkStreamWorkload(t, gen.YAGO2, 200, 14, 3)
	s := session.New(ds.G, rules, session.Options{})
	if c := s.PlanStats(); c.Misses == 0 {
		t.Fatal("seeding run should have compiled plans")
	}
	if s.Program() == nil {
		t.Fatal("session must own a shared program")
	}

	var warmBatches int
	for b := 0; b < 6; b++ {
		d := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.03), Gamma: 1, Seed: 100 + int64(b)})
		bs := s.Commit(d)
		if b >= 2 {
			// by now every (rule, slot) pair this stream touches has been
			// planned at least once
			if bs.PlanMisses == 0 && bs.PlanInvalidations == 0 {
				warmBatches++
			}
			if bs.PlanHits == 0 && bs.Ops > 0 {
				t.Fatalf("batch %d with %d ops drew no plans from the cache", bs.Batch, bs.Ops)
			}
		}
	}
	if warmBatches == 0 {
		t.Fatal("no batch committed fully warm (misses kept happening)")
	}
	if err := s.Recheck(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionPlanPolicyDifferential commits a stream through a session
// whose plans are rebuilt on every lookup (ChurnThreshold 1: any mutation
// invalidates the cache) beside one that serves them warm, and compares both
// stores with the oracle after every batch: neither plan reuse nor plan
// drift may leak into the violation set.
func TestSessionPlanPolicyDifferential(t *testing.T) {
	mk := func(po plan.Options) (*session.Session, *gen.Dataset) {
		ds, rules := mkStreamWorkload(t, gen.Pokec, 150, 10, 7)
		return session.New(ds.G, rules, session.Options{Plan: po}), ds
	}
	sWarm, dsA := mk(plan.Options{})
	sCold, dsB := mk(plan.Options{ChurnThreshold: 1})
	for b := 0; b < 4; b++ {
		cfg := gen.DeltaConfig{Size: gen.DeltaSize(dsA.G, 0.05), Gamma: 1, Seed: 500 + int64(b)}
		sWarm.Commit(gen.RandomDelta(dsA, cfg))
		sCold.Commit(gen.RandomDelta(dsB, cfg))
		want := ref.Keys(ref.Detect(dsA.G, sWarm.Rules()))
		if got := ref.Keys(sWarm.Violations()); got != want {
			t.Fatalf("batch %d: warm-cache store != Vio(Σ,G)\nstore:\n%s\nreference:\n%s", b+1, got, want)
		}
		if got := ref.Keys(sCold.Violations()); got != want {
			t.Fatalf("batch %d: always-replanning store != Vio(Σ,G)\nstore:\n%s\nreference:\n%s", b+1, got, want)
		}
	}
	if inv := sCold.PlanStats().Invalidations; inv == 0 {
		t.Fatal("ChurnThreshold 1 session never invalidated a plan")
	}
}
