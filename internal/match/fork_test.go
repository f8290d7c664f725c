package match_test

// A repair preview writes an attribute on a fork of the live graph. The
// fork shares the graph's attribute indexes until it writes one, then
// copies it (graph's page.go), so an index-seeded scan over the fork sees
// the written value, and one over the graph still sees the committed one:
// a shared index would serve one of them a stale run, and its seeded scan
// would skip the written node.

import (
	"testing"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
	. "ngd/internal/match"
	"ngd/internal/pattern"
)

func TestForkSetAttrSeedsFromOwnIndex(t *testing.T) {
	g := graph.New()
	tl := g.Symbols().Label("T")
	ul := g.Symbols().Label("U")
	val := g.Symbols().Attr("val")
	el := g.Symbols().Label("e")

	// 40 T nodes; only two carry val=1 in the base graph, so the planner
	// prefers the (T, val) index seed over the 20-node U bucket. The target
	// node has val=0 and an edge into U like everyone else.
	var ts []graph.NodeID
	for i := 0; i < 40; i++ {
		n := g.AddNodeL(tl)
		g.SetAttrA(n, val, graph.Int(0))
		ts = append(ts, n)
	}
	g.SetAttrA(ts[3], val, graph.Int(1))
	g.SetAttrA(ts[7], val, graph.Int(1))
	var us []graph.NodeID
	for i := 0; i < 20; i++ {
		us = append(us, g.AddNodeL(ul))
	}
	for i, tn := range ts {
		g.AddEdgeL(tn, us[i%len(us)], el)
	}
	target := ts[11] // val=0 in base

	p := pattern.New()
	x := p.AddNode("x", "T")
	y := p.AddNode("y", "U")
	p.AddEdge(x, y, "e")
	valIsOne := core.Lit(expr.V("x", "val"), expr.Eq, expr.C(1))

	// build the base index (as a live session's plans would have)
	basePlan := planFor(g, p, nil, valIsOne)
	if basePlan.Steps[0].Node != x || basePlan.Steps[0].SeedPred < 0 {
		t.Fatalf("base plan should seed at the indexed T predicate, got step %+v", basePlan.Steps[0])
	}

	enumerate := func(v *graph.Graph, pl *Plan) map[graph.NodeID]bool {
		got := make(map[graph.NodeID]bool)
		m := NewMatcher(v, pl)
		m.Run(NewPartial(2), func(sol []graph.NodeID) bool {
			got[sol[x]] = true
			return true
		})
		return got
	}

	// the other pair's index is built before the fork, so the fork holds it
	other := g.Symbols().Attr("other")
	if g.EnsureAttrIndex(tl, other) == nil {
		t.Fatal("base index for (T, other) did not build")
	}
	f := g.Clone()
	defer f.Release()
	f.SetAttrA(target, val, graph.Int(1)) // now satisfies val=1 — on the fork only

	// the written (T, val) pair is the fork's own copy, exact for it
	ix := f.AttrIndexFor(tl, val)
	if ix == nil || ix == g.AttrIndexFor(tl, val) || ix.Ints(1).Len() != 3 {
		t.Fatal("the fork must serve its own (T, val) index, holding the written value")
	}
	if g.AttrIndexFor(tl, val).Ints(1).Len() != 2 {
		t.Fatal("the fork's write reached the graph's index")
	}
	// an unwritten pair stays shared
	if f.AttrIndexFor(tl, other) != g.AttrIndexFor(tl, other) {
		t.Fatal("the fork must keep sharing unwritten (label,attr) pairs")
	}

	// plan built against the fork: seeds at the index and finds the node
	fPlan := planFor(f, p, nil, valIsOne)
	if fPlan.Steps[0].Node != x || fPlan.Steps[0].SeedPred < 0 {
		t.Fatalf("the fork's plan should seed at the indexed T predicate, got step %+v", fPlan.Steps[0])
	}
	got := enumerate(f, fPlan)
	if !got[target] {
		t.Fatalf("fork match missed node %d whose written val now satisfies the seed predicate; got %v",
			target, got)
	}
	if len(got) != 3 {
		t.Fatalf("fork enumeration found %d seed nodes, want 3 (two base + written)", len(got))
	}

	// a plan cached against the graph and re-run over the fork (the
	// plan-cache hazard) must also see the write, since seed runs resolve
	// at matcher run time against the matcher's graph
	if got := enumerate(f, basePlan); !got[target] {
		t.Fatalf("base-built plan over the fork missed written node %d", target)
	}

	// the opposite direction: writing val 1 -> 0 must drop the node
	f2 := g.Clone()
	defer f2.Release()
	f2.SetAttrA(ts[3], val, graph.Int(0))
	if got := enumerate(f2, planFor(f2, p, nil, valIsOne)); got[ts[3]] || len(got) != 1 {
		t.Fatalf("fork downgrade: got %v, want only node %d", got, ts[7])
	}

	// the base graph is untouched throughout
	if v := g.Attr(target, val); !v.Valid() {
		t.Fatal("base attr vanished")
	} else if iv, _ := v.AsInt(); iv != 0 {
		t.Fatalf("the fork's SetAttrA leaked into the base graph: val=%d", iv)
	}
	if got := enumerate(g, basePlan); got[target] || len(got) != 2 {
		t.Fatalf("base enumeration changed after the forks' writes: %v", got)
	}
}
