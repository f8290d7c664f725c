package match_test

// Regression test for the overlay/index staleness bug fixed alongside the
// repair engine: an Overlay.SetAttr override on a node that participates in
// a pruning index must not let the planner / the matcher consume the
// base graph's index run for that (label, attr) pair. The base index still
// holds the node's committed value, so an index-seeded scan silently skips
// nodes whose *overridden* value now satisfies the seed predicate — matches
// (and therefore previewed violations) go missing. The fix masks
// overlay-dirtied pairs from EnsureAttrIndex/AttrIndexFor, forcing the seed
// back to a label scan whose per-candidate filters read through the overlay.

import (
	"testing"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
	. "ngd/internal/match"
	"ngd/internal/pattern"
)

func TestOverlaySetAttrMasksStaleIndexRuns(t *testing.T) {
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

	enumerate := func(v graph.View, pl *Plan) map[graph.NodeID]bool {
		got := make(map[graph.NodeID]bool)
		m := NewMatcher(v, pl, Hooks{})
		m.Run(NewPartial(2), func(sol []graph.NodeID) bool {
			got[sol[x]] = true
			return true
		})
		return got
	}

	ov := graph.NewOverlay(g, &graph.Delta{})
	ov.SetAttr(target, val, graph.Int(1)) // now satisfies val=1 — overlay only

	// the dirtied (T, val) pair must be masked from index seeding
	if ov.AttrIndexFor(tl, val) != nil {
		t.Fatal("overlay serves the base attribute index for a SetAttr-dirtied (label,attr) pair")
	}
	if ov.EnsureAttrIndex(tl, val) != nil {
		t.Fatal("EnsureAttrIndex must not hand out a stale base index for a dirtied pair")
	}
	// undirtied pairs still delegate (the mask is per (label,attr), not global)
	other := g.Symbols().Attr("other")
	if g.EnsureAttrIndex(tl, other) == nil {
		t.Fatal("base index for (T, other) did not build")
	}
	if ov.AttrIndexFor(tl, other) == nil {
		t.Fatal("overlay must keep delegating undirtied (label,attr) pairs")
	}

	// plan built against the overlay: must enumerate the overridden node
	ovPlan := planFor(ov, p, nil, valIsOne)
	got := enumerate(ov, ovPlan)
	if !got[target] {
		t.Fatalf("overlay match missed node %d whose overridden val now satisfies the seed predicate (stale index run); got %v",
			target, got)
	}
	if len(got) != 3 {
		t.Fatalf("overlay enumeration found %d seed nodes, want 3 (two base + override)", len(got))
	}

	// a plan cached against the base graph and re-run over the overlay (the
	// plan-cache hazard) must also see the override, since seed runs resolve
	// at matcher run time against the matcher's view
	if got := enumerate(ov, basePlan); !got[target] {
		t.Fatalf("base-built plan over overlay missed overridden node %d", target)
	}

	// the opposite direction: overriding val 1 -> 0 must drop the node even
	// though the base index still lists it (filters re-read the view)
	ov2 := graph.NewOverlay(g, &graph.Delta{})
	ov2.SetAttr(ts[3], val, graph.Int(0))
	if got := enumerate(ov2, planFor(ov2, p, nil, valIsOne)); got[ts[3]] || len(got) != 1 {
		t.Fatalf("overlay downgrade: got %v, want only node %d", got, ts[7])
	}

	// the base graph is untouched throughout
	if v := g.Attr(target, val); !v.Valid() {
		t.Fatal("base attr vanished")
	} else if iv, _ := v.AsInt(); iv != 0 {
		t.Fatalf("SetAttr leaked into the base graph: val=%d", iv)
	}
	if got := enumerate(g, basePlan); got[target] || len(got) != 2 {
		t.Fatalf("base enumeration changed after overlay writes: %v", got)
	}
}
