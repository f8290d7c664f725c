package graph_test

// Allocation budgets for the hot read path: attribute lookups over the
// columnar tuple layout must not allocate at all — the map-backed layout
// they replaced could trigger map-bucket churn under writes, and any
// regression here multiplies across every literal evaluation in detection.

import (
	"testing"

	"ngd/internal/graph"
)

func TestAttrAllocFree(t *testing.T) {
	g := graph.New()
	v := g.AddNode("n")
	// past attrLinearMax so the binary-search arm is the one measured too
	for i := 0; i < 12; i++ {
		g.SetAttr(v, string(rune('a'+i)), graph.Int(int64(i)))
	}
	first := g.Symbols().LookupAttr("a")
	last := g.Symbols().LookupAttr("l")
	var sink graph.Value
	allocs := testing.AllocsPerRun(1000, func() {
		sink = g.Attr(v, first)
		sink = g.Attr(v, last)
		sink = g.Attr(v, last+1) // absent
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("Attr allocated %.1f objects per run, want 0", allocs)
	}
}

func TestNeighborhoodSeenSetAllocBudget(t *testing.T) {
	g := graph.New()
	ids := make([]graph.NodeID, 200)
	for i := range ids {
		ids[i] = g.AddNode("n")
	}
	for i := 0; i < len(ids)-1; i++ {
		g.AddEdge(ids[i], ids[i+1], "e")
	}
	graph.NeighborhoodOf(g, ids[:1], 4) // warm the pooled bitset
	allocs := testing.AllocsPerRun(200, func() {
		graph.NeighborhoodOf(g, ids[:1], 4)
	})
	// result + frontier slices may allocate; the pooled seen-set must not
	// add the old map's per-call bucket churn on top
	if allocs > 12 {
		t.Fatalf("NeighborhoodOf allocated %.1f objects per run, budget 12", allocs)
	}
}
