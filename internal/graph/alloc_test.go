package graph_test

// Allocation budgets for the hot read path: attribute lookups over the
// columnar tuple layout must not allocate at all — the map-backed layout
// they replaced could trigger map-bucket churn under writes, and any
// regression here multiplies across every literal evaluation in detection.

import (
	"runtime"
	"testing"

	"ngd/internal/gen"
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

// TestGraphHeapBytes holds the live heap of a generated graph to a ceiling
// per node and per edge: a daemon keeps G resident, and each byte of it
// costs about two of RSS. The ceilings sit 5 % above the layout of page
// arenas with 12-byte list slots, 16-byte node slots and 32-byte attribute
// pairs: 6,704,520 B at 8,000 entities, 104.8 B per node and 82.2 per
// edge (a slice header per list and 40-byte pairs held 11,295,816 B).
func TestGraphHeapBytes(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	h0 := live()
	g := gen.Generate(gen.YAGO2, 8000, 1).G
	b := float64(live() - h0)
	n, m := float64(g.NumNodes()), float64(g.NumEdges())
	runtime.KeepAlive(g)
	t.Logf("%d nodes, %d edges: %.0f B live, %.1f B per node, %.1f per edge", g.NumNodes(), g.NumEdges(), b, b/n, b/m)
	if b/n > 110 || b/m > 86 {
		t.Fatalf("the graph holds %.1f B per node and %.1f per edge, ceilings 110 and 86", b/n, b/m)
	}
}
