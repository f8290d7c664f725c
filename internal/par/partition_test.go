package par

import (
	"testing"

	"ngd/internal/gen"
	"ngd/internal/graph"
)

// hashPartition is the stateless baseline greedy is measured against:
// nodes round-robin by id.
func hashPartition(g *graph.Graph, p int) *partition {
	pt := newPartition(p, g.NumNodes())
	for v := range pt.frag {
		f := v % pt.p
		pt.frag[v] = int32(f)
		pt.load[f]++
	}
	return pt
}

// crossingEdges counts edges whose endpoints are in different fragments
// (the edge-cut objective). Unplaced nodes count at their owner fallback.
func (pt *partition) crossingEdges(g *graph.Graph) int {
	cut := 0
	for v := 0; v < g.NumNodes(); v++ {
		fv := pt.owner(graph.NodeID(v))
		for _, h := range g.Out(graph.NodeID(v)) {
			if fv != pt.owner(h.To) {
				cut++
			}
		}
	}
	return cut
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

func TestHashCoversAllNodes(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 200, 1)
	pt := hashPartition(ds.G, 8)
	if total := sum(pt.load); total != ds.G.NumNodes() {
		t.Fatalf("loads sum %d != |V| %d", total, ds.G.NumNodes())
	}
	// hash is near-perfectly balanced
	for i, l := range pt.load {
		if l < ds.G.NumNodes()/8-1 || l > ds.G.NumNodes()/8+1 {
			t.Errorf("fragment %d load %d not balanced", i, l)
		}
	}
}

func TestGreedyBalancedAndBetterCut(t *testing.T) {
	ds := gen.Generate(gen.Pokec, 500, 2)
	p := 8
	hash := hashPartition(ds.G, p)
	gr := greedy(ds.G, p)

	// every node assigned
	for v, f := range gr.frag {
		if f < 0 || int(f) >= p {
			t.Fatalf("node %d unassigned: %d", v, f)
		}
	}
	// capacity bound: within 10% slack + 1
	capacity := (ds.G.NumNodes()*11)/(10*p) + 1
	for i, l := range gr.load {
		if l > capacity {
			t.Errorf("fragment %d exceeds capacity: %d > %d", i, l, capacity)
		}
	}
	// affinity-driven placement should not cut more than hash does
	hc := hash.crossingEdges(ds.G)
	gc := gr.crossingEdges(ds.G)
	if gc > hc {
		t.Errorf("greedy cut %d worse than hash cut %d", gc, hc)
	}
	t.Logf("edge cut: hash=%d greedy=%d (of %d edges)", hc, gc, ds.G.NumEdges())
}

func TestSingleFragment(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 50, 3)
	if greedy(ds.G, 1).crossingEdges(ds.G) != 0 {
		t.Error("single fragment has crossing edges")
	}
	// degenerate p
	if pt := hashPartition(ds.G, 0); pt.p != 1 {
		t.Error("p=0 should clamp to 1")
	}
}

func TestEmptyGraph(t *testing.T) {
	if pt := greedy(graph.New(), 4); len(pt.frag) != 0 {
		t.Error("empty graph should produce empty partition")
	}
}

// TestManyFragmentsOwnerNonNegative is the regression for the int8
// overflow: with p > 127 the old `int8(v % p)` wrapped negative, so owner
// returned a negative fragment and the seed distribution panicked.
func TestManyFragmentsOwnerNonNegative(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 300, 7)
	p := 130
	for name, pt := range map[string]*partition{
		"hash":   hashPartition(ds.G, p),
		"greedy": greedy(ds.G, p),
	} {
		for v := 0; v < ds.G.NumNodes(); v++ {
			f := pt.owner(graph.NodeID(v))
			if f < 0 || f >= p {
				t.Fatalf("%s: owner(%d) = %d out of [0,%d)", name, v, f, p)
			}
		}
		if total := sum(pt.load); total != ds.G.NumNodes() {
			t.Errorf("%s: loads sum %d != |V| %d", name, total, ds.G.NumNodes())
		}
	}
}

// TestOwnerBoundsSafeForUnplacedNodes: nodes added after the partition was
// built must get a valid fallback owner, not an out-of-range index.
func TestOwnerBoundsSafeForUnplacedNodes(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 100, 4)
	pt := greedy(ds.G, 8)
	placed := len(pt.frag)
	for i := 0; i < 20; i++ {
		ds.G.AddNode("person")
	}
	for v := placed; v < ds.G.NumNodes(); v++ {
		if f := pt.owner(graph.NodeID(v)); f < 0 || f >= 8 {
			t.Fatalf("owner(%d) = %d for unplaced node", v, f)
		}
	}
}
