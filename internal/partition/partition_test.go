package partition

import (
	"testing"

	"ngd/internal/gen"
	"ngd/internal/graph"
)

func TestHashCoversAllNodes(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 200, 1)
	pt := Hash(ds.G, 8)
	loads := pt.Loads()
	total := 0
	for _, l := range loads {
		total += l
	}
	if total != ds.G.NumNodes() {
		t.Fatalf("loads sum %d != |V| %d", total, ds.G.NumNodes())
	}
	// hash is near-perfectly balanced
	for i, l := range loads {
		if l < ds.G.NumNodes()/8-1 || l > ds.G.NumNodes()/8+1 {
			t.Errorf("fragment %d load %d not balanced", i, l)
		}
	}
}

func TestGreedyBalancedAndBetterCut(t *testing.T) {
	ds := gen.Generate(gen.Pokec, 500, 2)
	p := 8
	hash := Hash(ds.G, p)
	greedy := Greedy(ds.G, p)

	// every node assigned
	for v, f := range greedy.Frag {
		if f < 0 || int(f) >= p {
			t.Fatalf("node %d unassigned: %d", v, f)
		}
	}
	// capacity bound: within 10% slack + 1
	capacity := (ds.G.NumNodes()*11)/(10*p) + 1
	for i, l := range greedy.Loads() {
		if l > capacity {
			t.Errorf("fragment %d exceeds capacity: %d > %d", i, l, capacity)
		}
	}
	// affinity-driven placement should not cut more than hash does
	hc := hash.CrossingEdges(ds.G)
	gc := greedy.CrossingEdges(ds.G)
	if gc > hc {
		t.Errorf("greedy cut %d worse than hash cut %d", gc, hc)
	}
	t.Logf("edge cut: hash=%d greedy=%d (of %d edges)", hc, gc, ds.G.NumEdges())
}

func TestSingleFragment(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 50, 3)
	pt := Greedy(ds.G, 1)
	if pt.CrossingEdges(ds.G) != 0 {
		t.Error("single fragment has crossing edges")
	}
	// degenerate p
	pt = Hash(ds.G, 0)
	if pt.P != 1 {
		t.Error("p=0 should clamp to 1")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New()
	pt := Greedy(g, 4)
	if len(pt.Frag) != 0 {
		t.Error("empty graph should produce empty partition")
	}
}

// TestManyFragmentsOwnerNonNegative is the regression for the int8
// overflow: with P > 127 the old `int8(v % p)` wrapped negative, so Owner
// returned a negative fragment and the seed distribution panicked.
func TestManyFragmentsOwnerNonNegative(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 300, 7)
	p := 130
	for name, pt := range map[string]*Partition{
		"hash":   Hash(ds.G, p),
		"greedy": Greedy(ds.G, p),
	} {
		for v := 0; v < ds.G.NumNodes(); v++ {
			f := pt.Owner(graph.NodeID(v))
			if f < 0 || f >= p {
				t.Fatalf("%s: Owner(%d) = %d out of [0,%d)", name, v, f, p)
			}
		}
		total := 0
		for _, l := range pt.Loads() {
			total += l
		}
		if total != ds.G.NumNodes() {
			t.Errorf("%s: loads sum %d != |V| %d", name, total, ds.G.NumNodes())
		}
	}
}

// TestOwnerBoundsSafeForUnplacedNodes: nodes added after the partition was
// built must get a valid fallback owner, not an out-of-range index.
func TestOwnerBoundsSafeForUnplacedNodes(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 100, 4)
	pt := Greedy(ds.G, 8)
	placed := len(pt.Frag)
	for i := 0; i < 20; i++ {
		ds.G.AddNode("person")
	}
	for v := placed; v < ds.G.NumNodes(); v++ {
		f := pt.Owner(graph.NodeID(v))
		if f < 0 || f >= 8 {
			t.Fatalf("Owner(%d) = %d for unplaced node", v, f)
		}
	}
}
