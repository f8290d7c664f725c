package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// refStats computes the aggregates by definition, one map write per
// half-edge and total: the reference for both the first build and the
// incrementally maintained figures.
func refStats(g *Graph) *LiveStats {
	st := &LiveStats{
		outRuns: make(map[degKey]int),
		inRuns:  make(map[degKey]int),
		outTot:  make(map[LabelID]int),
		inTot:   make(map[LabelID]int),
	}
	for v := range NodeID(g.n) {
		l := g.Label(v)
		for _, h := range g.Out(v) {
			st.outRuns[degKey{l, h.Label}]++
			st.outTot[h.Label]++
		}
		for _, h := range g.In(v) {
			st.inRuns[degKey{l, h.Label}]++
			st.inTot[h.Label]++
		}
	}
	return st
}

// sameMap fails unless got and want hold the same keys with the same counts.
func sameMap[K comparable](t *testing.T, name string, got, want map[K]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, reference %d", name, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s[%v] = %d, reference %d", name, k, got[k], v)
		}
	}
}

func sameAggregates(t *testing.T, live, ref *LiveStats) {
	t.Helper()
	sameMap(t, "outRuns", live.outRuns, ref.outRuns)
	sameMap(t, "inRuns", live.inRuns, ref.inRuns)
	sameMap(t, "outTot", live.outTot, ref.outTot)
	sameMap(t, "inTot", live.inTot, ref.inTot)
}

// TestLiveStatsFirstBuild holds the first build, which counts per node-label
// bucket, to the per-half-edge reference on random graphs with self-loops,
// isolated nodes, a label interned but carried by nothing, and labels that
// name nodes and edges alike.
func TestLiveStatsFirstBuild(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		syms := g.Symbols()
		var labels []LabelID
		for i := range 2 + rng.Intn(6) {
			labels = append(labels, syms.Label(fmt.Sprint("l", i)))
		}
		syms.Label("unused")
		// labels[0] names nodes and edges; the others name either or both
		nodeLabels := labels[:1+rng.Intn(len(labels)-1)]
		edgeLabels := append([]LabelID{labels[0]}, labels[1+rng.Intn(len(labels)-1):]...)
		n := 1 + rng.Intn(60)
		for range n {
			g.AddNodeL(nodeLabels[rng.Intn(len(nodeLabels))])
		}
		g.AddNodeL(nodeLabels[0]) // isolated: no edge reaches it
		for range rng.Intn(4 * n) {
			u := NodeID(rng.Intn(n))
			v := u // a self-loop one time in five
			if rng.Intn(5) > 0 {
				v = NodeID(rng.Intn(n))
			}
			g.AddEdgeL(u, v, edgeLabels[rng.Intn(len(edgeLabels))])
		}
		sameAggregates(t, g.LiveStats(), refStats(g))
		// and on a copy built from scratch, whose stats are a first build too
		sameAggregates(t, Rebuilt(g).LiveStats(), refStats(g))
	}
}

func TestLiveStatsMaintained(t *testing.T) {
	g := New()
	person := g.Symbols().Label("person")
	city := g.Symbols().Label("city")
	lives := g.Symbols().Label("lives")
	knows := g.Symbols().Label("knows")

	var people, cities []NodeID
	for i := 0; i < 6; i++ {
		people = append(people, g.AddNodeL(person))
	}
	for i := 0; i < 2; i++ {
		cities = append(cities, g.AddNodeL(city))
	}
	for i, p := range people {
		g.AddEdgeL(p, cities[i%2], lives)
	}

	st := g.LiveStats() // built here, maintained from now on
	churn0 := st.Churn()

	// post-build churn: new node, new edges, a deletion, attribute writes
	np := g.AddNodeL(person)
	g.AddEdgeL(np, cities[0], lives)
	g.AddEdgeL(people[0], people[1], knows)
	g.AddEdgeL(people[1], people[2], knows)
	g.DeleteEdgeL(people[0], cities[0], lives)
	g.SetAttr(people[0], "age", Int(30))

	if st.Churn() == churn0 {
		t.Fatal("churn counter did not advance under mutation")
	}
	sameAggregates(t, st, refStats(g))

	if fan := st.OutFan(g, person, lives); fan <= 0 || fan > 1 {
		t.Fatalf("OutFan(person, lives) = %v, want in (0, 1]", fan)
	}
	if fan := st.InFan(g, city, lives); fan < 3 { // 6 lives edges over 2 cities
		t.Fatalf("InFan(city, lives) = %v, want >= 3", fan)
	}
	// wildcard: global mean over all nodes
	if fan := st.OutFan(g, Wildcard, knows); fan <= 0 {
		t.Fatalf("OutFan(_, knows) = %v, want > 0", fan)
	}
	if st.OutFan(g, person, NoLabel) != 0 {
		t.Fatal("OutFan with NoLabel edge must be 0")
	}
	if st.HalfEdges(person, knows, true) != 2 {
		t.Fatalf("HalfEdges(person, knows, out) = %d, want 2", st.HalfEdges(person, knows, true))
	}
}

func TestLiveStatsApplyAndClone(t *testing.T) {
	g := New()
	a := g.Symbols().Label("a")
	rel := g.Symbols().Label("rel")
	var ns []NodeID
	for i := 0; i < 8; i++ {
		ns = append(ns, g.AddNodeL(a))
	}
	for i := 0; i < 7; i++ {
		g.AddEdgeL(ns[i], ns[i+1], rel)
	}
	st := g.LiveStats()

	d := &Delta{}
	d.Insert(ns[7], ns[0], rel)
	d.Delete(ns[0], ns[1], rel)
	d.Insert(ns[0], ns[1], rel) // net no-op pair after normalize? applied in order: delete then re-insert
	g.Apply(d)
	sameAggregates(t, st, refStats(g))

	c := g.Clone()
	cs := c.LiveStats()
	sameAggregates(t, cs, refStats(c))
	// mutating the clone must not move the original's aggregates
	before := st.HalfEdges(a, rel, true)
	c.DeleteEdgeL(ns[7], ns[0], rel)
	if st.HalfEdges(a, rel, true) != before {
		t.Fatal("clone mutation leaked into the original's stats")
	}
}
