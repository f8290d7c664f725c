package graph_test

// The one-at-a-time mutators are the specification of bulk construction:
// whatever a Builder lays out must equal, element for element, the graph
// the same calls build through AddNodeL / SetAttrA / AddEdgeL, and must
// keep equalling it under later updates. The byte-level half of this
// oracle (writeSnapshot output) lives in internal/store.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ngd/internal/gen"
	"ngd/internal/graph"
)

type attrCall struct {
	a   graph.AttrID
	val graph.Value
}

type nodeCall struct {
	label graph.LabelID
	attrs []attrCall // in call order; an attribute may repeat, last wins
}

type edgeCall struct {
	u, v graph.NodeID
	l    graph.LabelID
}

// recipe is a sequence of construction calls, replayable either way.
type recipe struct {
	syms  *graph.Symbols
	nodes []nodeCall
	edges []edgeCall // any order, duplicates and self-loops allowed
}

func (r recipe) viaBuilder() *graph.Graph {
	b := graph.NewBuilder(r.syms.Clone())
	for _, n := range r.nodes {
		b.AddNodeL(n.label)
		for _, c := range n.attrs {
			b.SetAttrA(c.a, c.val)
		}
	}
	for _, e := range r.edges {
		b.AddEdgeL(e.u, e.v, e.l)
	}
	return b.Build()
}

func (r recipe) viaMutators() *graph.Graph {
	g := graph.NewWithSymbols(r.syms.Clone())
	for _, n := range r.nodes {
		v := g.AddNodeL(n.label)
		for _, c := range n.attrs {
			g.SetAttrA(v, c.a, c.val)
		}
	}
	for _, e := range r.edges {
		g.AddEdgeL(e.u, e.v, e.l)
	}
	return g
}

// scrambled turns g into a recipe that reaches it the hard way: attributes
// in random order behind a stale first write, edges shuffled with one in
// eight repeated.
func scrambled(g *graph.Graph, rnd *rand.Rand) recipe {
	r := recipe{syms: g.Symbols()}
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		n := nodeCall{label: g.Label(id)}
		g.Attrs(id, func(a graph.AttrID, val graph.Value) { n.attrs = append(n.attrs, attrCall{a, val}) })
		rnd.Shuffle(len(n.attrs), func(i, j int) { n.attrs[i], n.attrs[j] = n.attrs[j], n.attrs[i] })
		if len(n.attrs) > 0 {
			n.attrs = append([]attrCall{{n.attrs[len(n.attrs)-1].a, graph.Str("stale")}}, n.attrs...)
		}
		r.nodes = append(r.nodes, n)
		for _, h := range g.Out(id) {
			r.edges = append(r.edges, edgeCall{id, h.To, h.Label})
			if rnd.Intn(8) == 0 {
				r.edges = append(r.edges, edgeCall{id, h.To, h.Label})
			}
		}
	}
	rnd.Shuffle(len(r.edges), func(i, j int) { r.edges[i], r.edges[j] = r.edges[j], r.edges[i] })
	return r
}

// hostile is the hand-made corner list: shuffled and duplicate edges,
// self-loops, an attribute-less node between two that carry tuples,
// repeated attributes, an isolated node, and a label ("late") that no node
// carries and an edge uses first.
func hostile() recipe {
	s := graph.NewSymbols()
	person, place := s.Label("person"), s.Label("place")
	knows, late := s.Label("knows"), s.Label("late")
	age, name, zip := s.Attr("age"), s.Attr("name"), s.Attr("zip")
	return recipe{
		syms: s,
		nodes: []nodeCall{
			{label: person, attrs: []attrCall{{zip, graph.Int(1)}, {age, graph.Int(1)}, {age, graph.Int(2)}, {name, graph.Str("a")}}},
			{label: place},
			{label: person, attrs: []attrCall{{name, graph.Str("c")}, {name, graph.Str("c2")}}},
			{label: place, attrs: []attrCall{{zip, graph.Bool(true)}}},
			{label: person},
		},
		edges: []edgeCall{
			{2, 0, late}, {0, 2, knows}, {0, 0, knows}, {2, 0, knows}, {0, 2, knows},
			{3, 0, late}, {0, 1, late}, {0, 1, knows}, {3, 3, late}, {2, 0, late}, {1, 0, knows},
		},
	}
}

// manyTuples crosses the Builder's attribute-chunk boundary many times:
// 7-attribute tuples do not divide the chunk size, so open tuples straddle
// the boundary and must move, and one tuple is wider than a whole chunk.
func manyTuples() recipe {
	s := graph.NewSymbols()
	r := recipe{syms: s}
	l := s.Label("n")
	wide := make([]graph.AttrID, 9000)
	for i := range wide {
		wide[i] = s.Attr(fmt.Sprint("a", i))
	}
	for v := 0; v < 1500; v++ {
		n := nodeCall{label: l}
		for _, a := range wide[:7] {
			n.attrs = append(n.attrs, attrCall{wide[6] - a, graph.Int(int64(v)*10 + int64(a))})
		}
		r.nodes = append(r.nodes, n)
	}
	n := nodeCall{label: l}
	for i := len(wide) - 1; i >= 0; i -= 2 { // descending: every insert shifts the tuple
		n.attrs = append(n.attrs, attrCall{wide[i], graph.Int(int64(i))})
	}
	r.nodes = append(r.nodes, n, nodeCall{label: l, attrs: []attrCall{{wide[3], graph.Str("after")}}})
	return r
}

// chunkBoundary crosses the Builder's staging chunks (4,096 nodes or edges
// each, as many pairs as an attribute slab chunk) with a tuple open across
// each node-chunk boundary: nodes before it carry one pair each, so the
// last node of the first chunk starts its tuple in the slab's last slot and
// its second write moves the tuple to a fresh slab chunk; the first node of
// the third chunk does the same and repeats an attribute after the move.
// Every node has an out-edge to the next, so the edges span three chunks.
func chunkBoundary() recipe {
	const chunk = 4096
	s := graph.NewSymbols()
	r := recipe{syms: s}
	l, e := s.Label("n"), s.Label("e")
	a, b, c := s.Attr("a"), s.Attr("b"), s.Attr("c")
	abc := []graph.AttrID{a, b, c}
	wide := []attrCall{{c, graph.Int(3)}, {b, graph.Int(2)}, {a, graph.Int(1)}} // each write shifts the tuple
	n := 2*chunk + 2
	for v := range n {
		nc := nodeCall{label: l}
		switch {
		case v == chunk-1:
			nc.attrs = wide
		case v == 2*chunk:
			nc.attrs = append(slices.Clone(wide), attrCall{b, graph.Str("again")})
		case v >= chunk && v < chunk+4:
			// four bare nodes, so that node 2·chunk starts in the last slot too
		default:
			nc.attrs = []attrCall{{abc[v%3], graph.Int(int64(v))}}
		}
		r.nodes = append(r.nodes, nc)
		r.edges = append(r.edges, edgeCall{graph.NodeID(v), graph.NodeID((v + 1) % n), e})
		if v%1000 == 0 {
			r.edges = append(r.edges, edgeCall{graph.NodeID(v), graph.NodeID(v), e}, edgeCall{graph.NodeID(n - 1 - v), graph.NodeID(v), e})
		}
	}
	return r
}

// sameGraph compares everything a matcher, the planner or the snapshot codec
// can observe.
func sameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("|V|, |E| = %d, %d, want %d, %d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	tuple := func(g *graph.Graph, v graph.NodeID) (as []attrCall) {
		g.Attrs(v, func(a graph.AttrID, val graph.Value) { as = append(as, attrCall{a, val}) })
		return as
	}
	for i := 0; i < want.NumNodes(); i++ {
		v := graph.NodeID(i)
		if got.Label(v) != want.Label(v) {
			t.Fatalf("node %d: label %d, want %d", v, got.Label(v), want.Label(v))
		}
		if g, w := tuple(got, v), tuple(want, v); !slices.Equal(g, w) {
			t.Fatalf("node %d: attributes %v, want %v", v, g, w)
		}
		if !slices.Equal(got.Out(v), want.Out(v)) {
			t.Fatalf("node %d: out %v, want %v", v, got.Out(v), want.Out(v))
		}
		if !slices.Equal(got.In(v), want.In(v)) {
			t.Fatalf("node %d: in %v, want %v", v, got.In(v), want.In(v))
		}
	}
	gs, ws := got.LiveStats(), want.LiveStats()
	nl := graph.LabelID(want.Symbols().NumLabels())
	for l := graph.LabelID(0); l < nl; l++ {
		if !slices.Equal(got.NodesWithLabel(l), want.NodesWithLabel(l)) {
			t.Fatalf("NodesWithLabel(%d) = %v, want %v", l, got.NodesWithLabel(l), want.NodesWithLabel(l))
		}
		for el := graph.LabelID(0); el < nl; el++ {
			for _, out := range []bool{true, false} {
				if g, w := gs.HalfEdges(l, el, out), ws.HalfEdges(l, el, out); g != w {
					t.Fatalf("HalfEdges(%d, %d, %v) = %d, want %d", l, el, out, g, w)
				}
			}
			if g, w := gs.OutFan(got, l, el), ws.OutFan(want, l, el); g != w {
				t.Fatalf("OutFan(%d, %d) = %v, want %v", l, el, g, w)
			}
			if g, w := gs.InFan(got, l, el), ws.InFan(want, l, el); g != w {
				t.Fatalf("InFan(%d, %d) = %v, want %v", l, el, g, w)
			}
		}
	}
}

// churn applies one random update to both graphs: a ΔG of deletions of
// existing edges, re-insertions of them and fresh edges, then a node arrival
// with an attribute and an attribute overwrite — every mutator a built graph
// must keep supporting in place.
func churn(rnd *rand.Rand, gs ...*graph.Graph) {
	g := gs[0]
	n := g.NumNodes()
	nl := g.Symbols().NumLabels()
	d := &graph.Delta{}
	for i := 0; i < 3*n; i++ {
		u := graph.NodeID(rnd.Intn(n))
		if out := g.Out(u); len(out) > 0 && rnd.Intn(2) == 0 {
			h := out[rnd.Intn(len(out))]
			d.Delete(u, h.To, h.Label)
			if rnd.Intn(4) == 0 {
				d.Insert(u, h.To, h.Label)
			}
			continue
		}
		d.Insert(u, graph.NodeID(rnd.Intn(n)), graph.LabelID(1+rnd.Intn(nl-1)))
	}
	v, l := graph.NodeID(rnd.Intn(n)), g.Label(0)
	for _, g := range gs {
		g.Apply(d)
		w := g.AddNodeL(l)
		g.SetAttrA(w, 0, graph.Int(7))
		g.SetAttrA(v, 0, graph.Int(8))
		g.AddEdgeL(w, v, 1)
	}
}

func TestBuilderMatchesMutators(t *testing.T) {
	cases := map[string]recipe{"hostile": hostile(), "empty": {syms: graph.NewSymbols()}, "many-tuples": manyTuples(),
		"chunk-boundary": chunkBoundary()}
	// ≈ 16k nodes and 20k staged edges: several staging chunks of each
	cases["yago2-2000/scrambled"] = scrambled(gen.Generate(gen.YAGO2, 2000, 1).G, rand.New(rand.NewSource(1)))
	for _, p := range []gen.Profile{gen.DBpedia, gen.YAGO2, gen.Pokec, gen.Synthetic} {
		for seed := int64(1); seed <= 2; seed++ {
			g := gen.Generate(p, 120, seed).G
			cases[fmt.Sprintf("%s/seed%d", p.Name, seed)] = scrambled(g, rand.New(rand.NewSource(seed)))
		}
	}
	for name, r := range cases {
		t.Run(name, func(t *testing.T) {
			built, stepped := r.viaBuilder(), r.viaMutators()
			sameGraph(t, built, stepped)
			if built.NumNodes() == 0 {
				return
			}
			// stats are live on both by now, so the update also checks
			// that a built graph maintains them like a stepped one
			churn(rand.New(rand.NewSource(9)), built, stepped)
			sameGraph(t, built, stepped)
		})
	}
}

// TestBuilderHostileByHand spells out what the hostile recipe must yield,
// so the oracle itself is pinned once.
func TestBuilderHostileByHand(t *testing.T) {
	g := hostile().viaBuilder()
	if g.NumEdges() != 9 {
		t.Fatalf("NumEdges = %d, want 9 unique triples", g.NumEdges())
	}
	knows, late := g.Symbols().LookupLabel("knows"), g.Symbols().LookupLabel("late")
	want := []graph.Half{{Label: knows, To: 0}, {Label: knows, To: 1}, {Label: knows, To: 2}, {Label: late, To: 1}}
	if !slices.Equal(g.Out(0), want) {
		t.Errorf("Out(0) = %v, want %v", g.Out(0), want)
	}
	if v := g.AttrByName(0, "age"); !v.Equal(graph.Int(2)) {
		t.Errorf("repeated attribute: age = %s, want the last write 2", v)
	}
	if g.NumAttrs(0) != 3 || g.NumAttrs(1) != 0 || g.NumAttrs(2) != 1 {
		t.Errorf("tuple arities %d, %d, %d, want 3, 0, 1", g.NumAttrs(0), g.NumAttrs(1), g.NumAttrs(2))
	}
	if g.CountLabel(late) != 0 || len(g.In(4))+len(g.Out(4)) != 0 {
		t.Errorf("edge-only label or isolated node grew structure")
	}
}

// TestCloneStaysIndependent: a clone and its original share pages and
// lists until one of them writes, over a Builder's slab layout, where
// neighbouring lists are adjacent in memory: neither side's writes may
// land in the other's lists or in a neighbour's.
func TestCloneStaysIndependent(t *testing.T) {
	for _, side := range []string{"original", "clone"} {
		t.Run("mutate-"+side, func(t *testing.T) {
			r := scrambled(gen.Generate(gen.YAGO2, 120, 3).G, rand.New(rand.NewSource(3)))
			orig := r.viaBuilder()
			clone := orig.Clone()
			frozen, moving := clone, orig
			if side == "clone" {
				frozen, moving = orig, clone
			}
			want := r.viaMutators() // what frozen must still equal afterwards
			stepped := r.viaMutators()
			churn(rand.New(rand.NewSource(5)), moving, stepped)
			for v := 0; v < want.NumNodes(); v++ {
				// every list of every node: AddEdgeL, DeleteEdgeL and
				// SetAttrA directly, on top of the Apply inside churn
				id := graph.NodeID(v)
				for _, g := range []*graph.Graph{moving, stepped} {
					g.AddEdgeL(id, id, 1)
					if out := g.Out(id); len(out) > 1 {
						g.DeleteEdgeL(id, out[0].To, out[0].Label)
					}
					g.SetAttrA(id, graph.AttrID(g.Symbols().NumAttrs()-1), graph.Int(int64(v)))
				}
			}
			sameGraph(t, frozen, want)
			sameGraph(t, moving, stepped)
		})
	}
}

// BenchmarkGraphClone is the checkpoint capture's fork (the store forks
// the writer's graph every 64 commits and releases it once the snapshot is
// written) at bigstore-mixed size.
func BenchmarkGraphClone(b *testing.B) {
	g := gen.Generate(gen.YAGO2, 8000, 1).G
	b.ReportAllocs()
	for b.Loop() {
		g.Clone().Release()
	}
}
