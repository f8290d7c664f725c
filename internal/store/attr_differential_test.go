package store

// Attribute-storage differential suite. The columnar []attrPair node layout
// replaced per-node attribute maps; these tests pin its two observable
// contracts across 27 seeded fuzz workloads:
//
//  1. Detection is layout-independent: Dect over the columnar graph and
//     over a map-backed reference view (attribute tuples copied into
//     map[NodeID]map[AttrID]Value) produce identical violation sets.
//  2. Snapshot bytes are canonical: rebuilding the same graph with
//     shuffled attribute- and edge-insertion orders encodes to the exact
//     same snapshot byte stream, because the columnar representation sorts
//     tuples by AttrID and adjacency by (Label, To) regardless of arrival
//     order.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ngd/internal/detect"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/ref"
)

// attrTable is the suite's 27 rows: every profile at two sizes and three
// seeds, plus three wide-rule-set variants. They are smaller than the
// differential table's and named by size, so they stay a table of their own.
func attrTable() []gen.Workload {
	var ws []gen.Workload
	for _, p := range []gen.Profile{gen.DBpedia, gen.YAGO2, gen.Pokec, gen.Synthetic} {
		for _, n := range []int{80, 150} {
			for _, seed := range []int64{1, 2, 3} {
				ws = append(ws, gen.Workload{Profile: p, Entities: n, Rules: 8, Seed: seed})
			}
		}
	}
	return append(ws,
		gen.Workload{Profile: gen.YAGO2, Entities: 120, Rules: 16, Seed: 4},
		gen.Workload{Profile: gen.DBpedia, Entities: 120, Rules: 16, Seed: 5},
		gen.Workload{Profile: gen.Synthetic, Entities: 120, Rules: 16, Seed: 6},
	)
}

// mapRefView is the map-backed reference: it delegates structure to the
// columnar graph but answers every attribute lookup from plain Go maps, the
// representation the columnar layout replaced. It deliberately does not
// implement graph.AttrIndexed, so plans fall back to label scans.
type mapRefView struct {
	g     *graph.Graph
	attrs map[graph.NodeID]map[graph.AttrID]graph.Value
}

func newMapRef(g *graph.Graph) *mapRefView {
	r := &mapRefView{g: g, attrs: make(map[graph.NodeID]map[graph.AttrID]graph.Value, g.NumNodes())}
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		g.Attrs(id, func(a graph.AttrID, val graph.Value) {
			m := r.attrs[id]
			if m == nil {
				m = make(map[graph.AttrID]graph.Value, 4)
				r.attrs[id] = m
			}
			m[a] = val
		})
	}
	return r
}

func (r *mapRefView) Symbols() *graph.Symbols { return r.g.Symbols() }
func (r *mapRefView) NumNodes() int           { return r.g.NumNodes() }
func (r *mapRefView) NumEdges() int           { return r.g.NumEdges() }

func (r *mapRefView) Label(v graph.NodeID) graph.LabelID { return r.g.Label(v) }

func (r *mapRefView) Attr(v graph.NodeID, a graph.AttrID) graph.Value { return r.attrs[v][a] }

func (r *mapRefView) Out(v graph.NodeID) []graph.Half { return r.g.Out(v) }
func (r *mapRefView) In(v graph.NodeID) []graph.Half  { return r.g.In(v) }

func (r *mapRefView) HasEdgeL(u, v graph.NodeID, l graph.LabelID) bool { return r.g.HasEdgeL(u, v, l) }

func (r *mapRefView) NodesWithLabel(l graph.LabelID) []graph.NodeID { return r.g.NodesWithLabel(l) }
func (r *mapRefView) CountLabel(l graph.LabelID) int                { return r.g.CountLabel(l) }

var _ graph.View = (*mapRefView)(nil)

// shuffledRebuild reconstructs g node-by-node on a cloned symbol table,
// inserting each node's attributes and the edge list in random order.
func shuffledRebuild(g *graph.Graph, rnd *rand.Rand) *graph.Graph {
	ng := graph.NewWithSymbols(g.Symbols().Clone())
	type attr struct {
		id  graph.AttrID
		val graph.Value
	}
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if got := ng.AddNodeL(g.Label(id)); got != id {
			panic("node id drift during rebuild")
		}
		var as []attr
		g.Attrs(id, func(a graph.AttrID, val graph.Value) { as = append(as, attr{a, val}) })
		rnd.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
		for _, a := range as {
			ng.SetAttrA(id, a.id, a.val)
		}
	}
	type edge struct {
		u, v graph.NodeID
		l    graph.LabelID
	}
	var es []edge
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		for _, h := range g.Out(id) {
			es = append(es, edge{id, h.To, h.Label})
		}
	}
	rnd.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	for _, e := range es {
		ng.AddEdgeL(e.u, e.v, e.l)
	}
	return ng
}

func snapshotBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeImage(&buf, &snapshotData{G: g}); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	return buf.Bytes()
}

func TestAttrStorageDifferential(t *testing.T) {
	for i, w := range attrTable() {
		t.Run(fmt.Sprintf("%s/n%d/seed%d", w.Profile.Name, w.Entities, w.Seed), func(t *testing.T) {
			t.Parallel()
			ds := w.Dataset()
			rules := w.Sigma()

			// 1. columnar vs map-backed reference: identical violation sets
			want := ref.Keys(detect.Dect(ds.G, rules, detect.Options{}).Violations)
			got := ref.Keys(detect.Dect(newMapRef(ds.G), rules, detect.Options{}).Violations)
			if got != want {
				t.Fatalf("Dect(columnar) != Dect(map reference)\ncolumnar:\n%s\nreference:\n%s", want, got)
			}

			// 2. snapshot bytes are insertion-order canonical
			orig := snapshotBytes(t, ds.G)
			rebuilt := shuffledRebuild(ds.G, rand.New(rand.NewSource(w.Seed*31+int64(i))))
			if !bytes.Equal(orig, snapshotBytes(t, rebuilt)) {
				t.Fatal("snapshot bytes depend on attribute/edge insertion order")
			}
		})
	}
}
