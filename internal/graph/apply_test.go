package graph

import (
	"math"
	"testing"
)

// buildApplyGraph returns a small graph: a hub with spokes plus attributed
// nodes, the fixture for the commit tests.
func buildApplyGraph() (*Graph, []NodeID) {
	g := New()
	var ns []NodeID
	for i := 0; i < 10; i++ {
		ns = append(ns, g.AddNode("T"))
	}
	e := g.Symbols().Label("e")
	for i := 1; i < 10; i++ {
		g.AddEdgeL(ns[0], ns[i], e)
	}
	return g, ns
}

func TestApplyEdgeCountBookkeeping(t *testing.T) {
	g, ns := buildApplyGraph()
	e := g.Symbols().Label("e")
	f := g.Symbols().Label("f")

	d := &Delta{}
	d.Insert(ns[1], ns[2], f) // new
	d.Insert(ns[3], ns[4], f) // new
	d.Delete(ns[0], ns[5], e) // existing
	st := g.Apply(d)

	if st.Inserted != 2 || st.Deleted != 1 || st.NoOps != 0 {
		t.Fatalf("stats = %+v, want 2 inserted, 1 deleted, 0 no-ops", st)
	}
	if got, want := g.NumEdges(), 9+2-1; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	// recount from adjacency to catch bookkeeping drift
	count := 0
	for i := 0; i < g.NumNodes(); i++ {
		count += g.OutDegree(NodeID(i))
	}
	if count != g.NumEdges() {
		t.Fatalf("adjacency holds %d edges, counter says %d", count, g.NumEdges())
	}
	if g.HasEdgeL(ns[0], ns[5], e) {
		t.Fatal("deleted edge still present")
	}
	if !g.HasEdgeL(ns[1], ns[2], f) || !g.HasEdgeL(ns[3], ns[4], f) {
		t.Fatal("inserted edges missing")
	}
}

func TestApplyDoubleOpsAreNoOps(t *testing.T) {
	g, ns := buildApplyGraph()
	e := g.Symbols().Label("e")
	f := g.Symbols().Label("f")

	d := &Delta{}
	d.Insert(ns[1], ns[2], f) // new
	d.Insert(ns[1], ns[2], f) // duplicate insert: no-op
	d.Insert(ns[0], ns[1], e) // already in G: no-op
	d.Delete(ns[0], ns[2], e) // existing
	d.Delete(ns[0], ns[2], e) // double delete: no-op
	d.Delete(ns[5], ns[6], f) // never existed: no-op
	st := g.Apply(d)

	if st.Inserted != 1 || st.Deleted != 1 || st.NoOps != 4 {
		t.Fatalf("stats = %+v, want 1 inserted, 1 deleted, 4 no-ops", st)
	}
	if got, want := g.NumEdges(), 9; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}

	// applying the raw sequence must equal applying its normalized form
	g2, ns2 := buildApplyGraph()
	d2 := &Delta{}
	d2.Insert(ns2[1], ns2[2], f)
	d2.Insert(ns2[1], ns2[2], f)
	d2.Insert(ns2[0], ns2[1], e)
	d2.Delete(ns2[0], ns2[2], e)
	d2.Delete(ns2[0], ns2[2], e)
	d2.Delete(ns2[5], ns2[6], f)
	norm := d2.Normalize(g2)
	if norm.Len() != 2 {
		t.Fatalf("normalized len = %d, want 2", norm.Len())
	}
	g2.Apply(norm)
	for i := 0; i < g.NumNodes(); i++ {
		v, v2 := NodeID(i), NodeID(i)
		out, out2 := g.Out(v), g2.Out(v2)
		if len(out) != len(out2) {
			t.Fatalf("node %d: raw-applied degree %d != normalized-applied %d", i, len(out), len(out2))
		}
		for j := range out {
			if out[j] != out2[j] {
				t.Fatalf("node %d adjacency diverges at %d: %v vs %v", i, j, out[j], out2[j])
			}
		}
	}
}

func TestApplyInsertDeleteAnnihilation(t *testing.T) {
	g, ns := buildApplyGraph()
	f := g.Symbols().Label("f")

	d := &Delta{}
	d.Insert(ns[1], ns[2], f)
	d.Delete(ns[1], ns[2], f) // annihilates within the batch
	norm := d.Normalize(g)
	if norm.Len() != 0 {
		t.Fatalf("normalized len = %d, want 0 (insert+delete annihilation)", norm.Len())
	}
	st := g.Apply(d) // raw sequence: insert then delete, net zero
	if st.Inserted != 1 || st.Deleted != 1 || g.NumEdges() != 9 {
		t.Fatalf("stats = %+v edges = %d, want net-zero commit", st, g.NumEdges())
	}
}

func TestApplyCompaction(t *testing.T) {
	g := New()
	hub := g.AddNode("T")
	e := g.Symbols().Label("e")
	var spokes []NodeID
	for i := 0; i < 64; i++ {
		v := g.AddNode("T")
		spokes = append(spokes, v)
		g.AddEdgeL(hub, v, e)
	}
	d := &Delta{}
	for _, v := range spokes[4:] {
		d.Delete(hub, v, e)
	}
	st := g.Apply(d)
	if st.Deleted != 60 {
		t.Fatalf("deleted %d, want 60", st.Deleted)
	}
	if st.Compacted == 0 {
		t.Fatal("expected the hub's shrunken out-list to be compacted")
	}
	out := g.Out(hub)
	if len(out) != 4 {
		t.Fatalf("hub out-degree = %d, want 4", len(out))
	}
	if cap(out) >= 2*len(out)+8 {
		t.Fatalf("hub out-list still slack: len %d cap %d", len(out), cap(out))
	}
}

// TestApplyIndexConsistency checks the PR-1 attribute indexes survive a
// commit stream without rebuild: after interleaved node arrivals (SetAttrA
// maintenance), attribute rewrites, and Apply batches, every live index
// answers identically to a fresh EnsureAttrIndex build on a copy built
// from scratch.
func TestApplyIndexConsistency(t *testing.T) {
	g := New()
	tLbl := g.Symbols().Label("T")
	e := g.Symbols().Label("e")
	val := g.Symbols().Attr("val")

	var ns []NodeID
	for i := 0; i < 30; i++ {
		v := g.AddNodeL(tLbl)
		g.SetAttrA(v, val, Int(int64(i%7)))
		ns = append(ns, v)
	}
	// build the index up front so maintenance (not rebuild) keeps it live
	ix := g.EnsureAttrIndex(tLbl, val)
	if ix == nil {
		t.Fatal("no index built")
	}

	// stream: commit edges, add nodes, rewrite attributes, commit again
	d1 := &Delta{}
	for i := 0; i < 29; i++ {
		d1.Insert(ns[i], ns[i+1], e)
	}
	g.Apply(d1)
	for i := 30; i < 40; i++ {
		v := g.AddNodeL(tLbl)
		g.SetAttrA(v, val, Int(int64(i%5)))
		ns = append(ns, v)
	}
	g.SetAttrA(ns[3], val, Int(100))
	g.SetAttrA(ns[4], val, Str("s"))
	d2 := &Delta{}
	for i := 30; i < 40; i++ {
		d2.Insert(ns[0], ns[i], e)
		d2.Delete(ns[i-30], ns[i-29], e)
	}
	g.Apply(d2)

	// the live index must match a from-scratch rebuild
	fresh := Rebuilt(g).EnsureAttrIndex(tLbl, val)
	if ix2 := g.AttrIndexFor(tLbl, val); ix2 != ix {
		t.Fatal("index identity changed (rebuilt instead of maintained)")
	}
	if ix.Len() != fresh.Len() {
		t.Fatalf("maintained index Len %d != fresh rebuild %d", ix.Len(), fresh.Len())
	}
	a := ix.IntRange(math.MinInt64, math.MaxInt64)
	b := fresh.IntRange(math.MinInt64, math.MaxInt64)
	if a.Len() != b.Len() {
		t.Fatalf("int entries %d != %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("int index diverges at %d: %d vs %d", i, a.At(i), b.At(i))
		}
	}
	sa, sb := ix.Strs("s"), fresh.Strs("s")
	if sa.Len() != 1 || sb.Len() != 1 || sa.At(0) != sb.At(0) {
		t.Fatalf("string postings diverge: %d vs %d", sa.Len(), sb.Len())
	}
}
