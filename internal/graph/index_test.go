package graph

import (
	"math"
	"testing"
)

// buildIndexed returns a small graph of "T"-labeled nodes with val set from
// vals (invalid values mean "no attribute"), plus the built index.
func buildIndexed(t *testing.T, vals []Value) (*Graph, *AttrIndex, LabelID, AttrID) {
	t.Helper()
	g := New()
	l := g.Symbols().Label("T")
	a := g.Symbols().Attr("val")
	for _, v := range vals {
		n := g.AddNodeL(l)
		if v.Valid() {
			g.SetAttrA(n, a, v)
		}
	}
	ix := g.EnsureAttrIndex(l, a)
	if ix == nil {
		t.Fatal("EnsureAttrIndex returned nil")
	}
	return g, ix, l, a
}

func runNodes(r IndexRun) []NodeID {
	out := make([]NodeID, 0, r.Len())
	for i := 0; i < r.Len(); i++ {
		out = append(out, r.At(i))
	}
	return out
}

// bruteInts scans the graph for label-l nodes whose val has integer key in
// [lo, hi].
func bruteInts(g *Graph, l LabelID, a AttrID, lo, hi int64) map[NodeID]bool {
	want := make(map[NodeID]bool)
	for _, v := range g.NodesWithLabel(l) {
		if k, ok := g.Attr(v, a).AsInt(); ok && k >= lo && k <= hi {
			want[v] = true
		}
	}
	return want
}

func sameSet(t *testing.T, got []NodeID, want map[NodeID]bool, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d nodes %v, want %d", what, len(got), got, len(want))
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("%s: unexpected node %d", what, v)
		}
	}
}

func TestAttrIndexLookupAndRange(t *testing.T) {
	vals := []Value{
		Int(5), Int(3), Int(5), Int(5), Bool(true), Int(-2),
		Str("x"), Str("y"), Str("x"), {}, {}, Int(1),
	}
	g, ix, l, a := buildIndexed(t, vals)

	// equality: the three Int(5) share a key
	sameSet(t, runNodes(ix.Ints(5)), bruteInts(g, l, a, 5, 5), "Ints(5)")
	// bools index as 0/1
	sameSet(t, runNodes(ix.Ints(1)), bruteInts(g, l, a, 1, 1), "Ints(1)")
	// strings
	if got := runNodes(ix.Strs("x")); len(got) != 2 {
		t.Fatalf("Strs(x): got %v", got)
	}
	if got := runNodes(ix.Strs("missing")); len(got) != 0 {
		t.Fatalf("Strs(missing): got %v", got)
	}
	// ranges, including full and empty
	for _, r := range [][2]int64{{-2, 3}, {0, 5}, {6, 100}, {math.MinInt64, math.MaxInt64}} {
		sameSet(t, runNodes(ix.IntRange(r[0], r[1])), bruteInts(g, l, a, r[0], r[1]),
			"IntRange")
	}
	if ix.IntRange(3, 2).Len() != 0 {
		t.Fatal("inverted range should be empty")
	}
	// absent attributes are not indexed
	if n := ix.Len(); n != len(vals)-2 {
		t.Fatalf("index Len = %d, want %d", n, len(vals)-2)
	}
}

func TestSetAttrKeepsIndexInSync(t *testing.T) {
	g, ix, l, a := buildIndexed(t, []Value{Int(1), Int(2), Int(3)})

	// move node 1 from key 2 to key 7
	g.SetAttrA(1, a, Int(7))
	sameSet(t, runNodes(ix.Ints(2)), map[NodeID]bool{}, "Ints(2) after move")
	sameSet(t, runNodes(ix.Ints(7)), map[NodeID]bool{1: true}, "Ints(7) after move")
	sameSet(t, runNodes(ix.IntRange(1, 10)), bruteInts(g, l, a, 1, 10), "range after move")

	// switching type: int -> string, then string -> absent
	g.SetAttrA(0, a, Str("s"))
	if got := runNodes(ix.Ints(1)); len(got) != 0 {
		t.Fatalf("Ints(1) after retype: %v", got)
	}
	sameSet(t, runNodes(ix.Strs("s")), map[NodeID]bool{0: true}, "Strs(s)")
	g.SetAttrA(0, a, Value{})
	if got := runNodes(ix.Strs("s")); len(got) != 0 {
		t.Fatalf("Strs(s) after dropping the value: %v", got)
	}

	// a node added after the index was built enters it via SetAttr
	n := g.AddNodeL(l)
	g.SetAttrA(n, a, Int(3))
	sameSet(t, runNodes(ix.Ints(3)), map[NodeID]bool{2: true, n: true}, "Ints(3) after add")
}

func TestEnsureAttrIndexIdempotentAndScoped(t *testing.T) {
	g, ix, l, a := buildIndexed(t, []Value{Int(1)})
	if g.EnsureAttrIndex(l, a) != ix {
		t.Fatal("EnsureAttrIndex rebuilt an existing index")
	}
	if g.AttrIndexFor(l, a) != ix {
		t.Fatal("AttrIndexFor does not return the built index")
	}
	if g.EnsureAttrIndex(Wildcard, a) != nil {
		t.Fatal("wildcard label must not be indexable")
	}
	other := g.Symbols().Label("U")
	if g.AttrIndexFor(other, a) != nil {
		t.Fatal("AttrIndexFor must not build")
	}
	// an index over a label with no nodes is empty but valid
	if ux := g.EnsureAttrIndex(other, a); ux == nil || ux.Len() != 0 {
		t.Fatal("empty-label index should exist and be empty")
	}
}

// TestForkInheritsAttrIndex: a fork serves its parent's attribute index
// without a rebuild, and edge ops, which no attribute index reads, leave it
// shared.
func TestForkInheritsAttrIndex(t *testing.T) {
	g, ix, l, a := buildIndexed(t, []Value{Int(1), Int(2)})
	f := g.Clone()
	defer f.Release()
	d := &Delta{}
	d.Insert(0, 1, g.Symbols().Label("e"))
	f.Apply(d)
	if f.AttrIndexFor(l, a) != ix || f.EnsureAttrIndex(l, a) != ix {
		t.Fatal("a fork must serve its parent's index")
	}
}

// TestCloneSharesIndexesUntilWritten holds the copy rule in both
// directions. A clone holds its parent's indexes and statistics, and a
// write on it copies what it changes and leaves the parent's as they were.
// A parent's write while a clone holds them copies too: the clone is a
// checkpoint's fork, read and released on another goroutine while the
// writer goes on, so run it under -race.
func TestCloneSharesIndexesUntilWritten(t *testing.T) {
	g, ix, l, a := buildIndexed(t, []Value{Int(1), Int(2), Str("s"), Int(4), {}})
	e := g.Symbols().Label("e")
	for v := range NodeID(4) {
		g.AddEdgeL(v, v+1, e)
	}
	eix := g.EnsureEdgeValIndex(e, a, false)
	st := g.LiveStats()

	c := g.Clone()
	if c.AttrIndexFor(l, a) != ix || c.EdgeValIndexFor(e, a, false) != eix || c.LiveStats() != st {
		t.Fatal("a clone must hold its parent's indexes and statistics")
	}
	before := IndexState(g)
	c.SetAttrA(1, a, Int(9))
	c.DeleteEdgeL(0, 1, e)
	c.AddEdgeL(4, 0, e)
	if IndexState(g) != before {
		t.Fatal("a write on the clone reached the parent's indexes or statistics")
	}
	if IndexState(c) != FreshIndexState(c) {
		t.Fatalf("the clone's copies are not exact:\n%s\nfresh:\n%s", IndexState(c), FreshIndexState(c))
	}
	c.Release()

	fork := g.Clone()
	want := IndexState(fork)
	written, done := make(chan struct{}), make(chan struct{})
	var got, fresh string
	go func() {
		defer close(done)
		<-written
		got, fresh = IndexState(fork), FreshIndexState(fork)
		fork.Release()
	}()
	g.SetAttrA(0, a, Int(7))
	g.AddEdgeL(0, 2, e)
	g.DeleteEdgeL(2, 3, e)
	close(written)
	g.SetAttrA(2, a, Int(3)) // beside the release: a copy or in place
	g.AddEdgeL(1, 3, e)
	<-done
	if got != want || fresh != want {
		t.Fatalf("the writer's updates reached the held fork:\n%s\nwant:\n%s", got, want)
	}
	if IndexState(g) != FreshIndexState(g) {
		t.Fatalf("the parent's indexes are not exact:\n%s\nfresh:\n%s", IndexState(g), FreshIndexState(g))
	}
}
