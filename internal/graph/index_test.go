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

func TestOverlayDelegatesAttrIndex(t *testing.T) {
	g, ix, l, a := buildIndexed(t, []Value{Int(1), Int(2)})
	d := &Delta{}
	d.Insert(0, 1, g.Symbols().Label("e"))
	o := NewOverlay(g, d)
	if o.AttrIndexFor(l, a) != ix {
		t.Fatal("overlay must delegate AttrIndexFor to its base")
	}
	if o.EnsureAttrIndex(l, a) != ix {
		t.Fatal("overlay must delegate EnsureAttrIndex to its base")
	}
}

func TestCloneDropsIndexes(t *testing.T) {
	g, _, l, a := buildIndexed(t, []Value{Int(1)})
	c := g.Clone()
	if c.AttrIndexFor(l, a) != nil {
		t.Fatal("clone must not share attribute indexes")
	}
	// and rebuilding on the clone works without touching the original
	cix := c.EnsureAttrIndex(l, a)
	if cix == nil || cix.Len() != 1 {
		t.Fatal("clone failed to rebuild its index")
	}
	c.SetAttrA(0, a, Int(9))
	if g.AttrIndexFor(l, a).Ints(9).Len() != 0 {
		t.Fatal("mutating the clone leaked into the original index")
	}
}
