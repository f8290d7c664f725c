package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// edgeIdxValues covers every kind of value an endpoint can hold: integer
// keys (int, bool, the int64 extremes) and the values that leave an edge
// uncovered (absent, string).
var edgeIdxValues = []Value{
	Int(0), Int(-3), Int(7), Int(math.MaxInt64), Int(math.MinInt64),
	Bool(true), Bool(false), Int(4), Int(-2),
	{}, Str("s"), Str(""), Str("2"),
}

// sameAsFresh fails unless ix holds exactly what a fresh build over a copy
// of g built from scratch holds.
func sameAsFresh(t *testing.T, g *Graph, ix *EdgeValIndex, step int) {
	t.Helper()
	fresh := Rebuilt(g).EnsureEdgeValIndex(ix.label, ix.attr, ix.bySrc)
	got, want := entries(ix.ord), entries(fresh.ord)
	if ix.uncovered != fresh.uncovered || !reflect.DeepEqual(append([]edgeEntry{}, got...), append([]edgeEntry{}, want...)) {
		t.Fatalf("step %d (bySrc %v): maintained %d entries, %d uncovered; fresh build %d, %d\nmaintained %v\nfresh      %v",
			step, ix.bySrc, len(got), ix.uncovered, len(want), fresh.uncovered, got, want)
	}
}

// TestEdgeValIndexMaintained drives random edge inserts and deletes of the
// indexed label and another, attribute changes on endpoints to every kind of
// value, and node arrivals, and after every operation holds both the
// target-keyed and the source-keyed index to a fresh build.
func TestEdgeValIndexMaintained(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		p, q := g.Symbols().Label("p"), g.Symbols().Label("q")
		val, other := g.Symbols().Attr("val"), g.Symbols().Attr("other")
		labels := []LabelID{g.Symbols().Label("A"), g.Symbols().Label("B")}
		for i := 0; i < 12; i++ {
			v := g.AddNodeL(labels[i%2])
			g.SetAttrA(v, val, edgeIdxValues[rng.Intn(len(edgeIdxValues))])
		}
		for i := 0; i < 20; i++ {
			g.AddEdgeL(NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes())), p)
		}
		byDst := g.EnsureEdgeValIndex(p, val, false)
		bySrc := g.EnsureEdgeValIndex(p, val, true)
		if g.EnsureEdgeValIndex(p, val, false) != byDst {
			t.Fatal("EnsureEdgeValIndex built a second index")
		}
		if byDst.Len()+byDst.Uncovered() != countLabel(g, p) {
			t.Fatalf("%d entries + %d uncovered != %d edges", byDst.Len(), byDst.Uncovered(), countLabel(g, p))
		}
		for step := 0; step < 400; step++ {
			n := NodeID(rng.Intn(g.NumNodes()))
			m := NodeID(rng.Intn(g.NumNodes()))
			l := p
			if rng.Intn(4) == 0 {
				l = q
			}
			switch rng.Intn(6) {
			case 0, 1:
				g.AddEdgeL(n, m, l)
			case 2:
				g.DeleteEdgeL(n, m, l)
			case 3:
				g.SetAttrA(n, val, edgeIdxValues[rng.Intn(len(edgeIdxValues))])
			case 4:
				g.SetAttrA(n, other, Int(int64(step)))
			default:
				v := g.AddNodeL(labels[rng.Intn(2)])
				if rng.Intn(2) == 0 {
					g.SetAttrA(v, val, edgeIdxValues[rng.Intn(len(edgeIdxValues))])
				}
				g.AddEdgeL(n, v, p)
			}
			sameAsFresh(t, g, byDst, step)
			sameAsFresh(t, g, bySrc, step)
		}
	}
}

func countLabel(g *Graph, l LabelID) int {
	n := 0
	for u := range NodeID(g.n) {
		n += len(LabelRun(g.Out(u), l))
	}
	return n
}

// TestEdgeValIndexSpan pins what the cut reads, the span and the uncovered
// count, on a hand graph: one target turns into a string, then into an
// outlier, then loses its edge.
func TestEdgeValIndexSpan(t *testing.T) {
	g := New()
	p := g.Symbols().Label("p")
	val := g.Symbols().Attr("val")
	src := g.AddNode("x")
	var dsts []NodeID
	for _, v := range []int64{10, 20, 30} {
		d := g.AddNode("a")
		g.SetAttrA(d, val, Int(v))
		g.AddEdgeL(src, d, p)
		dsts = append(dsts, d)
	}
	ix := g.EnsureEdgeValIndex(p, val, false)
	span := func(lo, hi int64) bool {
		min, max, ok := ix.Span()
		return ok && min == lo && max == hi
	}
	if !span(10, 30) || ix.Uncovered() != 0 {
		t.Fatal("the built index must span [10, 30] with every edge covered")
	}
	g.SetAttrA(dsts[1], val, Str("twenty"))
	if ix.Uncovered() != 1 || ix.Len() != 2 || !span(10, 30) {
		t.Fatal("a string target must leave the index uncovered")
	}
	g.SetAttrA(dsts[1], val, Int(1<<40))
	if ix.Uncovered() != 0 || !span(10, 1<<40) {
		t.Fatal("the outlier must widen the span")
	}
	g.DeleteEdgeL(src, dsts[1], p)
	if !span(10, 30) {
		t.Fatal("deleting the outlier's edge must narrow the span again")
	}
	if New().EnsureEdgeValIndex(Wildcard, val, false) != nil || g.EnsureEdgeValIndex(p, -1, false) != nil {
		t.Fatal("wildcard or unknown attribute must not be indexed")
	}
}

// TestForkEdgeValIndexExact: a fork with ΔG applied serves an index exact
// for G ⊕ ΔG, so a cut may fire over it: deletions and other labels leave
// the shared index alone, an insertion of the label widens the fork's
// copy, an attribute write moves its key, and the parent's index stays
// G's throughout.
func TestForkEdgeValIndexExact(t *testing.T) {
	g := New()
	p, q := g.Symbols().Label("p"), g.Symbols().Label("q")
	val := g.Symbols().Attr("val")
	a, b, c := g.AddNode("x"), g.AddNode("x"), g.AddNode("x")
	g.SetAttrA(b, val, Int(1))
	g.SetAttrA(c, val, Int(5))
	g.AddEdgeL(a, b, p)
	ix := g.EnsureEdgeValIndex(p, val, false)

	span := func(ix *EdgeValIndex) [2]int64 {
		lo, hi, _ := ix.Span()
		return [2]int64{lo, hi}
	}
	var other Delta
	other.Insert(a, c, q)
	f := g.Clone()
	f.Apply(&other)
	if f.EdgeValIndexFor(p, val, false) != ix || f.EnsureEdgeValIndex(p, val, false) != ix {
		t.Fatal("another label's insertion must leave the shared index served")
	}
	f.Release()

	var ins Delta
	ins.Insert(a, c, p)
	f = g.Clone()
	f.Apply(&ins)
	fix := f.EdgeValIndexFor(p, val, false)
	if fix == nil || fix == ix || span(fix) != [2]int64{1, 5} {
		t.Fatalf("a fork inserting the label must serve its own exact index, got %v", fix)
	}
	sameAsFresh(t, f, fix, 0)
	f.SetAttrA(c, val, Int(3))
	if span(f.EdgeValIndexFor(p, val, false)) != [2]int64{1, 3} {
		t.Fatal("an attribute write on the fork must move its key")
	}
	sameAsFresh(t, f, f.EdgeValIndexFor(p, val, false), 1)
	f.Release()
	if g.EdgeValIndexFor(p, val, false) != ix || span(ix) != [2]int64{1, 1} {
		t.Fatal("the parent's index must stay G's")
	}
	sameAsFresh(t, g, ix, 2)
}
