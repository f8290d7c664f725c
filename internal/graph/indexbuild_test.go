package graph

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Both index kinds are built by appending entries in id order and sorting
// them once by key with sortByKey. The reference here is a comparison sort
// over the whole entry, so the radix pass must reproduce the full (key,
// id…) order, ties included, that add, remove and the searches rely on.

// buildRecordLen is the size of one fuzzed node value: a tag byte, then an
// eight-byte payload.
const buildRecordLen = 9

// buildValue decodes the value of node i from one record. The tags cover
// the int64 extremes, −1 and 0, arbitrary integers, keys that differ only
// in their top byte, a repeat of an earlier node's value, and what collapses
// onto a key (bools) or stays out of the ordered index (strings, absent
// values).
func buildValue(rec []byte, prev []Value) Value {
	p := binary.LittleEndian.Uint64(rec[1:])
	switch rec[0] % 12 {
	case 0:
		return Int(math.MinInt64)
	case 1:
		return Int(math.MaxInt64)
	case 2:
		return Int(-1)
	case 3:
		return Int(0)
	case 4:
		return Int(int64(p))
	case 5:
		return Int(int64(p<<56 | 0x00a5a5a5a5a5a5a5))
	case 6:
		if len(prev) == 0 {
			return Int(0)
		}
		return prev[p%uint64(len(prev))]
	case 7:
		return Str(fmt.Sprint(int32(p)))
	case 8:
		return Str(fmt.Sprint("s", p%4))
	case 9:
		return Value{}
	case 10:
		return Bool(p&1 == 1)
	default:
		return Int(int64(int32(p)))
	}
}

// refAttrOrd is the ordered index of (l, a) by definition.
func refAttrOrd(g *Graph, l LabelID, a AttrID) []ordEntry {
	var want []ordEntry
	for _, v := range g.byLabel[l] {
		if k, ok := g.Attr(v, a).AsInt(); ok {
			want = append(want, ordEntry{val: k, node: v})
		}
	}
	slices.SortFunc(want, func(x, y ordEntry) int {
		if c := cmp.Compare(x.val, y.val); c != 0 {
			return c
		}
		return cmp.Compare(x.node, y.node)
	})
	return want
}

// refEdgeOrd is the edge-value index of (l, a, bySrc) by definition.
func refEdgeOrd(g *Graph, l LabelID, a AttrID, bySrc bool) (want []edgeEntry, uncovered int) {
	for u := range NodeID(g.n) {
		for _, h := range g.Out(u) {
			if h.Label != l {
				continue
			}
			end := h.To
			if bySrc {
				end = NodeID(u)
			}
			if k, ok := g.Attr(end, a).AsInt(); ok {
				want = append(want, edgeEntry{val: k, src: NodeID(u), dst: h.To})
			} else {
				uncovered++
			}
		}
	}
	slices.SortFunc(want, func(x, y edgeEntry) int {
		if c := cmp.Compare(x.val, y.val); c != 0 {
			return c
		}
		if c := cmp.Compare(x.src, y.src); c != 0 {
			return c
		}
		return cmp.Compare(x.dst, y.dst)
	})
	return want, uncovered
}

func checkIndexOrder(t *testing.T, g *Graph, l, el LabelID, a AttrID, when string) {
	t.Helper()
	ix := g.EnsureAttrIndex(l, a)
	if want := refAttrOrd(g, l, a); !slices.Equal(ix.ord, want) {
		t.Fatalf("%s: AttrIndex.ord\n got  %v\n want %v", when, ix.ord, want)
	}
	for _, bySrc := range []bool{false, true} {
		ex := g.EnsureEdgeValIndex(el, a, bySrc)
		want, uncovered := refEdgeOrd(g, el, a, bySrc)
		if !slices.Equal(ex.ord, want) {
			t.Fatalf("%s: EdgeValIndex.ord (bySrc %v)\n got  %v\n want %v", when, bySrc, ex.ord, want)
		}
		if ex.uncovered != uncovered {
			t.Fatalf("%s: EdgeValIndex.uncovered (bySrc %v) = %d, want %d", when, bySrc, ex.uncovered, uncovered)
		}
	}
}

// buildSeed encodes values as fuzz records (tag, payload).
func buildSeed(recs ...[2]int64) []byte {
	var b []byte
	for _, r := range recs {
		b = append(b, byte(r[0]))
		b = binary.LittleEndian.AppendUint64(b, uint64(r[1]))
	}
	return b
}

// FuzzIndexBuildOrder builds one label's nodes from fuzzed values, with one
// edge from every node to a node the seed picks, and holds the attribute
// index and both edge-value indexes of the first build to the comparison
// sort, then again after an attribute write and an edge insert.
func FuzzIndexBuildOrder(f *testing.F) {
	const ints = 4
	f.Add(int64(1), buildSeed([2]int64{0, 0}, [2]int64{1, 0}, [2]int64{2, 0}, [2]int64{3, 0},
		[2]int64{ints, 5}, [2]int64{ints, -5}, [2]int64{6, 1}, [2]int64{7, 3}, [2]int64{8, 1},
		[2]int64{9, 0}, [2]int64{10, 1}, [2]int64{11, -7}, [2]int64{6, 4}))
	// keys that differ only in the top byte, across the sign
	f.Add(int64(2), buildSeed([2]int64{5, 0x80}, [2]int64{5, 0x7f}, [2]int64{5, 0}, [2]int64{5, 0xff},
		[2]int64{5, 1}, [2]int64{5, 0x7f}, [2]int64{3, 0}))
	// every key equal
	var same [][2]int64
	for range 40 {
		same = append(same, [2]int64{ints, 42})
	}
	f.Add(int64(3), buildSeed(same...))
	// the smallest and largest key share their low byte, a middle key does
	// not: the low byte still has to be sorted
	f.Add(int64(4), buildSeed([2]int64{ints, 0}, [2]int64{ints, 0x105}, [2]int64{ints, 0x101}, [2]int64{ints, 0x200}))
	f.Add(int64(5), buildSeed([2]int64{ints, -0x105}, [2]int64{ints, 0x105}, [2]int64{ints, -0x101}, [2]int64{ints, 0x101}))
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		syms := NewSymbols()
		p, e, other := syms.Label("p"), syms.Label("e"), syms.Label("f")
		a := syms.Attr("val")
		var vals []Value
		for rec := data; len(rec) >= buildRecordLen && len(vals) < 2048; rec = rec[buildRecordLen:] {
			vals = append(vals, buildValue(rec, vals))
		}
		if len(vals) == 0 {
			return
		}
		b := NewBuilder(syms)
		for _, v := range vals {
			b.AddNodeL(p)
			if v.Valid() {
				b.SetAttrA(a, v)
			}
		}
		for u := range vals {
			b.AddEdgeL(NodeID(u), NodeID(rng.Intn(len(vals))), e)
			if rng.Intn(4) == 0 {
				b.AddEdgeL(NodeID(u), NodeID(rng.Intn(len(vals))), other)
			}
		}
		g := b.Build()
		checkIndexOrder(t, g, p, e, a, "first build")

		v := NodeID(rng.Intn(len(vals)))
		g.SetAttrA(v, a, vals[rng.Intn(len(vals))])
		g.AddEdgeL(NodeID(rng.Intn(len(vals))), v, e)
		checkIndexOrder(t, g, p, e, a, "after SetAttrA and AddEdgeL")
	})
}
