package graph

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"unsafe"

	"ngd/internal/sorted"
)

// PageSize is the page geometry, for the allocation budgets of the
// external tests.
const PageSize = pageSize

// PageCopyBytes is what the first write beside a clone pays to copy the
// out-page (out) or in-page holding v, each object at its size class: the
// page, its slots, and its arena laid out afresh with room.
func PageCopyBytes(g *Graph, v NodeID, out bool) int {
	t := g.in
	if out {
		t = g.out
	}
	p := t[v>>pageBits]
	class := func(b uintptr) int { return cap(slices.Grow([]byte(nil), int(b))) }
	return class(unsafe.Sizeof(*p)) + class(uintptr(len(p.span))*unsafe.Sizeof(span{})) +
		class(uintptr(p.live+room(p.live))*unsafe.Sizeof(Half{}))
}

// CopyStats copies g's statistics as the first write beside a clone that
// holds them does, and drops the copy.
func CopyStats(g *Graph) { _ = g.stats.copy() }

// Rebuilt returns a copy of g built call by call from nothing: it shares
// no page, index or statistics with g, so what it builds on demand is a
// fresh build's answer, the oracle for g's maintained copies.
func Rebuilt(g *Graph) *Graph {
	c := NewWithSymbols(g.syms.Clone())
	for v := range NodeID(g.n) {
		c.AddNodeL(g.Label(v))
		g.Attrs(v, func(a AttrID, val Value) { c.SetAttrA(v, a, val) })
	}
	for v := range NodeID(g.n) {
		for _, h := range g.Out(v) {
			c.AddEdgeL(v, h.To, h.Label)
		}
	}
	return c
}

// entries lists a run's entries in order.
func entries[T sorted.Entry[T]](r sorted.Run[T]) []T { return slices.Collect(r.Seq(0, r.Len())) }

// IndexState renders what a reader of g's attribute indexes, edge-value
// indexes and statistics sees (the churn counter aside).
func IndexState(g *Graph) string {
	var b strings.Builder
	keys := slices.SortedFunc(maps.Keys(g.attrIdx), func(x, y attrIndexKey) int {
		return cmp.Or(cmp.Compare(x.label, y.label), cmp.Compare(x.attr, y.attr))
	})
	for _, k := range keys {
		ix := g.attrIdx[k]
		fmt.Fprintln(&b, "attr", k, entries(ix.ints), entries(ix.strs))
	}
	for _, ix := range g.edgeIdx {
		fmt.Fprintln(&b, "edge", ix.label, ix.attr, ix.bySrc, entries(ix.ord), ix.uncovered)
	}
	if st := g.stats; st != nil {
		fmt.Fprintln(&b, "stats", st.outRuns, st.inRuns, st.outTot, st.inTot)
	}
	return b.String()
}

// FreshIndexState is IndexState of fresh builds of the indexes and
// statistics g holds, over a graph that reads g's pages and holds no index
// or statistics of its own: it only reads the pages, so it is a view, not a
// fork, and leaves g's holds and generation as they were.
func FreshIndexState(g *Graph) string {
	r := &Graph{syms: g.syms, n: g.n, nodes: g.nodes, out: g.out, in: g.in, edgeCount: g.edgeCount, byLabel: g.byLabel}
	for k := range g.attrIdx {
		r.EnsureAttrIndex(k.label, k.attr)
	}
	for _, ix := range g.edgeIdx {
		r.EnsureEdgeValIndex(ix.label, ix.attr, ix.bySrc)
	}
	if g.stats == nil {
		r.stats = nil
	} else {
		r.LiveStats()
	}
	return IndexState(r)
}
