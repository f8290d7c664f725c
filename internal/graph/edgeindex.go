package graph

import (
	"cmp"
	"slices"
)

// This file implements the edge-value indexes behind the ¬Y cut: a
// violation needs ¬Y, so once one side of a two-slot Y-literal is bound, a
// branch whose other side can only take values that satisfy Y cannot
// violate. The other side is reached through a pattern edge, so every value
// it can take is the value of an endpoint of some edge of that label. An
// EdgeValIndex covers one (edge label, attribute, end) triple and holds one
// entry per edge of the label, keyed by the attribute value of the edge's
// target — or, for a side reached through an out-edge, of its source. It
// answers the two questions the cut asks: the smallest and largest key, and
// how many edges have an endpoint with no integer key (an absent value, a
// string, a non-integral float), each of which would leave Y unsatisfied.
//
// Keys follow AttrIndex's intKey. Indexes are built on demand with
// EnsureEdgeValIndex at plan time, kept exact by AddEdgeL, DeleteEdgeL and
// SetAttrA, and dropped by Clone.

// edgeEntry is one indexed edge: the key of its indexed endpoint, then the
// edge itself (16 bytes).
type edgeEntry struct {
	val      int64
	src, dst NodeID
}

// cmpEntry orders entries by (val, src, dst).
func cmpEntry(a, b edgeEntry) int {
	if c := cmp.Compare(a.val, b.val); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.dst, b.dst)
}

// EdgeValIndex indexes the edges of one label by one attribute of one of
// their endpoints.
type EdgeValIndex struct {
	label     LabelID
	attr      AttrID
	bySrc     bool
	ord       []edgeEntry // integer-keyed edges sorted by (val, src, dst)
	uncovered int         // edges whose endpoint has no integer key
}

// Len reports the number of integer-keyed edges.
func (ix *EdgeValIndex) Len() int { return len(ix.ord) }

// Uncovered reports the number of edges whose indexed endpoint has no
// integer key: the value is absent, a string or a non-integral float.
func (ix *EdgeValIndex) Uncovered() int { return ix.uncovered }

// Span returns the smallest and largest key; ok=false when no edge has an
// integer key.
func (ix *EdgeValIndex) Span() (lo, hi int64, ok bool) {
	if len(ix.ord) == 0 {
		return 0, 0, false
	}
	return ix.ord[0].val, ix.ord[len(ix.ord)-1].val, true
}

// end returns the endpoint of edge (u, v) the index keys on.
func (ix *EdgeValIndex) end(u, v NodeID) NodeID {
	if ix.bySrc {
		return u
	}
	return v
}

func (ix *EdgeValIndex) search(e edgeEntry) (int, bool) {
	return slices.BinarySearchFunc(ix.ord, e, cmpEntry)
}

// add indexes edge (u, v) whose keyed endpoint holds val.
func (ix *EdgeValIndex) add(u, v NodeID, val Value) {
	k, ok := intKey(val)
	if !ok {
		ix.uncovered++
		return
	}
	e := edgeEntry{val: k, src: u, dst: v}
	i, found := ix.search(e)
	if found {
		return
	}
	ix.ord = append(ix.ord, edgeEntry{})
	copy(ix.ord[i+1:], ix.ord[i:])
	ix.ord[i] = e
}

// remove un-indexes edge (u, v) whose keyed endpoint holds val.
func (ix *EdgeValIndex) remove(u, v NodeID, val Value) {
	k, ok := intKey(val)
	if !ok {
		ix.uncovered--
		return
	}
	if i, found := ix.search(edgeEntry{val: k, src: u, dst: v}); found {
		copy(ix.ord[i:], ix.ord[i+1:])
		ix.ord = ix.ord[:len(ix.ord)-1]
	}
}

// EdgeValIndexed is implemented by views that serve edge-value indexes:
// *Graph natively, *Overlay by delegating to its base graph where the
// base's index still bounds G ⊕ ΔG (see Overlay.EdgeValIndexFor).
//
// EnsureEdgeValIndex may mutate the underlying graph and must only be
// called during single-threaded setup (plan building); it returns the
// index the planner estimates with. EdgeValIndexFor, the index a cut may
// use, and the index's query methods are read-only.
type EdgeValIndexed interface {
	EnsureEdgeValIndex(l LabelID, a AttrID, bySrc bool) *EdgeValIndex
	EdgeValIndexFor(l LabelID, a AttrID, bySrc bool) *EdgeValIndex
}

var (
	_ EdgeValIndexed = (*Graph)(nil)
	_ EdgeValIndexed = (*Overlay)(nil)
)

// EnsureEdgeValIndex returns the index of label l's edges by attribute a of
// their target (bySrc: of their source), building it on first use. It
// returns nil for the wildcard and for uninterned labels or attributes.
func (g *Graph) EnsureEdgeValIndex(l LabelID, a AttrID, bySrc bool) *EdgeValIndex {
	if l == Wildcard || l == NoLabel || a < 0 {
		return nil
	}
	if ix := g.EdgeValIndexFor(l, a, bySrc); ix != nil {
		return ix
	}
	// bulk build: append in (src, dst) order, then one stable pass by key
	ix := &EdgeValIndex{label: l, attr: a, bySrc: bySrc}
	ix.ord = make([]edgeEntry, 0, g.LiveStats().outTot[l])
	for src := range NodeID(g.n) {
		out := g.Out(src)
		if len(out) == 0 {
			continue
		}
		for _, h := range LabelRun(out, l) {
			if k, ok := intKey(g.Attr(ix.end(src, h.To), a)); ok {
				ix.ord = append(ix.ord, edgeEntry{val: k, src: src, dst: h.To})
			} else {
				ix.uncovered++
			}
		}
	}
	ix.ord = sortByKey(ix.ord, func(e edgeEntry) int64 { return e.val })
	g.edgeIdx = append(g.edgeIdx, ix)
	return ix
}

// EdgeValIndexFor returns the already-built index, or nil. It never builds.
func (g *Graph) EdgeValIndexFor(l LabelID, a AttrID, bySrc bool) *EdgeValIndex {
	for _, ix := range g.edgeIdx {
		if ix.label == l && ix.attr == a && ix.bySrc == bySrc {
			return ix
		}
	}
	return nil
}

// noteEdgeIdx keeps the edge-value indexes of label l exact across the
// insertion (d > 0) or deletion of edge (u, v).
func (g *Graph) noteEdgeIdx(u, v NodeID, l LabelID, d int) {
	for _, ix := range g.edgeIdx {
		if ix.label != l {
			continue
		}
		val := g.Attr(ix.end(u, v), ix.attr)
		if d > 0 {
			ix.add(u, v, val)
		} else {
			ix.remove(u, v, val)
		}
	}
}

// reindexEdges moves the edges keyed on node v from old to val when v's
// attribute a changes.
func (g *Graph) reindexEdges(v NodeID, a AttrID, old, val Value) {
	for _, ix := range g.edgeIdx {
		if ix.attr != a {
			continue
		}
		if ix.bySrc {
			for _, h := range LabelRun(g.Out(v), ix.label) {
				ix.remove(v, h.To, old)
				ix.add(v, h.To, val)
			}
		} else {
			for _, h := range LabelRun(g.In(v), ix.label) {
				ix.remove(h.To, v, old)
				ix.add(h.To, v, val)
			}
		}
	}
}

// EnsureEdgeValIndex builds the index on the base graph and returns it even
// where EdgeValIndexFor masks it: the planner reads it as an estimate, as it
// reads the base's LiveStats (ΔG is small next to G). Only EdgeValIndexFor
// decides whether a cut may use it over the overlay.
func (o *Overlay) EnsureEdgeValIndex(l LabelID, a AttrID, bySrc bool) *EdgeValIndex {
	return o.base.EnsureEdgeValIndex(l, a, bySrc)
}

// EdgeValIndexFor serves the base graph's index unless ΔG⁺ inserts an edge
// of label l or the overlay overrides attribute a somewhere: either could
// put a value outside the base's span. Deletions are harmless — they leave
// the base index a superset of G ⊕ ΔG's edges.
func (o *Overlay) EdgeValIndexFor(l LabelID, a AttrID, bySrc bool) *EdgeValIndex {
	if o.masksEdgeIdx(l, a) {
		return nil
	}
	return o.base.EdgeValIndexFor(l, a, bySrc)
}

func (o *Overlay) masksEdgeIdx(l LabelID, a AttrID) bool {
	for _, il := range o.insLabels {
		if il == l {
			return true
		}
	}
	for k := range o.dirtyIdx {
		if k.attr == a {
			return true
		}
	}
	return false
}
