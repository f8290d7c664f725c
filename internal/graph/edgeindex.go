package graph

import (
	"cmp"

	"ngd/internal/sorted"
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
// how many edges have an endpoint with no integer key (an absent value or a
// string), each of which would leave Y unsatisfied.
//
// Keys are Value.AsInt, as in AttrIndex, in a sorted.Run shared the same
// way. EnsureEdgeValIndex builds an index at plan time; the edge writers
// and ApplyAttrs keep it exact, one merge per index and batch.

// edgeEntry is one indexed edge: the key of its indexed endpoint, then the
// edge itself (16 bytes), ordered by (val, src, dst).
type edgeEntry struct {
	val      int64
	src, dst NodeID
}

func (e edgeEntry) Cmp(o edgeEntry) int {
	return cmp.Or(cmp.Compare(e.val, o.val), cmp.Compare(e.src, o.src), cmp.Compare(e.dst, o.dst))
}

// EdgeValIndex indexes the edges of one label by one attribute of one of
// their endpoints.
type EdgeValIndex struct {
	gen       uint64 // the generation of the graph that may write it in place
	label     LabelID
	attr      AttrID
	bySrc     bool
	ord       sorted.Run[edgeEntry] // integer-keyed edges
	uncovered int                   // edges whose endpoint has no integer key
}

// Len reports the number of integer-keyed edges.
func (ix *EdgeValIndex) Len() int { return ix.ord.Len() }

// Uncovered reports the number of edges whose indexed endpoint has no
// integer key: the value is absent or a string.
func (ix *EdgeValIndex) Uncovered() int { return ix.uncovered }

// Span returns the smallest and largest key; ok=false when no edge has an
// integer key.
func (ix *EdgeValIndex) Span() (lo, hi int64, ok bool) {
	chunks := ix.ord.Chunks()
	if len(chunks) == 0 {
		return 0, 0, false
	}
	last := chunks[len(chunks)-1]
	return chunks[0][0].val, last[len(last)-1].val, true
}

// end returns the endpoint of edge (u, v) the index keys on.
func (ix *EdgeValIndex) end(u, v NodeID) NodeID {
	if ix.bySrc {
		return u
	}
	return v
}

// edgeBatch collects one write's entries for an EdgeValIndex.
type edgeBatch struct {
	sorted.Batch[edgeEntry]
	uncovered int
}

// note records edge (u, v), whose indexed endpoint holds val, entering (in)
// or leaving the index.
func (c *edgeBatch) note(u, v NodeID, val Value, in bool) {
	switch k, ok := val.AsInt(); {
	case ok:
		c.Put(edgeEntry{k, u, v}, in)
	case in:
		c.uncovered++
	default:
		c.uncovered--
	}
}

// EnsureEdgeValIndex returns the index of label l's edges by attribute a of
// their target (bySrc: of their source), building it on first use. It
// returns nil for the wildcard and for uninterned labels or attributes.
// It may mutate g, so call it only during single-threaded setup (plan
// building); EdgeValIndexFor, the index a cut may use, and the index's
// queries are read-only.
func (g *Graph) EnsureEdgeValIndex(l LabelID, a AttrID, bySrc bool) *EdgeValIndex {
	if l == Wildcard || l == NoLabel || a < 0 {
		return nil
	}
	if ix := g.EdgeValIndexFor(l, a, bySrc); ix != nil {
		return ix
	}
	// bulk build: append in (src, dst) order, then one stable pass by key
	ix := &EdgeValIndex{gen: g.gen, label: l, attr: a, bySrc: bySrc}
	ord := make([]edgeEntry, 0, g.LiveStats().outTot[l])
	for src := range NodeID(g.n) {
		out := g.Out(src)
		if len(out) == 0 {
			continue
		}
		for _, h := range LabelRun(out, l) {
			if k, ok := g.Attr(ix.end(src, h.To), a).AsInt(); ok {
				ord = append(ord, edgeEntry{val: k, src: src, dst: h.To})
			} else {
				ix.uncovered++
			}
		}
	}
	ix.ord = sorted.Of(sortByKey(ord, func(e edgeEntry) int64 { return e.val }))
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

// noteEdges keeps the edge-value indexes exact across a batch of
// effective edge insertions and deletions: one merge per index.
func (g *Graph) noteEdges(ops []EdgeOp) {
	for i, ix := range g.edgeIdx {
		var c edgeBatch
		for _, op := range ops {
			if op.Label == ix.label {
				c.note(op.Src, op.Dst, g.Attr(ix.end(op.Src, op.Dst), ix.attr), op.Insert)
			}
		}
		g.writeEdgeIdx(i, &c)
	}
}

// writeEdgeIdx merges one write's entries into g.edgeIdx[i], copying the
// index's header first when it is another generation's (Graph.gen).
func (g *Graph) writeEdgeIdx(i int, c *edgeBatch) {
	if c.Len() == 0 && c.uncovered == 0 {
		return
	}
	ix := g.edgeIdx[i]
	if ix.gen != g.gen {
		own := *ix
		ix, own.gen = &own, g.gen
		g.edgeIdx[i] = ix
	}
	ix.ord = ix.ord.Write(&c.Batch)
	ix.uncovered += c.uncovered
}
