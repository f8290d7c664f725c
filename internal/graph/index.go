package graph

import (
	"cmp"
	"iter"
	"slices"
	"strings"

	"ngd/internal/sorted"
)

// This file implements the attribute value indexes behind the literal-based
// candidate pruning of §6.2 step (3). An AttrIndex covers one (node label,
// attribute) pair and answers equality (all nodes of the label whose value
// equals a constant) and integer ranges. Values follow internal/expr's
// comparison semantics: ints and bools (as 0/1) share one int64 key,
// Value.AsInt; strings key a second run; absent values are not indexed,
// since no comparison literal can hold on them.
//
// Both runs are sorted.Runs, so an index is a header over shared chunks
// (Graph.gen). Indexes are built on demand with EnsureAttrIndex
// (single-threaded setup, e.g. while building plans) and kept in sync by
// ApplyAttrs, one merge per run and batch; queries never build or mutate,
// so concurrent readers (the parallel engine's workers) are safe.

// ordEntry is one integer-keyed entry, ordered by (val, node).
type ordEntry struct {
	val  int64
	node NodeID
}

func (e ordEntry) Cmp(o ordEntry) int {
	return cmp.Or(cmp.Compare(e.val, o.val), cmp.Compare(e.node, o.node))
}

// strEntry is one string-keyed entry, ordered by (s, node).
type strEntry struct {
	s    string
	node NodeID
}

func (e strEntry) Cmp(o strEntry) int {
	return cmp.Or(strings.Compare(e.s, o.s), cmp.Compare(e.node, o.node))
}

// AttrIndex indexes the nodes carrying one label by one attribute's value.
type AttrIndex struct {
	gen   uint64 // the generation of the graph that may write it in place
	label LabelID
	attr  AttrID
	ints  sorted.Run[ordEntry]
	strs  sorted.Run[strEntry]
}

// IndexRun is a candidate list: a stretch of one of an index's runs.
type IndexRun struct {
	ints   sorted.Run[ordEntry]
	strs   sorted.Run[strEntry]
	lo, hi int
}

// Len reports the number of candidates in the run.
func (r IndexRun) Len() int { return r.hi - r.lo }

// At returns the i-th candidate node: a binary search, so scans use Nodes.
func (r IndexRun) At(i int) NodeID {
	if r.strs.Len() > 0 {
		return r.strs.At(r.lo + i).node
	}
	return r.ints.At(r.lo + i).node
}

// Nodes yields candidates lo … hi−1 of the run, chunk by chunk.
func (r IndexRun) Nodes(lo, hi int) iter.Seq[NodeID] {
	lo, hi = r.lo+lo, r.lo+min(hi, r.Len())
	return func(yield func(NodeID) bool) {
		if r.strs.Len() > 0 {
			for e := range r.strs.Seq(lo, hi) {
				if !yield(e.node) {
					return
				}
			}
			return
		}
		for e := range r.ints.Seq(lo, hi) {
			if !yield(e.node) {
				return
			}
		}
	}
}

// Len reports the number of indexed (node, value) entries.
func (ix *AttrIndex) Len() int { return ix.ints.Len() + ix.strs.Len() }

// Ints returns the nodes whose attribute equals integer v.
func (ix *AttrIndex) Ints(v int64) IndexRun { return ix.IntRange(v, v) }

// Strs returns the nodes whose attribute equals string s, by node id.
func (ix *AttrIndex) Strs(s string) IndexRun {
	return IndexRun{
		strs: ix.strs,
		lo:   ix.strs.Search(func(e strEntry) bool { return e.s >= s }),
		hi:   ix.strs.Search(func(e strEntry) bool { return e.s > s }),
	}
}

// IntRange returns the nodes whose integer attribute value lies in the
// inclusive range [lo, hi], ordered by (value, node).
func (ix *AttrIndex) IntRange(lo, hi int64) IndexRun {
	if lo > hi {
		return IndexRun{}
	}
	return IndexRun{
		ints: ix.ints,
		lo:   ix.ints.Search(func(e ordEntry) bool { return e.val >= lo }),
		hi:   ix.ints.Search(func(e ordEntry) bool { return e.val > hi }),
	}
}

// attrBatch collects one write's entries for an AttrIndex's two runs.
type attrBatch struct {
	ints sorted.Batch[ordEntry]
	strs sorted.Batch[strEntry]
}

// note records value val of node v entering (in) or leaving the index.
func (c *attrBatch) note(v NodeID, val Value, in bool) {
	if s, ok := val.AsString(); ok {
		c.strs.Put(strEntry{s, v}, in)
	} else if k, ok := val.AsInt(); ok {
		c.ints.Put(ordEntry{k, v}, in)
	}
}

// reindex brings every index up to date with a batch of attribute writes,
// one merge per run: each write takes its node's old value out and puts the
// new one in. A header of another generation is copied first (Graph.gen).
func (g *Graph) reindex(moves []attrMove) {
	for k, ix := range g.attrIdx {
		var c attrBatch
		for _, m := range moves {
			if m.Attr == k.attr && g.Label(m.Node) == k.label {
				c.note(m.Node, m.old, false)
				c.note(m.Node, m.Val, true)
			}
		}
		if c.ints.Len()+c.strs.Len() == 0 {
			continue
		}
		if ix.gen != g.gen {
			own := *ix
			ix, own.gen = &own, g.gen
			g.attrIdx[k] = ix
		}
		ix.ints = ix.ints.Write(&c.ints)
		ix.strs = ix.strs.Write(&c.strs)
	}
	for i, ix := range g.edgeIdx {
		var c edgeBatch
		for _, m := range moves {
			if m.Attr != ix.attr {
				continue
			}
			adj := g.In(m.Node)
			if ix.bySrc {
				adj = g.Out(m.Node)
			}
			for _, h := range LabelRun(adj, ix.label) {
				u, v := h.To, m.Node
				if ix.bySrc {
					u, v = m.Node, h.To
				}
				c.note(u, v, m.old, false)
				c.note(u, v, m.Val, true)
			}
		}
		g.writeEdgeIdx(i, &c)
	}
}

// sortByKey orders s stably by key and returns it (in s's array or in one
// of the same length): an LSD radix sort over the key's eight bytes, least
// significant first, with the sign bit flipped so that the unsigned order
// of the bytes is the signed order of the keys. A byte every key shares is
// skipped. Both index kinds are built by appending entries in id order and
// sorting once with it, which yields exactly the (key, id…) order their
// binary searches read.
func sortByKey[T any](s []T, key func(T) int64) []T {
	if len(s) < 2 {
		return s
	}
	var count [8][256]int
	for _, e := range s {
		k := uint64(key(e)) ^ 1<<63
		for b := range count {
			count[b][byte(k>>(8*b))]++
		}
	}
	var buf []T
	first := uint64(key(s[0])) ^ 1<<63
	for b := range count {
		c := &count[b]
		if c[byte(first>>(8*b))] == len(s) {
			continue
		}
		for d, sum := 0, 0; d < len(c); d++ {
			c[d], sum = sum, sum+c[d]
		}
		if buf == nil {
			buf = make([]T, len(s))
		}
		for _, e := range s {
			d := byte((uint64(key(e)) ^ 1<<63) >> (8 * b))
			buf[c[d]] = e
			c[d]++
		}
		s, buf = buf, s
	}
	return s
}

type attrIndexKey struct {
	label LabelID
	attr  AttrID
}

// AttrIndexed is implemented by views that answer indexed attribute
// lookups (*Graph).
//
// EnsureAttrIndex may mutate the underlying graph and must only be called
// during single-threaded setup (plan building); AttrIndexFor and the
// AttrIndex query methods are read-only and safe for concurrent use.
type AttrIndexed interface {
	EnsureAttrIndex(l LabelID, a AttrID) *AttrIndex
	AttrIndexFor(l LabelID, a AttrID) *AttrIndex
}

var _ AttrIndexed = (*Graph)(nil)

// EnsureAttrIndex returns the attribute index for (l, a), building it on
// first use. It returns nil for the wildcard pseudo-label (which has no
// bucket of its own). Once built, the index is kept in sync by ApplyAttrs.
func (g *Graph) EnsureAttrIndex(l LabelID, a AttrID) *AttrIndex {
	if l == Wildcard || l == NoLabel || a < 0 {
		return nil
	}
	if ix := g.attrIdx[attrIndexKey{l, a}]; ix != nil {
		return ix
	}
	// bulk build: append in byLabel order, which is ascending ids, then one
	// stable pass by value puts the integer entries in (val, node) order
	bucket := g.byLabel[l]
	ints := make([]ordEntry, 0, len(bucket))
	var strs []strEntry
	for _, v := range bucket {
		val := g.Attr(v, a)
		if s, ok := val.AsString(); ok {
			strs = append(strs, strEntry{s, v})
		} else if k, ok := val.AsInt(); ok {
			ints = append(ints, ordEntry{k, v})
		}
	}
	slices.SortStableFunc(strs, func(x, y strEntry) int { return strings.Compare(x.s, y.s) })
	ints = sortByKey(ints, func(e ordEntry) int64 { return e.val })
	ix := &AttrIndex{gen: g.gen, label: l, attr: a, ints: sorted.Of(ints), strs: sorted.Of(strs)}
	if g.attrIdx == nil {
		g.attrIdx = make(map[attrIndexKey]*AttrIndex)
	}
	g.attrIdx[attrIndexKey{l, a}] = ix
	return ix
}

// AttrIndexFor returns the already-built index for (l, a), or nil. It never
// builds, so it is safe on the concurrent matching paths.
func (g *Graph) AttrIndexFor(l LabelID, a AttrID) *AttrIndex {
	return g.attrIdx[attrIndexKey{l, a}]
}
