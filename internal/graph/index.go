package graph

import "sort"

// This file implements the attribute value indexes behind the literal-based
// candidate pruning of §6.2 step (3). An AttrIndex covers one (node label,
// attribute) pair and answers two query shapes:
//
//   - equality: all nodes of the label whose attribute equals a constant
//     (hash postings for strings; a point range query for integers);
//   - range: all nodes whose integer attribute value falls in [lo, hi]
//     (ordered index, a slice sorted by (value, node)).
//
// Indexed values follow the comparison semantics of internal/expr: ints,
// bools (as 0/1) and integral floats collapse onto one int64 key (Int(3),
// Float(3.0) and a true flag behave identically in literals); strings key
// the string postings. Values that can never satisfy a comparison literal —
// non-integral floats (expr.ErrType) and absent attributes — are simply not
// indexed, which is exactly the pruning the matcher wants.
//
// Indexes are built on demand with EnsureAttrIndex (single-threaded setup,
// e.g. while building matching plans) and are read-only afterwards from the
// matcher's point of view; SetAttrA keeps existing indexes in sync when
// attributes change. Query methods never build or mutate, so concurrent
// readers (the parallel engine's workers) are safe.

// ordEntry is one entry of the ordered index: an integer-keyed value.
type ordEntry struct {
	val  int64
	node NodeID
}

// AttrIndex indexes the nodes carrying one label by one attribute's value.
// Integer-keyed values live only in the ordered slice — equality lookups
// are a two-sided binary search (they happen at plan-build and seed time,
// never per candidate), which keeps mutation maintenance to one container.
type AttrIndex struct {
	label LabelID
	attr  AttrID
	strs  map[string][]NodeID // string equality postings (sorted by node id)
	ord   []ordEntry          // integer entries sorted by (val, node)
}

// IndexRun is an immutable candidate list returned by index queries; it
// wraps either an equality posting list or a contiguous slice of the
// ordered index without copying.
type IndexRun struct {
	nodes   []NodeID
	entries []ordEntry
}

// Len reports the number of candidates in the run.
func (r IndexRun) Len() int {
	if r.nodes != nil {
		return len(r.nodes)
	}
	return len(r.entries)
}

// At returns the i-th candidate node.
func (r IndexRun) At(i int) NodeID {
	if r.nodes != nil {
		return r.nodes[i]
	}
	return r.entries[i].node
}

// intKey maps an attribute value onto its int64 index key. ok=false means
// the value takes no part in integer indexing (strings, non-integral
// floats, absent values).
func intKey(v Value) (int64, bool) {
	switch v.Kind() {
	case KindInt, KindBool, KindFloat:
		return v.AsInt()
	}
	return 0, false
}

// Label reports the node label this index covers.
func (ix *AttrIndex) Label() LabelID { return ix.label }

// Attr reports the attribute this index covers.
func (ix *AttrIndex) Attr() AttrID { return ix.attr }

// Len reports the number of indexed (node, value) entries.
func (ix *AttrIndex) Len() int {
	n := len(ix.ord)
	for _, ps := range ix.strs {
		n += len(ps)
	}
	return n
}

// Ints returns the nodes whose attribute equals integer v.
func (ix *AttrIndex) Ints(v int64) IndexRun { return ix.IntRange(v, v) }

// Strs returns the nodes whose attribute equals string s.
func (ix *AttrIndex) Strs(s string) IndexRun {
	ps := ix.strs[s]
	if ps == nil {
		return IndexRun{nodes: []NodeID{}}
	}
	return IndexRun{nodes: ps}
}

// IntRange returns the nodes whose integer attribute value lies in the
// inclusive range [lo, hi], ordered by (value, node).
func (ix *AttrIndex) IntRange(lo, hi int64) IndexRun {
	if lo > hi {
		return IndexRun{nodes: []NodeID{}}
	}
	a := sort.Search(len(ix.ord), func(i int) bool { return ix.ord[i].val >= lo })
	b := sort.Search(len(ix.ord), func(i int) bool { return ix.ord[i].val > hi })
	return IndexRun{entries: ix.ord[a:b]}
}

// insertNode adds v into a sorted posting list.
func insertNode(ps []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= v })
	if i < len(ps) && ps[i] == v {
		return ps
	}
	ps = append(ps, 0)
	copy(ps[i+1:], ps[i:])
	ps[i] = v
	return ps
}

// removeNode deletes v from a sorted posting list.
func removeNode(ps []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= v })
	if i >= len(ps) || ps[i] != v {
		return ps
	}
	copy(ps[i:], ps[i+1:])
	return ps[:len(ps)-1]
}

// ordSearch locates entry e in the sorted ordered index.
func (ix *AttrIndex) ordSearch(e ordEntry) (int, bool) {
	i := sort.Search(len(ix.ord), func(i int) bool {
		if ix.ord[i].val != e.val {
			return ix.ord[i].val > e.val
		}
		return ix.ord[i].node >= e.node
	})
	return i, i < len(ix.ord) && ix.ord[i] == e
}

// add indexes value val for node v (incremental maintenance; bulk
// construction goes through EnsureAttrIndex's sort-once path).
func (ix *AttrIndex) add(v NodeID, val Value) {
	if s, ok := val.AsString(); ok {
		ix.strs[s] = insertNode(ix.strs[s], v)
		return
	}
	k, ok := intKey(val)
	if !ok {
		return
	}
	e := ordEntry{val: k, node: v}
	i, found := ix.ordSearch(e)
	if found {
		return
	}
	ix.ord = append(ix.ord, ordEntry{})
	copy(ix.ord[i+1:], ix.ord[i:])
	ix.ord[i] = e
}

// remove un-indexes value val for node v.
func (ix *AttrIndex) remove(v NodeID, val Value) {
	if s, ok := val.AsString(); ok {
		if ps := removeNode(ix.strs[s], v); len(ps) > 0 {
			ix.strs[s] = ps
		} else {
			delete(ix.strs, s)
		}
		return
	}
	k, ok := intKey(val)
	if !ok {
		return
	}
	if i, found := ix.ordSearch(ordEntry{val: k, node: v}); found {
		copy(ix.ord[i:], ix.ord[i+1:])
		ix.ord = ix.ord[:len(ix.ord)-1]
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
// lookups: *Graph natively, *Overlay by delegating to its base graph (ΔG
// consists of edge updates only, so attribute indexes are unaffected).
//
// EnsureAttrIndex may mutate the underlying graph and must only be called
// during single-threaded setup (plan building); AttrIndexFor and the
// AttrIndex query methods are read-only and safe for concurrent use.
type AttrIndexed interface {
	EnsureAttrIndex(l LabelID, a AttrID) *AttrIndex
	AttrIndexFor(l LabelID, a AttrID) *AttrIndex
}

var (
	_ AttrIndexed = (*Graph)(nil)
	_ AttrIndexed = (*Overlay)(nil)
)

// EnsureAttrIndex returns the attribute index for (l, a), building it on
// first use. It returns nil for the wildcard pseudo-label (which has no
// bucket of its own). Once built, the index is kept in sync by SetAttrA.
func (g *Graph) EnsureAttrIndex(l LabelID, a AttrID) *AttrIndex {
	if l == Wildcard || l == NoLabel || a < 0 {
		return nil
	}
	if ix := g.attrIdx[attrIndexKey{l, a}]; ix != nil {
		return ix
	}
	ix := &AttrIndex{
		label: l,
		attr:  a,
		strs:  make(map[string][]NodeID),
	}
	// bulk build: append in byLabel order, which is ascending ids (so
	// string postings come out sorted already), then one stable pass by
	// value puts the ordered index in (val, node) order
	bucket := g.byLabel[l]
	ix.ord = make([]ordEntry, 0, len(bucket))
	for _, v := range bucket {
		val := g.Attr(v, a)
		if !val.Valid() {
			continue
		}
		if s, ok := val.AsString(); ok {
			ix.strs[s] = append(ix.strs[s], v)
		} else if k, ok := intKey(val); ok {
			ix.ord = append(ix.ord, ordEntry{val: k, node: v})
		}
	}
	ix.ord = sortByKey(ix.ord, func(e ordEntry) int64 { return e.val })
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

// EnsureAttrIndex delegates to the base graph for (label, attr) pairs the
// overlay has not dirtied with SetAttr. Dirtied pairs return nil: the base
// index still reflects the old attribute values, so serving it would hand
// the matcher stale candidate runs — a nil index makes seeding fall back to
// the label-bucket scan, whose per-candidate filters read attributes through
// the overlay and therefore see the overrides.
func (o *Overlay) EnsureAttrIndex(l LabelID, a AttrID) *AttrIndex {
	if o.dirtyIdx[attrIndexKey{l, a}] {
		return nil
	}
	return o.base.EnsureAttrIndex(l, a)
}

// AttrIndexFor delegates to the base graph, masking overlay-dirtied pairs
// (see EnsureAttrIndex).
func (o *Overlay) AttrIndexFor(l LabelID, a AttrID) *AttrIndex {
	if o.dirtyIdx[attrIndexKey{l, a}] {
		return nil
	}
	return o.base.AttrIndexFor(l, a)
}
