package graph

import (
	"cmp"
	"slices"
)

// Builder collects a whole graph — nodes with their attribute tuples, then
// edges in any order — and lays it out in one step. It is how bulk graphs
// come into being (the text loader, snapshot recovery); a built Graph
// changes only through its mutators. Build yields exactly the graph the
// same calls would have built one at a time through (*Graph).AddNodeL /
// SetAttrA / AddEdgeL: tuples sorted by AttrID with the last write winning,
// adjacency sorted by (Label, To), edges unique per triple.
//
// Each table of the result (tuples, out-lists, in-lists) has its page
// arenas cut from one array, each arena followed by its headroom, and the
// by-label postings partition one array with their capacities clipped.
type Builder struct {
	syms  *Symbols
	nodes stage[builderNode]
	// chunk is the attribute slab being filled, after the full chunks in
	// pairs; the tuple of the node added last is its tail. A tuple that
	// outgrows its chunk moves to the head of the next, leaving a stale
	// copy at the full chunk's end. Chunks are never grown, only succeeded,
	// so loading leaves no trail of outgrown slabs behind.
	pairs [][]attrPair
	chunk []attrPair
	edges stage[builderEdge]
}

// builderNode is a staged node: its label and the length of its tuple,
// which follows the previous node's in the attribute slab.
type builderNode struct {
	label LabelID
	n     uint32
}

type builderEdge struct {
	src, dst NodeID
	label    LabelID
}

// attrChunk is the capacity of one attribute slab chunk, in pairs (192 KB).
const attrChunk = 4096

// stageChunk is the capacity of one staging chunk, in entries: 32 KB of
// nodes or 48 KB of edges.
const stageChunk = 4096

// stage is an append-only sequence staged in chunks of stageChunk entries.
// Like the attribute slab, a chunk is never grown, only succeeded by the
// next one: staging copies nothing and leaves no outgrown slice behind.
type stage[T any] struct {
	full [][]T // chunks filled to capacity, in order
	open []T   // the chunk being filled
}

func (s *stage[T]) push(x T) {
	if len(s.open) == cap(s.open) {
		if s.open != nil {
			s.full = append(s.full, s.open)
		}
		s.open = make([]T, 0, stageChunk)
	}
	s.open = append(s.open, x)
}

func (s *stage[T]) len() int { return len(s.full)*stageChunk + len(s.open) }

// last returns the entry pushed last.
func (s *stage[T]) last() *T { return &s.open[len(s.open)-1] }

// chunks returns every staged chunk in order, the open one last.
func (s *stage[T]) chunks() [][]T { return append(s.full, s.open) }

// NewBuilder returns an empty builder over an existing symbol table.
func NewBuilder(s *Symbols) *Builder { return &Builder{syms: s} }

// AddNodeL adds a node with an interned label and returns its id.
func (b *Builder) AddNodeL(label LabelID) NodeID {
	b.nodes.push(builderNode{label: label})
	return NodeID(b.nodes.len() - 1)
}

// SetAttrA sets an attribute of the node added last (its tuple is the open
// tail of the current chunk, so it is the only one that can grow).
func (b *Builder) SetAttrA(a AttrID, val Value) {
	nd := b.nodes.last()
	k := int(nd.n)
	attrs := b.chunk[len(b.chunk)-k:]
	i, found := findAttr(attrs, a)
	if found {
		attrs[i] = pairOf(a, val)
		return
	}
	if len(b.chunk) == cap(b.chunk) {
		// full: the open tuple moves to the head of a fresh chunk
		if b.chunk != nil {
			b.pairs = append(b.pairs, b.chunk)
		}
		b.chunk = append(make([]attrPair, 0, max(attrChunk, 2*k+1)), attrs...)
	}
	b.chunk = append(b.chunk, attrPair{})
	attrs = b.chunk[len(b.chunk)-k-1:]
	copy(attrs[i+1:], attrs[i:])
	attrs[i] = pairOf(a, val)
	nd.n++
}

// AddEdgeL records edge (u -label-> v) between nodes already added.
// Duplicates are dropped by Build.
func (b *Builder) AddEdgeL(u, v NodeID, label LabelID) {
	b.edges.push(builderEdge{src: u, dst: v, label: label})
}

func cmpHalf(a, b Half) int {
	if c := cmp.Compare(a.Label, b.Label); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// sortHalves orders an adjacency run by (Label, To). Runs mostly arrive
// sorted (a written graph lists them that way), so look before sorting.
func sortHalves(run []Half) {
	if !slices.IsSortedFunc(run, cmpHalf) {
		slices.SortFunc(run, cmpHalf)
	}
}

// Build lays the collected graph out and returns it: the tuples are
// copied into the node pages' arenas, the edges placed straight from their
// chunks by counting sort. The builder must not be used afterwards.
func (b *Builder) Build() *Graph {
	n := b.nodes.len()
	off := make([]int, n)
	labels := make([]LabelID, n)
	var maxLabel LabelID
	v := 0
	for _, c := range b.nodes.chunks() {
		for _, nd := range c {
			off[v], labels[v] = int(nd.n), nd.label
			maxLabel = max(maxLabel, nd.label)
			v++
		}
	}
	g := &Graph{syms: b.syms, n: n}
	var pairs []attrPair
	g.nodes, pairs = cutPages[attrPair](off)
	// walk the slab: a tuple that does not fit in what is left of its
	// chunk moved to the head of a later one
	slab, at := append(b.pairs, b.chunk), 0
	v = 0
	for _, c := range b.nodes.chunks() {
		for _, nd := range c {
			k := int(nd.n)
			for at+k > len(slab[0]) {
				slab, at = slab[1:], 0
			}
			copy(pairs[off[v]:], slab[0][at:at+k])
			at += k
			v++
		}
	}
	for i, p := range g.nodes {
		p.label = labels[i<<pageBits : i<<pageBits+len(p.span) : i<<pageBits+len(p.span)]
	}

	// by-label postings are a counting sort of the node ids by label
	labelOff := make([]int, maxLabel+2)
	for _, l := range labels {
		labelOff[l+1]++
	}
	for l := range maxLabel + 1 {
		labelOff[l+1] += labelOff[l]
	}
	byLabel := make([]NodeID, n)
	for v, l := range labels {
		byLabel[labelOff[l]] = NodeID(v)
		labelOff[l]++
	}
	// labelOff[l] is now the end of l's run, the start of l+1's
	g.byLabel = make(map[LabelID][]NodeID)
	for l, lo := LabelID(0), 0; l <= maxLabel; l++ {
		hi := labelOff[l]
		if hi > lo {
			g.byLabel[l] = byLabel[lo:hi:hi]
		}
		lo = hi
	}

	// out-lists: place by source, then order and deduplicate each run
	// (a duplicate leaves its entry as slack in its run's span)
	edges := b.edges.chunks()
	off = make([]int, n)
	for _, c := range edges {
		for _, e := range c {
			off[e.src]++
		}
	}
	var halves []Half
	g.out, halves = cutPages[Half](off)
	for _, c := range edges {
		for _, e := range c {
			halves[off[e.src]] = Half{Label: e.label, To: e.dst}
			off[e.src]++
		}
	}
	for _, p := range g.out {
		for j := range p.span {
			s := &p.span[j]
			run := p.arena[s.off : s.off+s.n]
			sortHalves(run)
			k := len(slices.Compact(run))
			p.live -= int(s.n) - k
			s.n = uint32(k)
			g.edgeCount += k
		}
	}

	// in-lists mirror the deduplicated out-lists; sources arrive in
	// ascending order, so a run is out of order only across labels
	clear(off)
	for u := range NodeID(n) {
		for _, h := range g.Out(u) {
			off[h.To]++
		}
	}
	g.in, halves = cutPages[Half](off)
	for u := range NodeID(n) {
		for _, h := range g.Out(u) {
			halves[off[h.To]] = Half{Label: h.Label, To: u}
			off[h.To]++
		}
	}
	for v := range NodeID(n) {
		sortHalves(g.In(v))
	}
	return g
}
