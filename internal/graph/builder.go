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
// Every per-node list of the result is a partition of a shared backing
// array (attribute tuples: of slab chunks filled as nodes arrive; out-lists,
// in-lists and by-label postings: of one array each) with its capacity
// clipped to its length, so a later in-place insert reallocates that one
// list and can never write into its neighbour's.
type Builder struct {
	syms  *Symbols
	nodes stage[nodeData]
	// chunk is the attribute slab being filled; the tuple of the node added
	// last is its tail. Chunks are never grown, only succeeded, so tuples
	// already handed out stay where they are and loading leaves no trail
	// of outgrown slabs behind.
	chunk []attrPair
	edges stage[builderEdge]
}

type builderEdge struct {
	src, dst NodeID
	label    LabelID
}

// attrChunk is the capacity of one attribute slab chunk, in pairs (192 KB).
const attrChunk = 4096

// stageChunk is the capacity of one staging chunk, in entries: 128 KB of
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
	b.nodes.push(nodeData{label: label})
	return NodeID(b.nodes.len() - 1)
}

// SetAttrA sets an attribute of the node added last (its tuple is the open
// tail of the current chunk, so it is the only one that can grow).
func (b *Builder) SetAttrA(a AttrID, val Value) {
	nd := b.nodes.last()
	i, found := findAttr(nd.attrs, a)
	if found {
		nd.attrs[i].val = val
		return
	}
	k := len(nd.attrs)
	if len(b.chunk) == cap(b.chunk) {
		// full: the open tuple moves to the head of a fresh chunk
		next := make([]attrPair, k, max(attrChunk, 2*k+1))
		copy(next, nd.attrs)
		b.chunk = next
	}
	b.chunk = append(b.chunk, attrPair{})
	nd.attrs = b.chunk[len(b.chunk)-k-1:]
	copy(nd.attrs[i+1:], nd.attrs[i:])
	nd.attrs[i] = attrPair{id: a, val: val}
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

// Build lays the collected graph out and returns it: the node chunks are
// copied into the node pages, the edges placed straight from their chunks
// by counting sort. The builder must not be used afterwards: the graph owns
// its slabs.
func (b *Builder) Build() *Graph {
	n := b.nodes.len()
	g := &Graph{
		syms:  b.syms,
		n:     n,
		nodes: newPages[nodeData](n),
		out:   newPages[[]Half](n),
		in:    newPages[[]Half](n),
	}
	v := NodeID(0)
	for _, c := range b.nodes.chunks() {
		for _, nd := range c {
			*g.nodes.at(v) = nd
			v++
		}
	}

	// attribute tuples are in place but for their capacity; by-label
	// postings are a counting sort of the node ids by label
	var maxLabel LabelID
	for v := range NodeID(n) {
		maxLabel = max(maxLabel, g.Label(v))
	}
	labelOff := make([]int, maxLabel+2)
	for v := range NodeID(n) {
		nd := g.nodes.at(v)
		nd.attrs = slices.Clip(nd.attrs)
		labelOff[nd.label+1]++
	}
	for l := range maxLabel + 1 {
		labelOff[l+1] += labelOff[l]
	}
	byLabel := make([]NodeID, n)
	for v := range NodeID(n) {
		l := g.Label(v)
		byLabel[labelOff[l]] = v
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
	edges := b.edges.chunks()
	off := make([]int, n+1)
	for _, c := range edges {
		for _, e := range c {
			off[e.src+1]++
		}
	}
	for v := range n {
		off[v+1] += off[v]
	}
	halves := make([]Half, b.edges.len())
	for _, c := range edges {
		for _, e := range c {
			halves[off[e.src]] = Half{Label: e.label, To: e.dst}
			off[e.src]++
		}
	}
	for v, lo := 0, 0; v < n; v++ {
		hi := off[v]
		run := halves[lo:hi]
		sortHalves(run)
		run = slices.Compact(run)
		if len(run) > 0 {
			*g.out.at(NodeID(v)) = run[:len(run):len(run)]
			g.edgeCount += len(run)
		}
		lo = hi
	}

	// in-lists mirror the deduplicated out-lists; sources arrive in
	// ascending order, so a run is out of order only across labels
	clear(off)
	for u := range NodeID(n) {
		for _, h := range g.Out(u) {
			off[h.To+1]++
		}
	}
	for v := range n {
		off[v+1] += off[v]
	}
	halves = make([]Half, g.edgeCount)
	for u := range NodeID(n) {
		for _, h := range g.Out(u) {
			halves[off[h.To]] = Half{Label: h.Label, To: u}
			off[h.To]++
		}
	}
	for v, lo := 0, 0; v < n; v++ {
		hi := off[v]
		if run := halves[lo:hi:hi]; len(run) > 0 {
			sortHalves(run)
			*g.in.at(NodeID(v)) = run
		}
		lo = hi
	}
	return g
}
