package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node. Nodes are dense indices; they are never removed
// (the paper's unit deletions remove links only, leaving nodes intact).
type NodeID int32

// LabelID is an interned node or edge label from the alphabet Γ.
type LabelID int32

// AttrID is an interned attribute name from the alphabet Θ.
type AttrID int32

// Wildcard is the label id reserved for the pattern wildcard '_' which
// matches any node label. It never labels a graph node.
const Wildcard LabelID = 0

// NoLabel marks a label string that is not interned in a graph's symbol
// table; no node or edge can carry it.
const NoLabel LabelID = -1

// Half is a half-edge: an adjacency entry (Label, To). Out-lists hold the
// edge's head, in-lists its tail.
type Half struct {
	Label LabelID
	To    NodeID
}

// Symbols interns label and attribute strings so the hot matching paths
// compare int32 ids rather than strings.
type Symbols struct {
	labels   []string
	labelIDs map[string]LabelID
	attrs    []string
	attrIDs  map[string]AttrID
}

// NewSymbols returns an empty symbol table with the wildcard pre-interned.
func NewSymbols() *Symbols {
	s := &Symbols{
		labelIDs: make(map[string]LabelID),
		attrIDs:  make(map[string]AttrID),
	}
	s.labels = append(s.labels, "_") // Wildcard == 0
	s.labelIDs["_"] = Wildcard
	return s
}

// Label interns a label string.
func (s *Symbols) Label(name string) LabelID {
	if id, ok := s.labelIDs[name]; ok {
		return id
	}
	id := LabelID(len(s.labels))
	s.labels = append(s.labels, name)
	s.labelIDs[name] = id
	return id
}

// LookupLabel resolves a label without interning; returns NoLabel if unseen.
func (s *Symbols) LookupLabel(name string) LabelID {
	if id, ok := s.labelIDs[name]; ok {
		return id
	}
	return NoLabel
}

// LabelName returns the string for a label id.
func (s *Symbols) LabelName(id LabelID) string {
	if id < 0 || int(id) >= len(s.labels) {
		return fmt.Sprintf("<label#%d>", id)
	}
	return s.labels[id]
}

// Attr interns an attribute name.
func (s *Symbols) Attr(name string) AttrID {
	if id, ok := s.attrIDs[name]; ok {
		return id
	}
	id := AttrID(len(s.attrs))
	s.attrs = append(s.attrs, name)
	s.attrIDs[name] = id
	return id
}

// LookupAttr resolves an attribute name without interning (-1 if unseen).
func (s *Symbols) LookupAttr(name string) AttrID {
	if id, ok := s.attrIDs[name]; ok {
		return id
	}
	return -1
}

// AttrName returns the string for an attribute id.
func (s *Symbols) AttrName(id AttrID) string {
	if id < 0 || int(id) >= len(s.attrs) {
		return fmt.Sprintf("<attr#%d>", id)
	}
	return s.attrs[id]
}

// NumLabels reports the number of interned labels (including the wildcard).
func (s *Symbols) NumLabels() int { return len(s.labels) }

// NumAttrs reports the number of interned attribute names.
func (s *Symbols) NumAttrs() int { return len(s.attrs) }

// Clone returns a private copy of the symbol table: subsequent interning in
// either copy does not affect the other.
func (s *Symbols) Clone() *Symbols {
	c := &Symbols{
		labels:   append([]string(nil), s.labels...),
		labelIDs: make(map[string]LabelID, len(s.labelIDs)),
		attrs:    append([]string(nil), s.attrs...),
		attrIDs:  make(map[string]AttrID, len(s.attrIDs)),
	}
	for k, v := range s.labelIDs {
		c.labelIDs[k] = v
	}
	for k, v := range s.attrIDs {
		c.attrIDs[k] = v
	}
	return c
}

// attrPair is one (attribute, value) entry of a node's tuple. Tuples are
// stored columnar: a slice sorted by AttrID rather than a map. Nodes carry
// ≤4 attributes in every generator profile, so the inline sorted slice
// removes one heap object and the hashing cost per node per lookup, and
// makes attribute iteration deterministic (sorted by id).
type attrPair struct {
	id  AttrID
	val Value
}

// attrLinearMax is the tuple arity at or above which findAttr switches
// from a linear scan to binary search.
const attrLinearMax = 8

// findAttr locates attribute a in a sorted tuple, returning the index where
// it lives (or would be inserted) and whether it is present.
func findAttr(attrs []attrPair, a AttrID) (int, bool) {
	if len(attrs) < attrLinearMax {
		for i := range attrs {
			if attrs[i].id >= a {
				return i, attrs[i].id == a
			}
		}
		return len(attrs), false
	}
	i := sort.Search(len(attrs), func(i int) bool { return attrs[i].id >= a })
	return i, i < len(attrs) && attrs[i].id == a
}

type nodeData struct {
	label LabelID
	attrs []attrPair // sorted by id; see findAttr
}

// Graph is a directed, labeled, attributed graph G = (V, E, L, F_A).
// Edges are unique per (src, label, dst) triple. Adjacency lists are kept
// sorted by (Label, To) so edge checks are logarithmic.
//
// A Graph is safe for concurrent reads once construction and updates are
// done; mutation is not synchronized.
type Graph struct {
	syms      *Symbols
	nodes     []nodeData
	out       [][]Half
	in        [][]Half
	edgeCount int
	byLabel   map[LabelID][]NodeID
	// attrIdx holds the attribute value indexes built by EnsureAttrIndex
	// (candidate pruning, §6.2 step (3)); SetAttrA keeps them in sync.
	attrIdx map[attrIndexKey]*AttrIndex
	// edgeIdx holds the edge-value indexes built by EnsureEdgeValIndex (the
	// ¬Y cut); AddEdgeL, DeleteEdgeL and SetAttrA keep them exact.
	edgeIdx []*EdgeValIndex
	// stats holds the maintained planning statistics (see stats.go); nil
	// until the first LiveStats call, then kept current by every mutator.
	stats *LiveStats
}

// New returns an empty graph with a fresh symbol table.
func New() *Graph { return NewWithSymbols(NewSymbols()) }

// NewWithSymbols returns an empty graph sharing an existing symbol table
// (used when patterns and graphs must agree on ids).
func NewWithSymbols(s *Symbols) *Graph {
	return &Graph{syms: s, byLabel: make(map[LabelID][]NodeID)}
}

// Symbols exposes the graph's symbol table.
func (g *Graph) Symbols() *Symbols { return g.syms }

// NumNodes reports |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return g.edgeCount }

// AddNode adds a node with the given label and returns its id.
func (g *Graph) AddNode(label string) NodeID {
	return g.AddNodeL(g.syms.Label(label))
}

// AddNodeL adds a node with an already-interned label.
func (g *Graph) AddNodeL(label LabelID) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, nodeData{label: label})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.byLabel[label] = append(g.byLabel[label], id)
	g.noteChurn()
	return id
}

// Label returns the label of node v.
func (g *Graph) Label(v NodeID) LabelID { return g.nodes[v].label }

// LabelName returns the label string of node v.
func (g *Graph) LabelName(v NodeID) string { return g.syms.LabelName(g.nodes[v].label) }

// SetAttr sets attribute a of node v (F_A(v).a = val).
func (g *Graph) SetAttr(v NodeID, name string, val Value) {
	g.SetAttrA(v, g.syms.Attr(name), val)
}

// SetAttrA sets an attribute by interned id, updating any attribute index
// covering (label(v), a) and any edge-value index keyed on a.
func (g *Graph) SetAttrA(v NodeID, a AttrID, val Value) {
	nd := &g.nodes[v]
	i, found := findAttr(nd.attrs, a)
	var old Value
	if found {
		old = nd.attrs[i].val
	}
	if ix := g.attrIdx[attrIndexKey{nd.label, a}]; ix != nil {
		if old.Valid() {
			ix.remove(v, old)
		}
		if val.Valid() {
			ix.add(v, val)
		}
	}
	g.reindexEdges(v, a, old, val)
	if found {
		nd.attrs[i].val = val
	} else {
		nd.attrs = append(nd.attrs, attrPair{})
		copy(nd.attrs[i+1:], nd.attrs[i:])
		nd.attrs[i] = attrPair{id: a, val: val}
	}
	g.noteChurn()
}

// Attr returns attribute a of v; the zero Value (invalid) means absent.
func (g *Graph) Attr(v NodeID, a AttrID) Value {
	attrs := g.nodes[v].attrs
	if i, ok := findAttr(attrs, a); ok {
		return attrs[i].val
	}
	return Value{}
}

// AttrByName returns an attribute by name.
func (g *Graph) AttrByName(v NodeID, name string) Value {
	a := g.syms.LookupAttr(name)
	if a < 0 {
		return Value{}
	}
	return g.Attr(v, a)
}

// Attrs iterates the attribute tuple of v in ascending AttrID order.
func (g *Graph) Attrs(v NodeID, fn func(AttrID, Value)) {
	for _, p := range g.nodes[v].attrs {
		fn(p.id, p.val)
	}
}

// NumAttrs reports the arity of v's attribute tuple.
func (g *Graph) NumAttrs(v NodeID) int { return len(g.nodes[v].attrs) }

// LabelRun returns the contiguous run of halves carrying label l within a
// sorted adjacency list (binary search on both bounds).
func LabelRun(list []Half, l LabelID) []Half {
	lo := sort.Search(len(list), func(i int) bool { return list[i].Label >= l })
	hi := sort.Search(len(list), func(i int) bool { return list[i].Label > l })
	return list[lo:hi]
}

func searchHalf(list []Half, h Half) (int, bool) {
	i := sort.Search(len(list), func(i int) bool {
		if list[i].Label != h.Label {
			return list[i].Label >= h.Label
		}
		return list[i].To >= h.To
	})
	return i, i < len(list) && list[i] == h
}

func insertHalf(list []Half, h Half) ([]Half, bool) {
	i, found := searchHalf(list, h)
	if found {
		return list, false
	}
	list = append(list, Half{})
	copy(list[i+1:], list[i:])
	list[i] = h
	return list, true
}

func removeHalf(list []Half, h Half) ([]Half, bool) {
	i, found := searchHalf(list, h)
	if !found {
		return list, false
	}
	copy(list[i:], list[i+1:])
	return list[:len(list)-1], true
}

// AddEdge inserts edge (u -label-> v). It reports whether the edge was new.
func (g *Graph) AddEdge(u, v NodeID, label string) bool {
	return g.AddEdgeL(u, v, g.syms.Label(label))
}

// AddEdgeL inserts an edge with an interned label.
func (g *Graph) AddEdgeL(u, v NodeID, label LabelID) bool {
	var added bool
	g.out[u], added = insertHalf(g.out[u], Half{Label: label, To: v})
	if !added {
		return false
	}
	g.in[v], _ = insertHalf(g.in[v], Half{Label: label, To: u})
	g.edgeCount++
	g.noteEdge(u, v, label, 1)
	g.noteEdgeIdx(u, v, label, 1)
	return true
}

// DeleteEdgeL removes edge (u -label-> v); reports whether it existed.
func (g *Graph) DeleteEdgeL(u, v NodeID, label LabelID) bool {
	var removed bool
	g.out[u], removed = removeHalf(g.out[u], Half{Label: label, To: v})
	if !removed {
		return false
	}
	g.in[v], _ = removeHalf(g.in[v], Half{Label: label, To: u})
	g.edgeCount--
	g.noteEdge(u, v, label, -1)
	g.noteEdgeIdx(u, v, label, -1)
	return true
}

// HasEdgeL reports whether edge (u -label-> v) exists.
func (g *Graph) HasEdgeL(u, v NodeID, label LabelID) bool {
	_, found := searchHalf(g.out[u], Half{Label: label, To: v})
	return found
}

// Out returns the sorted out-adjacency of v. Callers must not mutate it.
func (g *Graph) Out(v NodeID) []Half { return g.out[v] }

// In returns the sorted in-adjacency of v. Callers must not mutate it.
func (g *Graph) In(v NodeID) []Half { return g.in[v] }

// OutDegree reports len(Out(v)).
func (g *Graph) OutDegree(v NodeID) int { return len(g.out[v]) }

// InDegree reports len(In(v)).
func (g *Graph) InDegree(v NodeID) int { return len(g.in[v]) }

// NodesWithLabel returns the nodes carrying the label; for Wildcard it
// returns nil (use NumNodes and iterate instead: every node matches).
func (g *Graph) NodesWithLabel(l LabelID) []NodeID {
	if l == Wildcard {
		return nil
	}
	return g.byLabel[l]
}

// CountLabel reports how many nodes carry label l (all nodes for Wildcard).
func (g *Graph) CountLabel(l LabelID) int {
	if l == Wildcard {
		return len(g.nodes)
	}
	return len(g.byLabel[l])
}

// NeighborhoodOf returns the union of V_d(v) over the seed nodes v: all
// nodes within d hops of a seed when g is taken as an undirected graph
// (paper §6.1), seeds included, deduplicated, in BFS discovery order.
func NeighborhoodOf(g View, seeds []NodeID, d int) []NodeID {
	seen := AcquireNodeSet(g.NumNodes())
	defer ReleaseNodeSet(seen)
	var frontier, result []NodeID
	for _, s := range seeds {
		if !seen.Add(s) {
			continue
		}
		frontier = append(frontier, s)
		result = append(result, s)
	}
	for hop := 0; hop < d && len(frontier) > 0; hop++ {
		var next []NodeID
		for _, u := range frontier {
			for _, adj := range [2][]Half{g.Out(u), g.In(u)} {
				for _, h := range adj {
					if seen.Add(h.To) {
						next = append(next, h.To)
						result = append(result, h.To)
					}
				}
			}
		}
		frontier = next
	}
	return result
}

// InducedEdges calls fn for every edge of the subgraph induced by the node
// set (paper §2): both endpoints in the set.
func (g *Graph) InducedEdges(set map[NodeID]struct{}, fn func(u, v NodeID, l LabelID)) {
	for u := range set {
		for _, h := range g.out[u] {
			if _, ok := set[h.To]; ok {
				fn(u, h.To, h.Label)
			}
		}
	}
}

// slab is one backing array that per-node lists are copied into back to
// back. Every copy's capacity is clipped to its length, so an append to it
// reallocates that one list instead of writing into its neighbour's.
type slab[T any] []T

func (s *slab[T]) copyOf(l []T) []T {
	if len(l) == 0 {
		return nil
	}
	lo := len(*s)
	*s = append(*s, l...)
	return (*s)[lo:len(*s):len(*s)]
}

// Clone returns a deep copy sharing the symbol table, in the layout
// Builder.Build produces: attribute tuples, out-lists, in-lists and
// by-label postings each copied into one backing array. Attribute indexes,
// edge-value indexes and maintained statistics are not copied; the clone
// rebuilds them on the next EnsureAttrIndex / EnsureEdgeValIndex /
// LiveStats call.
func (g *Graph) Clone() *Graph {
	n := len(g.nodes)
	c := &Graph{
		syms:      g.syms,
		nodes:     make([]nodeData, n),
		out:       make([][]Half, n),
		in:        make([][]Half, n),
		edgeCount: g.edgeCount,
		byLabel:   make(map[LabelID][]NodeID, len(g.byLabel)),
	}
	nAttrs := 0
	for i := range g.nodes {
		nAttrs += len(g.nodes[i].attrs)
	}
	attrs := make(slab[attrPair], 0, nAttrs)
	out := make(slab[Half], 0, g.edgeCount)
	in := make(slab[Half], 0, g.edgeCount)
	for i := range g.nodes {
		c.nodes[i] = nodeData{label: g.nodes[i].label, attrs: attrs.copyOf(g.nodes[i].attrs)}
		c.out[i] = out.copyOf(g.out[i])
		c.in[i] = in.copyOf(g.in[i])
	}
	ids := make(slab[NodeID], 0, n)
	for l, ns := range g.byLabel {
		c.byLabel[l] = ids.copyOf(ns)
	}
	return c
}

// CloneDetached is Clone with a private copy of the symbol table. Use it to
// hand a frozen copy of the graph to another goroutine (e.g. a background
// snapshot encoder) while the original keeps interning new labels and
// attributes — plain Clone shares the symbol table, so concurrent interning
// would race with readers of the copy.
func (g *Graph) CloneDetached() *Graph {
	c := g.Clone()
	c.syms = g.syms.Clone()
	return c
}

// Stats summarizes a graph (used by generators and the bench harness).
type Stats struct {
	Nodes, Edges int
	Labels       int
	MaxOutDeg    int
	MaxInDeg     int
	Density      float64 // |E| / (|V|·(|V|−1)), the paper's definition
}

// ComputeStats scans the graph and reports summary statistics.
func (g *Graph) ComputeStats() Stats {
	st := Stats{Nodes: len(g.nodes), Edges: g.edgeCount, Labels: g.syms.NumLabels() - 1}
	for i := range g.nodes {
		if d := len(g.out[i]); d > st.MaxOutDeg {
			st.MaxOutDeg = d
		}
		if d := len(g.in[i]); d > st.MaxInDeg {
			st.MaxInDeg = d
		}
	}
	n := float64(len(g.nodes))
	if n > 1 {
		st.Density = float64(g.edgeCount) / (n * (n - 1))
	}
	return st
}
