package graph

import (
	"fmt"
	"maps"
	"slices"
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
	return &Symbols{
		labels:   slices.Clip(s.labels),
		labelIDs: maps.Clone(s.labelIDs),
		attrs:    slices.Clip(s.attrs),
		attrIDs:  maps.Clone(s.attrIDs),
	}
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
// done; mutation is not synchronized. A graph and its clones share pages
// (see page.go), but each may be written by its own goroutine.
type Graph struct {
	syms      *Symbols
	n         int // |V|
	nodes     pages[nodeData]
	out       pages[[]Half]
	in        pages[[]Half]
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
func (g *Graph) NumNodes() int { return g.n }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return g.edgeCount }

// AddNode adds a node with the given label and returns its id.
func (g *Graph) AddNode(label string) NodeID {
	return g.AddNodeL(g.syms.Label(label))
}

// AddNodeL adds a node with an already-interned label.
func (g *Graph) AddNodeL(label LabelID) NodeID {
	id := NodeID(g.n)
	g.nodes.push(id).label = label
	g.out.push(id)
	g.in.push(id)
	g.n++
	g.byLabel[label] = append(g.byLabel[label], id)
	g.noteChurn()
	return id
}

// Label returns the label of node v.
func (g *Graph) Label(v NodeID) LabelID { return g.nodes.at(v).label }

// LabelName returns the label string of node v.
func (g *Graph) LabelName(v NodeID) string { return g.syms.LabelName(g.Label(v)) }

// SetAttr sets attribute a of node v (F_A(v).a = val).
func (g *Graph) SetAttr(v NodeID, name string, val Value) {
	g.SetAttrA(v, g.syms.Attr(name), val)
}

// SetAttrA sets an attribute by interned id, updating any attribute index
// covering (label(v), a) and any edge-value index keyed on a.
func (g *Graph) SetAttrA(v NodeID, a AttrID, val Value) {
	nd, own := g.nodes.mut(v)
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
	switch {
	case !found:
		nd.attrs = insertAt(nd.attrs, i, attrPair{id: a, val: val}, own)
	case !own:
		nd.attrs = slices.Clone(nd.attrs)
		fallthrough
	default:
		nd.attrs[i].val = val
	}
	g.noteChurn()
}

// Attr returns attribute a of v; the zero Value (invalid) means absent.
func (g *Graph) Attr(v NodeID, a AttrID) Value {
	attrs := g.nodes.at(v).attrs
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
	for _, p := range g.nodes.at(v).attrs {
		fn(p.id, p.val)
	}
}

// NumAttrs reports the arity of v's attribute tuple.
func (g *Graph) NumAttrs(v NodeID) int { return len(g.nodes.at(v).attrs) }

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

// insertHalf and removeHalf edit a list the caller owns.
func insertHalf(list []Half, h Half) ([]Half, bool) {
	i, found := searchHalf(list, h)
	if found {
		return list, false
	}
	return insertAt(list, i, h, true), true
}

func removeHalf(list []Half, h Half) ([]Half, bool) {
	i, found := searchHalf(list, h)
	if !found {
		return list, false
	}
	return deleteAt(list, i, true), true
}

// editHalf inserts h into, or removes it from, v's list in table t; the
// caller has checked that the edit takes effect.
func editHalf(t pages[[]Half], v NodeID, h Half, insert bool) {
	l, own := t.mut(v)
	i, _ := searchHalf(*l, h)
	if insert {
		*l = insertAt(*l, i, h, own)
	} else {
		*l = deleteAt(*l, i, own)
	}
}

// AddEdge inserts edge (u -label-> v). It reports whether the edge was new.
func (g *Graph) AddEdge(u, v NodeID, label string) bool {
	return g.AddEdgeL(u, v, g.syms.Label(label))
}

// AddEdgeL inserts an edge with an interned label.
func (g *Graph) AddEdgeL(u, v NodeID, label LabelID) bool {
	if g.HasEdgeL(u, v, label) {
		return false
	}
	editHalf(g.out, u, Half{Label: label, To: v}, true)
	editHalf(g.in, v, Half{Label: label, To: u}, true)
	g.edgeCount++
	g.noteEdge(u, v, label, 1)
	g.noteEdgeIdx(u, v, label, 1)
	return true
}

// DeleteEdgeL removes edge (u -label-> v); reports whether it existed.
func (g *Graph) DeleteEdgeL(u, v NodeID, label LabelID) bool {
	if !g.HasEdgeL(u, v, label) {
		return false
	}
	editHalf(g.out, u, Half{Label: label, To: v}, false)
	editHalf(g.in, v, Half{Label: label, To: u}, false)
	g.edgeCount--
	g.noteEdge(u, v, label, -1)
	g.noteEdgeIdx(u, v, label, -1)
	return true
}

// HasEdgeL reports whether edge (u -label-> v) exists.
func (g *Graph) HasEdgeL(u, v NodeID, label LabelID) bool {
	_, found := searchHalf(g.Out(u), Half{Label: label, To: v})
	return found
}

// Out returns the sorted out-adjacency of v. Callers must not mutate it.
func (g *Graph) Out(v NodeID) []Half { return *g.out.at(v) }

// In returns the sorted in-adjacency of v. Callers must not mutate it.
func (g *Graph) In(v NodeID) []Half { return *g.in.at(v) }

// OutDegree reports len(Out(v)).
func (g *Graph) OutDegree(v NodeID) int { return len(g.Out(v)) }

// InDegree reports len(In(v)).
func (g *Graph) InDegree(v NodeID) int { return len(g.In(v)) }

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
		return g.n
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
		for _, h := range g.Out(u) {
			if _, ok := set[h.To]; ok {
				fn(u, h.To, h.Label)
			}
		}
	}
}

// Clone returns an independent copy of g in O(pages): the two share every
// page of node slots until one of them writes to it (see page.go), and get
// private symbol tables and by-label headers. Attribute indexes, edge-value
// indexes and maintained statistics are not copied; the clone rebuilds them
// on the next EnsureAttrIndex / EnsureEdgeValIndex / LiveStats call. The
// copy may be handed to another goroutine while g keeps changing.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		syms:      g.syms.Clone(),
		n:         g.n,
		nodes:     g.nodes.fork(),
		out:       g.out.fork(),
		in:        g.in.fork(),
		edgeCount: g.edgeCount,
		byLabel:   make(map[LabelID][]NodeID, len(g.byLabel)),
	}
	for l, ns := range g.byLabel {
		c.byLabel[l] = slices.Clip(ns) // g may append in place, c may not
	}
	return c
}

// Release empties g and drops its holds on the pages it shares with its
// clones (or its original), so that they write to those pages in place
// again instead of copying them. Call it when done with a clone.
func (g *Graph) Release() {
	g.nodes.release()
	g.out.release()
	g.in.release()
	*g = *NewWithSymbols(g.syms)
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
	st := Stats{Nodes: g.n, Edges: g.edgeCount, Labels: g.syms.NumLabels() - 1}
	for v := range NodeID(g.n) {
		st.MaxOutDeg = max(st.MaxOutDeg, g.OutDegree(v))
		st.MaxInDeg = max(st.MaxInDeg, g.InDegree(v))
	}
	n := float64(g.n)
	if n > 1 {
		st.Density = float64(g.edgeCount) / (n * (n - 1))
	}
	return st
}
