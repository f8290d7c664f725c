package graph

// View is a read-only graph interface implemented by *Graph. The detection
// algorithms run against Views; IncDect reads G and G ⊕ ΔG side by side,
// the second a clone of G with ΔG applied (Clone shares G's pages, so the
// clone costs what ΔG touches).
type View interface {
	Symbols() *Symbols
	NumNodes() int
	NumEdges() int
	Label(v NodeID) LabelID
	Attr(v NodeID, a AttrID) Value
	Out(v NodeID) []Half
	In(v NodeID) []Half
	HasEdgeL(u, v NodeID, label LabelID) bool
	// NodesWithLabel returns the candidate nodes carrying l, or nil when
	// l == Wildcard (in which case every node 0..NumNodes-1 matches).
	NodesWithLabel(l LabelID) []NodeID
	CountLabel(l LabelID) int
}

var _ View = (*Graph)(nil)
