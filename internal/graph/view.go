package graph

// View is a read-only graph interface implemented by *Graph and *Overlay.
// The detection algorithms run against Views so the incremental algorithms
// can inspect G and G⊕ΔG simultaneously without copying the graph.
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

var (
	_ View = (*Graph)(nil)
	_ View = (*Overlay)(nil)
)

// Overlay presents G ⊕ ΔG without mutating G. Only nodes touched by ΔG pay
// any overhead: their merged adjacency lists are precomputed at construction;
// untouched nodes delegate to the base graph. On top of the edge delta an
// Overlay can carry attribute overrides (SetAttr), which the repair engine
// uses to preview candidate fixes without committing them.
type Overlay struct {
	base      *Graph
	out       map[NodeID][]Half
	in        map[NodeID][]Half
	edgeDelta int
	attrs     map[NodeID]map[AttrID]Value // overridden attribute values
	dirtyIdx  map[attrIndexKey]bool       // (label,attr) pairs masked from index seeding
	insLabels []LabelID                   // labels of the edges ΔG⁺ inserts (masks edge-value indexes)
}

// NewOverlay builds the view of base ⊕ delta. Operations that have no
// effect (inserting an existing edge, deleting a missing one) are skipped.
func NewOverlay(base *Graph, delta *Delta) *Overlay {
	o := &Overlay{
		base: base,
		out:  make(map[NodeID][]Half),
		in:   make(map[NodeID][]Half),
	}
	outOf := func(v NodeID) []Half {
		if l, ok := o.out[v]; ok {
			return l
		}
		l := append([]Half(nil), base.Out(v)...)
		o.out[v] = l
		return l
	}
	inOf := func(v NodeID) []Half {
		if l, ok := o.in[v]; ok {
			return l
		}
		l := append([]Half(nil), base.In(v)...)
		o.in[v] = l
		return l
	}
	for _, op := range delta.Ops {
		if op.Insert {
			l, added := insertHalf(outOf(op.Src), Half{Label: op.Label, To: op.Dst})
			if !added {
				continue
			}
			o.out[op.Src] = l
			o.in[op.Dst], _ = insertHalf(inOf(op.Dst), Half{Label: op.Label, To: op.Src})
			o.edgeDelta++
			o.noteInsLabel(op.Label)
		} else {
			l, removed := removeHalf(outOf(op.Src), Half{Label: op.Label, To: op.Dst})
			if !removed {
				continue
			}
			o.out[op.Src] = l
			o.in[op.Dst], _ = removeHalf(inOf(op.Dst), Half{Label: op.Label, To: op.Src})
			o.edgeDelta--
		}
	}
	return o
}

func (o *Overlay) noteInsLabel(l LabelID) {
	for _, il := range o.insLabels {
		if il == l {
			return
		}
	}
	o.insLabels = append(o.insLabels, l)
}

// Symbols returns the base graph's symbol table.
func (o *Overlay) Symbols() *Symbols { return o.base.syms }

// NumNodes reports |V| (ΔG never removes nodes).
func (o *Overlay) NumNodes() int { return o.base.NumNodes() }

// NumEdges reports |E ⊕ ΔE|.
func (o *Overlay) NumEdges() int { return o.base.edgeCount + o.edgeDelta }

// Label returns the label of v.
func (o *Overlay) Label(v NodeID) LabelID { return o.base.Label(v) }

// Attr returns attribute a of v, honouring overlay overrides first.
func (o *Overlay) Attr(v NodeID, a AttrID) Value {
	if m, ok := o.attrs[v]; ok {
		if val, ok := m[a]; ok {
			return val
		}
	}
	return o.base.Attr(v, a)
}

// SetAttr overrides attribute a of v in the overlay only; the base graph is
// untouched. The (label(v), a) pair is marked dirty so attribute-index
// seeding falls back to label scans — the base graph's indexes still hold
// v's old value and would otherwise serve stale candidate runs.
func (o *Overlay) SetAttr(v NodeID, a AttrID, val Value) {
	if o.attrs == nil {
		o.attrs = make(map[NodeID]map[AttrID]Value)
	}
	m := o.attrs[v]
	if m == nil {
		m = make(map[AttrID]Value)
		o.attrs[v] = m
	}
	m[a] = val
	if o.dirtyIdx == nil {
		o.dirtyIdx = make(map[attrIndexKey]bool)
	}
	o.dirtyIdx[attrIndexKey{o.base.Label(v), a}] = true
}

// Out returns the overlaid out-adjacency of v.
func (o *Overlay) Out(v NodeID) []Half {
	if l, ok := o.out[v]; ok {
		return l
	}
	return o.base.Out(v)
}

// In returns the overlaid in-adjacency of v.
func (o *Overlay) In(v NodeID) []Half {
	if l, ok := o.in[v]; ok {
		return l
	}
	return o.base.In(v)
}

// HasEdgeL reports whether (u -label-> v) exists in G ⊕ ΔG.
func (o *Overlay) HasEdgeL(u, v NodeID, label LabelID) bool {
	_, found := searchHalf(o.Out(u), Half{Label: label, To: v})
	return found
}

// NodesWithLabel delegates to the base graph: ΔG only changes edges.
func (o *Overlay) NodesWithLabel(l LabelID) []NodeID { return o.base.NodesWithLabel(l) }

// CountLabel delegates to the base graph.
func (o *Overlay) CountLabel(l LabelID) int { return o.base.CountLabel(l) }
