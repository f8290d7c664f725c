package graph

import "fmt"

// EdgeOp is a unit update (paper §5.2): an edge insertion or deletion.
type EdgeOp struct {
	Insert bool
	Src    NodeID
	Dst    NodeID
	Label  LabelID
}

func (op EdgeOp) String() string {
	verb := "delete"
	if op.Insert {
		verb = "insert"
	}
	return fmt.Sprintf("%s(%d -%d-> %d)", verb, op.Src, op.Label, op.Dst)
}

// Delta is a batch update ΔG: a sequence of edge insertions and deletions.
// Insertions may reference freshly added nodes (callers add those nodes to
// the graph with AddNode before recording the edge op; isolated nodes do
// not affect matches of connected patterns until their edges land).
type Delta struct {
	Ops []EdgeOp
}

// AttrOp is a unit attribute update: set attribute Attr of Node to Val.
// The paper's unit updates are edge-only (§5.2); attribute ops extend the
// batch pipeline for the repair path, where a fix reassigns attributes of a
// violating node. They commit through session.(*Session).CommitBatch so the
// WAL, change feed and attribute indexes all observe an ordinary batch.
type AttrOp struct {
	Node NodeID
	Attr AttrID
	Val  Value
}

func (op AttrOp) String() string {
	return fmt.Sprintf("set(%d.%d = %s)", op.Node, op.Attr, op.Val)
}

// NormalizeAttrOps coalesces attribute ops against base: the last op per
// (node, attr) wins, and ops restating the current value are elided — the
// effect-only shape the session's attr reconciliation expects. Order of
// first effective appearance is preserved.
func NormalizeAttrOps(base *Graph, ops []AttrOp) []AttrOp {
	if len(ops) == 0 {
		return nil
	}
	type key struct {
		node NodeID
		attr AttrID
	}
	last := make(map[key]Value, len(ops))
	order := make([]key, 0, len(ops))
	for _, op := range ops {
		k := key{op.Node, op.Attr}
		if _, seen := last[k]; !seen {
			order = append(order, k)
		}
		last[k] = op.Val
	}
	var out []AttrOp
	for _, k := range order {
		v := last[k]
		if base.Attr(k.node, k.attr).Equal(v) {
			continue
		}
		out = append(out, AttrOp{Node: k.node, Attr: k.attr, Val: v})
	}
	return out
}

// Insert records insert(u -label-> v).
func (d *Delta) Insert(u, v NodeID, label LabelID) {
	d.Ops = append(d.Ops, EdgeOp{Insert: true, Src: u, Dst: v, Label: label})
}

// Delete records delete(u -label-> v).
func (d *Delta) Delete(u, v NodeID, label LabelID) {
	d.Ops = append(d.Ops, EdgeOp{Insert: false, Src: u, Dst: v, Label: label})
}

// Len reports |ΔG|.
func (d *Delta) Len() int { return len(d.Ops) }

// Insertions returns ΔG⁺.
func (d *Delta) Insertions() []EdgeOp { return d.filter(true) }

// Deletions returns ΔG⁻.
func (d *Delta) Deletions() []EdgeOp { return d.filter(false) }

func (d *Delta) filter(insert bool) []EdgeOp {
	var ops []EdgeOp
	for _, op := range d.Ops {
		if op.Insert == insert {
			ops = append(ops, op)
		}
	}
	return ops
}

// Normalize reduces ΔG against base so that ΔG⁺ contains only edges absent
// from base and ΔG⁻ only edges present in base, with the last op per edge
// winning. The result applied to base yields the same graph as the original
// sequence, and ΔG⁺ ∩ ΔG⁻ = ∅, the shape IncDect expects.
func (d *Delta) Normalize(base *Graph) *Delta {
	type key struct {
		src, dst NodeID
		label    LabelID
	}
	last := make(map[key]bool, len(d.Ops))
	order := make([]key, 0, len(d.Ops))
	for _, op := range d.Ops {
		k := key{op.Src, op.Dst, op.Label}
		if _, seen := last[k]; !seen {
			order = append(order, k)
		}
		last[k] = op.Insert
	}
	out := &Delta{}
	for _, k := range order {
		ins := last[k]
		exists := base.HasEdgeL(k.src, k.dst, k.label)
		if ins && !exists {
			out.Insert(k.src, k.dst, k.label)
		} else if !ins && exists {
			out.Delete(k.src, k.dst, k.label)
		}
	}
	return out
}

// Apply mutates g in place, turning it into g ⊕ ΔG.
func (d *Delta) Apply(g *Graph) {
	g.Apply(d)
}

// ApplyStats reports what (*Graph).Apply committed.
type ApplyStats struct {
	Inserted  int // edges actually added
	Deleted   int // edges actually removed
	NoOps     int // ops without effect (re-insert of an existing edge, delete of a missing one)
	Compacted int // adjacency lists reallocated to shed slack capacity
}

// Apply commits ΔG into g in place: g becomes g ⊕ ΔG. Ops apply in order,
// so an un-normalized delta commits to the same graph as its Normalize(g)
// form (ineffective ops are counted as NoOps rather than erroring).
// Adjacency lists of touched nodes are compacted when the churn leaves
// excess backing capacity, so a long-lived graph under a steady
// insert/delete stream does not accrete slack.
//
// Attribute indexes need no maintenance here: ΔG carries edge ops only,
// and node/attribute arrivals are indexed at SetAttrA time, so every index
// built by EnsureAttrIndex stays identical to a fresh rebuild. Edge-value
// indexes follow the edge ops through AddEdgeL and DeleteEdgeL.
func (g *Graph) Apply(d *Delta) ApplyStats {
	var st ApplyStats
	touched := make(map[NodeID]struct{}, len(d.Ops)*2)
	for _, op := range d.Ops {
		var effective bool
		if op.Insert {
			effective = g.AddEdgeL(op.Src, op.Dst, op.Label)
			if effective {
				st.Inserted++
			}
		} else {
			effective = g.DeleteEdgeL(op.Src, op.Dst, op.Label)
			if effective {
				st.Deleted++
			}
		}
		if effective {
			touched[op.Src] = struct{}{}
			touched[op.Dst] = struct{}{}
		} else {
			st.NoOps++
		}
	}
	for v := range touched {
		if compactHalves(g.out, v) {
			st.Compacted++
		}
		if compactHalves(g.in, v) {
			st.Compacted++
		}
	}
	return st
}

// compactHalves reallocates v's adjacency list in t when its backing array
// is at least twice (and ≥ 8 entries beyond) its length.
func compactHalves(t pages[[]Half], v NodeID) bool {
	l := *t.at(v)
	if cap(l)-len(l) < 8 || cap(l) < 2*len(l) {
		return false
	}
	s, _ := t.mut(v)
	*s = append(make([]Half, 0, len(l)), l...)
	return true
}

// Inverse returns the ΔG that undoes d (valid for normalized deltas).
func (d *Delta) Inverse() *Delta {
	inv := &Delta{Ops: make([]EdgeOp, 0, len(d.Ops))}
	for i := len(d.Ops) - 1; i >= 0; i-- {
		op := d.Ops[i]
		op.Insert = !op.Insert
		inv.Ops = append(inv.Ops, op)
	}
	return inv
}

// TouchedNodes returns the distinct nodes appearing on edges of ΔG, in
// first-appearance order — the seeds of the dΣ-neighborhood G_dΣ(ΔG).
func (d *Delta) TouchedNodes() []NodeID {
	seen := make(map[NodeID]struct{}, len(d.Ops)*2)
	var nodes []NodeID
	add := func(v NodeID) {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			nodes = append(nodes, v)
		}
	}
	for _, op := range d.Ops {
		add(op.Src)
		add(op.Dst)
	}
	return nodes
}
