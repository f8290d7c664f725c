// Package ref is the reference oracle: Vio(Σ, G) computed straight from the
// paper's declarative definition (§2–§3) — every homomorphism h of Q into G
// with h ⊨ X and h ⊭ Y — by plain backtracking. It shares nothing with the
// engine (no plan, cost model, index, filter, prefix sharing, literal
// schedule, matcher or pool), which is the point: every differential suite
// checks the optimized detectors against this one executable specification
// instead of against themselves with switches flipped. It is for tests only;
// ngdlint rejects imports of this package from production code.
package ref

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/pattern"
)

// Keys renders a violation list in the form every differential compares:
// its keys sorted, one a line, duplicates kept.
func Keys(vs []core.Violation) string {
	keys := make([]string, len(vs))
	for i, v := range vs {
		keys[i] = v.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// Delta returns ΔVio(Σ, G, ΔG) by definition: the violations of G ⊕ ΔG
// that G lacks (plus) and those of G that G ⊕ ΔG lacks (minus), each in
// Detect's order. g is not modified.
func Delta(g *graph.Graph, rules *core.Set, d *graph.Delta) (plus, minus []core.Violation) {
	before := Detect(g, rules)
	after := Detect(Apply(g, d), rules)
	return missing(after, before), missing(before, after)
}

// Graph is what the oracle reads of a graph. It is ref's own, so the
// engine, which reads *graph.Graph alone, names no interface over a graph;
// *graph.Graph, Apply's G ⊕ ΔG and a test's map-backed graph implement it.
type Graph interface {
	Symbols() *graph.Symbols
	NumNodes() int
	Label(v graph.NodeID) graph.LabelID
	Attr(v graph.NodeID, a graph.AttrID) graph.Value
	Out(v graph.NodeID) []graph.Half
	In(v graph.NodeID) []graph.Half
	HasEdgeL(u, v graph.NodeID, l graph.LabelID) bool
}

var (
	_ Graph = (*graph.Graph)(nil)
	_ Graph = (*applied)(nil)
)

// Apply returns G ⊕ ΔG by definition (§5.2), without the engine's Apply,
// Normalize or Clone: g's edge set with ΔG's ops applied, the last op on an
// edge deciding whether it is in. Labels and attributes are g's. g must not
// change while the view is read.
func Apply(g *graph.Graph, d *graph.Delta) Graph {
	a := &applied{g: g, last: make(map[edge]bool), out: make(map[graph.NodeID][]graph.Half),
		in: make(map[graph.NodeID][]graph.Half)}
	for _, op := range d.Ops {
		e := edge{op.Src, op.Dst, op.Label}
		a.last[e] = op.Insert
		a.out[e.src] = append(a.out[e.src], graph.Half{Label: e.label, To: e.dst})
		a.in[e.dst] = append(a.in[e.dst], graph.Half{Label: e.label, To: e.src})
	}
	// a touched node's list: g's and the ops' halves, those the edge set
	// holds, sorted by (Label, To), each once
	list := func(v graph.NodeID, ops, base []graph.Half, out bool) []graph.Half {
		var l []graph.Half
		for _, h := range append(ops, base...) {
			e := edge{v, h.To, h.Label}
			if !out {
				e.src, e.dst = h.To, v
			}
			if a.HasEdgeL(e.src, e.dst, e.label) {
				l = append(l, h)
			}
		}
		slices.SortFunc(l, func(x, y graph.Half) int {
			return cmp.Or(cmp.Compare(x.Label, y.Label), cmp.Compare(x.To, y.To))
		})
		return slices.Compact(l)
	}
	for v, ops := range a.out {
		a.out[v] = list(v, ops, g.Out(v), true)
	}
	for v, ops := range a.in {
		a.in[v] = list(v, ops, g.In(v), false)
	}
	return a
}

type edge struct {
	src, dst graph.NodeID
	label    graph.LabelID
}

// applied is the graph Apply returns: the lists of the nodes ΔG touches,
// and g for the rest.
type applied struct {
	g       *graph.Graph
	last    map[edge]bool // the last op on each edge ΔG names: insert?
	out, in map[graph.NodeID][]graph.Half
}

func (a *applied) Symbols() *graph.Symbols            { return a.g.Symbols() }
func (a *applied) NumNodes() int                      { return a.g.NumNodes() }
func (a *applied) Label(v graph.NodeID) graph.LabelID { return a.g.Label(v) }

func (a *applied) Attr(v graph.NodeID, at graph.AttrID) graph.Value { return a.g.Attr(v, at) }

func (a *applied) Out(v graph.NodeID) []graph.Half {
	if l, ok := a.out[v]; ok {
		return l
	}
	return a.g.Out(v)
}

func (a *applied) In(v graph.NodeID) []graph.Half {
	if l, ok := a.in[v]; ok {
		return l
	}
	return a.g.In(v)
}

func (a *applied) HasEdgeL(u, v graph.NodeID, l graph.LabelID) bool {
	if ins, ok := a.last[edge{u, v, l}]; ok {
		return ins
	}
	return a.g.HasEdgeL(u, v, l)
}

// missing lists the violations of a whose keys b lacks.
func missing(a, b []core.Violation) []core.Violation {
	in := make(map[string]bool, len(b))
	for _, v := range b {
		in[v.Key()] = true
	}
	var out []core.Violation
	for _, v := range a {
		if !in[v.Key()] {
			out = append(out, v)
		}
	}
	return out
}

// step binds one pattern node.
type step struct {
	node int
	// anchor is a pattern edge joining node to an already-bound node, whose
	// adjacency list supplies the candidates; -1 when there is none and the
	// candidates are all of V.
	anchor int
	// checks are the pattern edges this binding completes (anchor included);
	// every one is verified with HasEdgeL.
	checks []int
}

// Detect returns Vio(Σ, v), rules in Σ order.
func Detect(v Graph, rules *core.Set) []core.Violation {
	var out []core.Violation
	syms := v.Symbols()
	for _, r := range rules.Rules {
		p := r.Pattern
		nodeL := make([]graph.LabelID, len(p.Nodes))
		for i, n := range p.Nodes {
			nodeL[i] = syms.LookupLabel(n.Label) // "_" is interned as Wildcard
		}
		edgeL := make([]graph.LabelID, len(p.Edges))
		for i, e := range p.Edges {
			edgeL[i] = syms.LookupLabel(e.Label)
		}
		steps := order(p)

		m := make(core.Match, len(p.Nodes))
		var bind func(k int)
		bind = func(k int) {
			if k == len(steps) {
				if violated(v, r, m) {
					out = append(out, core.Violation{Rule: r, Match: m.Clone()})
				}
				return
			}
			st := steps[k]
			try := func(id graph.NodeID) {
				if nodeL[st.node] != graph.Wildcard && v.Label(id) != nodeL[st.node] {
					return
				}
				m[st.node] = id
				for _, ei := range st.checks {
					if e := p.Edges[ei]; !v.HasEdgeL(m[e.Src], m[e.Dst], edgeL[ei]) {
						return
					}
				}
				bind(k + 1)
			}
			if st.anchor < 0 {
				for n := 0; n < v.NumNodes(); n++ {
					try(graph.NodeID(n))
				}
				return
			}
			var list []graph.Half
			if e := p.Edges[st.anchor]; e.Src == st.node {
				list = v.In(m[e.Dst]) // node → bound: the bound node's in-list
			} else {
				list = v.Out(m[e.Src]) // bound → node: its out-list
			}
			for _, h := range list {
				if h.Label == edgeL[st.anchor] {
					try(h.To)
				}
			}
		}
		bind(0)
	}
	return out
}

// violated reports h ⊨ X and h ⊭ Y for match m of r in v, each literal
// decided by expr.Compare over v's attributes.
func violated(v Graph, r *core.NGD, m core.Match) bool {
	syms := v.Symbols()
	b := func(variable, attr string) (graph.Value, bool) {
		idx, a := r.Pattern.VarIndex(variable), syms.LookupAttr(attr)
		if idx < 0 || idx >= len(m) || a < 0 {
			return graph.Value{}, false
		}
		val := v.Attr(m[idx], a)
		return val, val.Valid()
	}
	return core.SatisfiesAll(r.X, b) && !core.SatisfiesAll(r.Y, b)
}

// order fixes the binding order: the lowest-index pattern node with an edge
// to an already-bound node, else the lowest-index unbound one. Any order
// enumerates the same matches; this one anchors every node after a
// component's first, so the search walks edges of G instead of multiplying
// out |V| candidates per pattern node (which takes minutes per rule on the
// 1.4k-node fuzz graphs).
func order(p *pattern.Pattern) []step {
	bound := make([]bool, len(p.Nodes))
	steps := make([]step, 0, len(p.Nodes))
	for len(steps) < len(p.Nodes) {
		st := step{node: -1, anchor: -1}
		for i := range p.Nodes {
			if bound[i] {
				continue
			}
			if st.node < 0 {
				st.node = i
			}
			if a := edgeToBound(p, bound, i); a >= 0 {
				st.node, st.anchor = i, a
				break
			}
		}
		bound[st.node] = true
		for ei, e := range p.Edges {
			if (e.Src == st.node || e.Dst == st.node) && bound[e.Src] && bound[e.Dst] {
				st.checks = append(st.checks, ei)
			}
		}
		steps = append(steps, st)
	}
	return steps
}

// edgeToBound returns a pattern edge joining unbound node i to a bound node,
// or -1.
func edgeToBound(p *pattern.Pattern, bound []bool, i int) int {
	for ei, e := range p.Edges {
		if (e.Src == i && bound[e.Dst]) || (e.Dst == i && bound[e.Src]) {
			return ei
		}
	}
	return -1
}
