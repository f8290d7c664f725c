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
	after := Detect(graph.NewOverlay(g, d.Normalize(g)), rules)
	return missing(after, before), missing(before, after)
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
func Detect(v graph.View, rules *core.Set) []core.Violation {
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
				if r.Violated(v, m) {
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
