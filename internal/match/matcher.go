package match

import (
	"ngd/internal/graph"
	"ngd/internal/pattern"
)

// Hooks customize enumeration. All fields are optional.
type Hooks struct {
	// OnExtend runs after binding step k's node; return false to prune the
	// branch (used for literal-based candidate pruning, §6.2 step (3)).
	OnExtend func(step int, partial []graph.NodeID) bool
}

// Counters accumulate work metrics for the localizability analysis and the
// parallel cost model.
type Counters struct {
	Candidates int // adjacency entries / label-index entries scanned
	Checks     int // edge verifications performed
	Matches    int // complete matches emitted
	Cuts       int // branches the ¬Y cut pruned (detect.LitEval)
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Candidates += o.Candidates
	c.Checks += o.Checks
	c.Matches += o.Matches
	c.Cuts += o.Cuts
}

// Matcher enumerates homomorphisms of a compiled pattern in a graph view
// following a Plan.
type Matcher struct {
	G    graph.View
	CP   *pattern.Compiled
	Plan *Plan
	Hook Hooks
	Stat Counters

	stop bool
}

// NewMatcher builds a matcher over g for plan p.
func NewMatcher(g graph.View, p *Plan, h Hooks) *Matcher {
	return &Matcher{G: g, CP: p.CP, Plan: p, Hook: h}
}

// VerifyBound checks every pattern edge whose endpoints are all bound in
// partial (needed for pre-bound update pivots that span several pattern
// edges) and the node labels of the bound nodes.
func VerifyBound(g graph.View, cp *pattern.Compiled, partial []graph.NodeID) bool {
	for i, v := range partial {
		if v == Unbound {
			continue
		}
		if !cp.NodeMatches(i, g.Label(v)) {
			return false
		}
	}
	for ei, e := range cp.Src.Edges {
		u, v := partial[e.Src], partial[e.Dst]
		if u == Unbound || v == Unbound {
			continue
		}
		if cp.EdgeLabels[ei] == graph.NoLabel || !g.HasEdgeL(u, v, cp.EdgeLabels[ei]) {
			return false
		}
	}
	return true
}

// Run enumerates all matches extending the given partial solution (Unbound
// entries are filled following the plan) and calls emit for each complete
// match. Returning false from emit stops the enumeration. The partial slice
// is reused across calls to emit; callers must copy it to retain it.
func (m *Matcher) Run(partial []graph.NodeID, emit func([]graph.NodeID) bool) {
	m.stop = false
	m.expand(0, partial, emit)
}

// CandidateCount reports how many raw candidates step k would scan for the
// given partial solution — the sequential-cost estimate |h(u_r).adj| the
// parallel engine feeds into the split decision of §6.3.
func (m *Matcher) CandidateCount(k int, partial []graph.NodeID) int {
	st := &m.Plan.Steps[k]
	if st.AnchorEdge < 0 {
		if run, ok := m.seedIndexRun(st); ok {
			return run.Len()
		}
		l := m.CP.NodeLabels[st.Node]
		if l == graph.NoLabel {
			return 0
		}
		return m.G.CountLabel(l)
	}
	el := m.CP.EdgeLabels[st.AnchorEdge]
	if el == graph.NoLabel {
		return 0
	}
	from := partial[st.AnchorFrom]
	if st.AnchorOut {
		return len(graph.LabelRun(m.G.Out(from), el))
	}
	return len(graph.LabelRun(m.G.In(from), el))
}

// CandidatesRange is Candidates restricted to the half-open slot range
// [lo, hi) of the raw candidate list — the "partial adjacency copy v.adjᵢ"
// a worker holds after a skewed work unit is split (§6.3). hi < 0 means the
// end of the list.
func (m *Matcher) CandidatesRange(k int, partial []graph.NodeID, lo, hi int, yield func(graph.NodeID) bool) int {
	st := &m.Plan.Steps[k]
	scanned := 0
	emit := func(v graph.NodeID, ok bool) bool {
		scanned++
		if !ok {
			return true
		}
		return yield(v)
	}
	if st.AnchorEdge < 0 {
		if run, ok := m.seedIndexRun(st); ok {
			if hi < 0 {
				hi = run.Len()
			}
			for v := range run.Nodes(lo, hi) {
				if !emit(v, m.filterOK(st.Node, v)) {
					return scanned
				}
			}
			return scanned
		}
		l := m.CP.NodeLabels[st.Node]
		if l == graph.NoLabel {
			return 0
		}
		if l == graph.Wildcard {
			n := m.G.NumNodes()
			if hi < 0 || hi > n {
				hi = n
			}
			for v := lo; v < hi; v++ {
				if !emit(graph.NodeID(v), m.filterOK(st.Node, graph.NodeID(v))) {
					return scanned
				}
			}
			return scanned
		}
		cands := m.G.NodesWithLabel(l)
		if hi < 0 || hi > len(cands) {
			hi = len(cands)
		}
		for _, v := range cands[lo:hi] {
			if !emit(v, m.filterOK(st.Node, v)) {
				return scanned
			}
		}
		return scanned
	}
	el := m.CP.EdgeLabels[st.AnchorEdge]
	if el == graph.NoLabel {
		return 0
	}
	from := partial[st.AnchorFrom]
	var adj []graph.Half
	if st.AnchorOut {
		adj = m.G.Out(from)
	} else {
		adj = m.G.In(from)
	}
	run := graph.LabelRun(adj, el)
	if hi < 0 || hi > len(run) {
		hi = len(run)
	}
	if lo > len(run) {
		lo = len(run)
	}
	nl := m.CP.NodeLabels[st.Node]
	for _, h := range run[lo:hi] {
		ok := (nl == graph.Wildcard || m.G.Label(h.To) == nl) && m.filterOK(st.Node, h.To)
		if !emit(h.To, ok) {
			return scanned
		}
	}
	return scanned
}

// seedIndexRun resolves the attribute-index candidate run of a seed step
// the planner chose, if any.
func (m *Matcher) seedIndexRun(st *Step) (graph.IndexRun, bool) {
	if st.SeedPred < 0 || m.Plan.Filters == nil {
		return graph.IndexRun{}, false
	}
	return seedRun(m.G, m.CP, st.Node, &m.Plan.Filters[st.Node].Preds[st.SeedPred])
}

// filterOK applies the compiled candidate predicates of a pattern node to
// candidate v (§6.2 step (3)): a candidate falsifying a precondition
// literal can never yield a violation and is pruned before recursion.
func (m *Matcher) filterOK(node int, v graph.NodeID) bool {
	if m.Plan.Filters == nil {
		return true
	}
	preds := m.Plan.Filters[node].Preds
	for i := range preds {
		if !preds[i].Holds(m.G, v) {
			return false
		}
	}
	return true
}

// Candidates yields the candidate nodes for step k given the current
// partial solution (paper: refine C(u)); used directly by the parallel
// engine to split skewed work units. The yield function returns false to
// stop early. The returned int is the number of adjacency entries scanned
// (the sequential cost |h(u_r).adj| of §6.3).
func (m *Matcher) Candidates(k int, partial []graph.NodeID, yield func(graph.NodeID) bool) int {
	return m.CandidatesRange(k, partial, 0, -1, yield)
}

// CheckStep verifies the non-anchor pattern edges of step k against
// candidate v (paper §6.3 "verification").
func (m *Matcher) CheckStep(k int, partial []graph.NodeID, v graph.NodeID) bool {
	st := &m.Plan.Steps[k]
	for _, c := range st.Checks {
		el := m.CP.EdgeLabels[c.Edge]
		if el == graph.NoLabel {
			return false
		}
		other := v
		if c.Other != st.Node {
			other = partial[c.Other]
		}
		m.Stat.Checks++
		var ok bool
		if c.Out {
			ok = m.G.HasEdgeL(v, other, el)
		} else {
			ok = m.G.HasEdgeL(other, v, el)
		}
		if !ok {
			return false
		}
	}
	return true
}

func (m *Matcher) expand(k int, partial []graph.NodeID, emit func([]graph.NodeID) bool) {
	if m.stop {
		return
	}
	if k == len(m.Plan.Steps) {
		m.Stat.Matches++
		if !emit(partial) {
			m.stop = true
		}
		return
	}
	st := &m.Plan.Steps[k]
	m.Stat.Candidates += m.Candidates(k, partial, func(v graph.NodeID) bool {
		if !m.CheckStep(k, partial, v) {
			return true
		}
		partial[st.Node] = v
		if m.Hook.OnExtend == nil || m.Hook.OnExtend(k, partial) {
			m.expand(k+1, partial, emit)
		}
		partial[st.Node] = Unbound
		return !m.stop
	})
}

// NewPartial returns an all-Unbound partial solution for pattern p.
func NewPartial(n int) []graph.NodeID {
	p := make([]graph.NodeID, n)
	for i := range p {
		p[i] = Unbound
	}
	return p
}
