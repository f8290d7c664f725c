// Package inc implements IncDect (paper §6.2): sequential, localizable,
// incremental detection of NGD violations under a batch update ΔG.
//
// IncDect incrementalizes subgraph matching by update-driven evaluation:
// every unit update (v,v') that can match a pattern edge (u,u') forms an
// *update pivot* hup(u,u') = (v,v'); violations are enumerated only by
// expanding pivots, so the work is confined to the dΣ-neighborhoods of the
// nodes touched by ΔG (localizability, §6.1).
//
// Correctness rests on the paper's observation that edge insertions only
// add violations and deletions only remove them (attributes are untouched
// by unit updates): ΔVio⁺ are the violating matches of G ⊕ ΔG that use at
// least one inserted edge, ΔVio⁻ the violating matches of G that use at
// least one deleted edge. A match using several Δ-edges is emitted exactly
// once, by its lexicographically smallest (Δ-edge, pattern-edge-slot) pivot
// (the paper's "marks the combination of multiple update pivots").
//
// The paper expands every pivot once per rule. Here the pivots are expanded
// once per clone class (plan.Program.Classes): rules that are one dependency
// under several names have the same matches, so the class's first member is
// searched and each later member is handed its violations under its own
// name. The lists come out in Σ order, element for element as a search per
// rule would give them; the work counters and Pivots count a class once.
//
// IncDect searches both sides and needs nothing but G and ΔG. A caller that
// already holds Vio(Σ, G) — the session's store — searches only Plus: its
// ΔVio⁻ is the stored violations that use a deleted edge, which Minus looks
// up instead (reconcile.go, with the attribute reconciliation and the seeded
// one-slot search); IncDect's searched ΔVio⁻ is the specification that
// lookup is tested against.
package inc

import (
	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/plan"
)

// DeltaVio is the incremental answer ΔVio(Σ, G, ΔG) = (ΔVio⁺, ΔVio⁻).
type DeltaVio struct {
	Plus  []core.Violation // introduced by ΔG
	Minus []core.Violation // removed by ΔG
}

// Result carries the answer plus work counters (for the localizability and
// speedup analyses). A clone class's search counts once, however many rules
// it answers for.
type Result struct {
	DeltaVio
	Counters match.Counters
	// Pivots is the number of update pivots expanded.
	Pivots int
}

type edgeKey struct {
	src, dst graph.NodeID
	label    graph.LabelID
}

// EdgeIndex maps the unit updates of one side of a normalized ΔG (ΔG⁺ or
// ΔG⁻) to their rank in it. IncDect and PIncDect both decide with it which
// pivot owns a match that uses several Δ-edges.
type EdgeIndex map[edgeKey]int

// NewEdgeIndex indexes ops, the insertions or the deletions of a normalized
// ΔG (one op per edge).
func NewEdgeIndex(ops []graph.EdgeOp) EdgeIndex {
	idx := make(EdgeIndex, len(ops))
	for i, op := range ops {
		idx[edgeKey{op.Src, op.Dst, op.Label}] = i
	}
	return idx
}

// pivot identifies one update-driven search: Δ-edge rank `rank` pinned at
// pattern edge slot `slot`.
type pivot struct {
	rank int
	slot int
}

// Options tune IncDect.
type Options struct {
	// Program is the shared rule program to plan with; nil builds a
	// private one for this call. Long-lived callers (the session) pass
	// their own so the per-(rule, pivot-slot) plans are compiled once and
	// served from the cache on every subsequent batch.
	Program *plan.Program
	// Searchers reuses pre-bound searchers across calls (see
	// detect.SearcherCache); nil builds per-call searchers.
	Searchers *detect.SearcherCache
}

// Reusing returns the Options of a long-lived caller (the session): plans
// from prog, and searchers kept across calls.
func Reusing(prog *plan.Program) Options {
	return Options{Program: prog, Searchers: new(detect.SearcherCache)}
}

// searcher returns the pre-bound searcher for key: the cached one when
// Searchers is set, else a fresh one.
func (o Options) searcher(v graph.View, c *plan.Compiled, pl *match.Plan, key detect.SearcherKey) *detect.Searcher {
	if o.Searchers != nil {
		return o.Searchers.Get(v, c, pl, key)
	}
	return detect.NewSearcher(v, c, pl)
}

// IncDect computes ΔVio(Σ, G, ΔG). g is the *pre-update* graph; ΔG is
// normalized against it internally (so ΔG⁺ holds only genuinely new edges
// and ΔG⁻ only existing ones). g is not mutated: the caller decides when to
// Apply the delta.
func IncDect(g *graph.Graph, rules *core.Set, delta *graph.Delta, opts Options) *Result {
	norm := delta.Normalize(g)
	if opts.Program == nil {
		opts.Program = plan.New(g, rules, plan.Options{})
	}
	// ΔVio⁺: search G ⊕ ΔG from insertion pivots.
	res := Plus(graph.NewOverlay(g, norm), rules, norm.Insertions(), opts)
	// ΔVio⁻: search G from deletion pivots.
	res.search(g, rules, norm.Deletions(), false, opts)
	return res
}

// Plus computes ΔVio⁺ alone: the violating matches over v that use at least
// one edge of ins, the insertions of a normalized ΔG. v is G ⊕ ΔG — an
// overlay of the pre-update graph (IncDect) or the graph itself once ΔG is
// applied (the session, which reads ΔVio⁻ off its store instead of searching
// for it).
func Plus(v graph.View, rules *core.Set, ins []graph.EdgeOp, opts Options) *Result {
	if opts.Program == nil {
		opts.Program = plan.New(v, rules, plan.Options{})
	}
	res := &Result{}
	res.search(v, rules, ins, true, opts)
	return res
}

// search expands the pivots of one side of ΔG — ops, its insertions or its
// deletions — over one view, once per clone class of rules, and lists the
// violations rule by rule in Σ order. A class is searched at its first
// member, straight into the side's list; every later member is handed the
// same matches under its own name. Clones have the same matches, so the list
// is element for element the one a search per rule would give.
func (res *Result) search(v graph.View, rules *core.Set, ops []graph.EdgeOp, plus bool, opts Options) {
	if len(ops) == 0 {
		return
	}
	out := res.side(plus)
	idx := NewEdgeIndex(ops)
	classes, of := opts.Program.Classes(rules)
	// found[k] is class k's matches, (*out)[first:end], once its first member
	// is searched
	type span struct{ first, end int }
	found := make([]span, len(classes))
	for i, r := range rules.Rules {
		cl, sp := &classes[of[i]], &found[of[i]]
		if r == cl.C.Rule {
			sp.first = len(*out)
			res.searchRule(v, cl.C, ops, idx, plus, opts)
			sp.end = len(*out)
			continue
		}
		for _, vio := range (*out)[sp.first:sp.end] {
			*out = append(*out, core.Violation{Rule: r, Match: vio.Match})
		}
	}
}

// side returns the list the search of one side of ΔG appends to.
func (res *Result) side(plus bool) *[]core.Violation {
	if plus {
		return &res.Plus
	}
	return &res.Minus
}

// searchRule expands all pivots of one rule over one view, appending its
// violations to the side's list.
func (res *Result) searchRule(v graph.View, c *plan.Compiled, ops []graph.EdgeOp,
	idx EdgeIndex, plus bool, opts Options) {
	out := res.side(plus)

	// Per-call scratch, built on the first pivot that matches a pattern
	// edge label — a rule whose labels don't appear in ΔG costs nothing:
	//   - one searcher per pattern-edge slot (plan and literal schedule are
	//     pivot-independent, and a Searcher is sequentially reusable across
	//     Runs; with opts.Searchers they also persist across calls, rebound
	//     to this call's view — the slice only memoizes per-slot resolution)
	//   - one scratch partial for every (pivot, slot) pair (the searcher
	//     restores it on return, so only the two seeded slots need unbinding)
	//   - one emit closure, reading the current pivot through pv
	var searchers []*detect.Searcher
	var partial []graph.NodeID
	var emit func(core.Match) bool
	var pv pivot

	for rank, op := range ops {
		for slot, pe := range c.Rule.Pattern.Edges {
			if c.CP.EdgeLabels[slot] != op.Label {
				continue
			}
			if pe.Src == pe.Dst && op.Src != op.Dst {
				continue
			}
			if partial == nil {
				searchers = make([]*detect.Searcher, len(c.Rule.Pattern.Edges))
				partial = match.NewPartial(len(c.Rule.Pattern.Nodes))
				emit = func(m core.Match) bool {
					if !idx.SmallestPivot(c, m, pv.rank, pv.slot) {
						return true
					}
					*out = append(*out, core.Violation{Rule: c.Rule, Match: m.Clone()})
					return true
				}
			}
			partial[pe.Src] = op.Src
			partial[pe.Dst] = op.Dst
			if !match.VerifyBound(v, c.CP, partial) {
				partial[pe.Src], partial[pe.Dst] = match.Unbound, match.Unbound
				continue
			}
			s := searchers[slot]
			if s == nil {
				bound := []int{pe.Src}
				if pe.Dst != pe.Src {
					bound = append(bound, pe.Dst)
				}
				_, pl := opts.Program.PlanFor(v, c.Rule, bound)
				s = opts.searcher(v, c, pl, detect.EdgeSlotKey(c.Rule, pe.Src, pe.Dst, plus))
				searchers[slot] = s
			}
			res.Pivots++
			pv = pivot{rank: rank, slot: slot}
			stat := s.Run(partial, emit)
			partial[pe.Src], partial[pe.Dst] = match.Unbound, match.Unbound
			res.Counters.Add(stat)
		}
	}
}

// SmallestPivot reports whether (rank, slot) is the lexicographically
// smallest (Δ-edge rank, pattern edge slot) pair realized by match m of rule
// c — the dedup rule that makes each update-driven violation come out
// exactly once.
func (idx EdgeIndex) SmallestPivot(c *plan.Compiled, m []graph.NodeID, rank, slot int) bool {
	for s, pe := range c.Rule.Pattern.Edges {
		r, ok := idx[edgeKey{m[pe.Src], m[pe.Dst], c.CP.EdgeLabels[s]}]
		if !ok {
			continue
		}
		if r < rank || (r == rank && s < slot) {
			return false
		}
	}
	return true
}
