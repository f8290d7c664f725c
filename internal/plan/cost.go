package plan

import (
	"math"

	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/pattern"
)

// This file implements the matching-order builder — the only planner in the
// repository. Each candidate step is scored with an expected-work estimate
// from the graph's maintained statistics:
//
//   seed cost       = |best attribute-index run| when a seedable filter
//                     predicate covers the node, else the label-bucket size
//                     (|V| for wildcards);
//   extension cost  = card × fan, where card is the running estimate of
//                     partial matches produced so far and fan the mean
//                     adjacency-run length of the anchor edge's label on the
//                     anchor node's label (graph.LiveStats);
//
// and the greedy loop picks the cheapest next step. Anchored extensions are
// always preferred over seeding a new component (an anchored scan touches
// one adjacency run per partial match; a seed rescans a global candidate
// population), which also keeps pivot-anchored incremental plans free of
// seed steps. Every ordering covers the
// same pattern with the same edge checks, so plan choice can never change
// the violation set — only the work done to enumerate it.

// cardCap keeps the running cardinality estimate finite under long chains
// of high-fan-out extensions.
const cardCap = 1e18

// cutSlots is the (bound side, free side) slot pair of one ¬Y cut.
type cutSlots struct{ bound, free int }

// ensureSeedIndexes builds the attribute indexes a plan's seed steps may
// read over v. A pivot-anchored plan over a connected pattern has no seed
// steps, so index construction would buy nothing (the filters still apply
// as residual per-candidate checks).
func ensureSeedIndexes(v *graph.Graph, cp *pattern.Compiled, bound []int, f match.Filters) {
	if f != nil && !(len(bound) > 0 && cp.Src.Connected()) {
		match.EnsureIndexes(v, cp, f)
	}
}

// costPlan computes a matching order for (the unbound part of) cp over v.
// f carries the candidate filters to attach (nil: the rule has none), cuts
// the ¬Y cuts of the rules the plan serves.
func costPlan(v *graph.Graph, cp *pattern.Compiled, bound []int, f match.Filters, cuts []cutSlots) *match.Plan {
	if f != nil && f.Empty() {
		f = nil
	}
	n := len(cp.Src.Nodes)
	isBound := make([]bool, n)
	for _, b := range bound {
		isBound[b] = true
	}
	pl := &match.Plan{CP: cp, Bound: append([]int(nil), bound...), Filters: f}

	ensureSeedIndexes(v, cp, bound, f)

	st := v.LiveStats()

	incident := make([][]int, n)
	for ei, e := range cp.Src.Edges {
		incident[e.Src] = append(incident[e.Src], ei)
		if e.Dst != e.Src {
			incident[e.Dst] = append(incident[e.Dst], ei)
		}
	}

	remaining := 0
	for i := 0; i < n; i++ {
		if !isBound[i] {
			remaining++
		}
	}
	card := 1.0
	for remaining > 0 {
		type choice struct {
			node       int
			anchorEdge int // -1: seed
			anchorFrom int
			anchorOut  bool
			boundEdges int     // anchored edges into the bound set
			fan        float64 // expected fan-out of the anchor edge
			cost       float64 // expected scan work of this step
			out        float64 // estimated partial-match count after the step
		}
		choices := make([]choice, 0, remaining)
		anyAnchored := false
		for i := 0; i < n; i++ {
			if isBound[i] {
				continue
			}
			ch := choice{node: i, anchorEdge: -1}
			minFan := math.Inf(1)
			for _, ei := range incident[i] {
				e := cp.Src.Edges[ei]
				if e.Src == e.Dst {
					continue // self loop: no bound neighbor
				}
				other := e.Src + e.Dst - i
				if !isBound[other] {
					continue
				}
				ch.boundEdges++
				// candidates come from the *other* node's adjacency: if the
				// edge is other -> i, follow other's out-list.
				out := e.Src == other
				fan := fanEstimate(v, st, cp, other, cp.EdgeLabels[ei], out)
				if fan < minFan {
					minFan = fan
					ch.anchorEdge, ch.anchorFrom, ch.anchorOut = ei, other, out
				}
			}
			if ch.anchorEdge >= 0 {
				anyAnchored = true
				ch.fan = minFan
				ch.cost = card * minFan
				ch.out = ch.cost
				// every extra anchored edge is a verified constraint that
				// thins the surviving candidates
				for k := 1; k < ch.boundEdges; k++ {
					ch.out /= 2
				}
			} else {
				sz, _ := seedEstimate(v, cp, i, f)
				ch.cost = card * float64(sz)
				ch.out = ch.cost
			}
			choices = append(choices, ch)
		}
		var best *choice
		// a cut's bound side reached with fan-out ≤ 1 goes first, while its
		// free side is unbound: the cut then runs before the scans it removes
		for j := range choices {
			ch := &choices[j]
			if ch.anchorEdge >= 0 && ch.fan <= 1 && opensCut(ch.node, isBound, cuts) &&
				(best == nil || ch.cost < best.cost) {
				best = ch
			}
		}
		if best == nil {
			// otherwise the cheapest step, anchored before seeded
			for j := range choices {
				ch := &choices[j]
				if anyAnchored && ch.anchorEdge < 0 {
					continue // never seed while an extension is available
				}
				if best == nil || ch.cost < best.cost ||
					(ch.cost == best.cost && ch.boundEdges > best.boundEdges) {
					best = ch
				}
			}
		}

		step := match.Step{Node: best.node, AnchorEdge: best.anchorEdge,
			AnchorFrom: best.anchorFrom, AnchorOut: best.anchorOut, SeedPred: -1}
		for _, ei := range incident[best.node] {
			e := cp.Src.Edges[ei]
			if e.Src == e.Dst {
				if e.Src == best.node {
					step.Checks = append(step.Checks, match.EdgeCheck{Edge: ei, Out: true, Other: best.node})
				}
				continue
			}
			other := e.Src + e.Dst - best.node
			if !isBound[other] || ei == best.anchorEdge {
				continue
			}
			step.Checks = append(step.Checks, match.EdgeCheck{Edge: ei, Out: e.Src == best.node, Other: other})
		}
		if step.AnchorEdge < 0 && f != nil {
			_, step.SeedPred = seedEstimate(v, cp, best.node, f)
		}
		pl.Steps = append(pl.Steps, step)
		isBound[best.node] = true
		remaining--
		card = math.Min(math.Max(best.out, 1), cardCap)
	}
	return pl
}

// opensCut reports whether binding node next enables a cut: next is a cut's
// bound side and its free side is still unbound.
func opensCut(next int, isBound []bool, cuts []cutSlots) bool {
	for _, c := range cuts {
		if c.bound == next && !isBound[c.free] {
			return true
		}
	}
	return false
}

// fanEstimate is the expected run length of the (label(from), edgeLabel)
// adjacency scan.
func fanEstimate(v *graph.Graph, st *graph.LiveStats, cp *pattern.Compiled, from int, el graph.LabelID, out bool) float64 {
	if out {
		return st.OutFan(v, cp.NodeLabels[from], el)
	}
	return st.InFan(v, cp.NodeLabels[from], el)
}

// seedEstimate is the candidate-population size of seeding at node: the
// smallest seedable attribute-index run when one applies, else the label
// bucket (|V| for wildcards). pred is the chosen predicate index (-1: label
// scan).
func seedEstimate(v *graph.Graph, cp *pattern.Compiled, node int, f match.Filters) (size, pred int) {
	size = v.CountLabel(cp.NodeLabels[node])
	if cp.NodeLabels[node] == graph.NoLabel {
		size = 0
	}
	pred = -1
	if f != nil {
		if p, sz := match.SeedScan(v, cp, node, f); p >= 0 && sz < size {
			size, pred = sz, p
		}
	}
	return size, pred
}
