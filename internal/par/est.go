package par

// LiveStats-driven cost estimation (PR 6): the split decision and the skew
// balancer used to see only what a unit's own scan exposes (its candidate
// count, its queue position). The graph's maintained statistics
// (graph.LiveStats, PR 5) let the engine estimate what lies *below* a unit
// — the expected fan-out of every deeper plan step — so shallow units are
// recognized as the big subtrees they are. The estimates are deterministic
// functions of the graph, so the virtual oracle stays bit-reproducible and
// both schedulers keep expanding the exact same unit multiset.

import (
	"ngd/internal/graph"
	"ngd/internal/match"
)

// estCap bounds the fan products so a deep plan over a dense label cannot
// push the estimates into float territory where comparisons degrade.
const estCap = 1e9

// viewStats returns the maintained statistics behind v, nil when the view
// carries none.
func viewStats(v graph.View) *graph.LiveStats {
	if s, ok := v.(graph.LiveStatted); ok {
		return s.LiveStats()
	}
	return nil
}

// stepFan estimates the candidate count of plan step d: the mean adjacency
// run length for anchored steps (from the maintained per-(node label, edge
// label) aggregates), the label-bucket size for seed scans.
func stepFan(v graph.View, st *graph.LiveStats, pl *match.Plan, d int) float64 {
	s := &pl.Steps[d]
	if s.AnchorEdge >= 0 {
		el := pl.CP.EdgeLabels[s.AnchorEdge]
		from := pl.CP.NodeLabels[s.AnchorFrom]
		if s.AnchorOut {
			return st.OutFan(v, from, el)
		}
		return st.InFan(v, from, el)
	}
	if l := pl.CP.NodeLabels[s.Node]; l != graph.Wildcard {
		return float64(v.CountLabel(l))
	}
	return float64(v.NumNodes())
}

// planEst computes per-depth (width, below) estimates for one plan:
// width[d] ≈ candidates scanned at step d per expansion, below[d] ≈ the
// expected scan cost of the whole subtree under one candidate bound at d
// (the backward product of the deeper fans).
func planEst(v graph.View, st *graph.LiveStats, pl *match.Plan) (width, below []float64) {
	k := len(pl.Steps)
	if k == 0 {
		return nil, nil
	}
	width = make([]float64, k)
	below = make([]float64, k)
	for d := 0; d < k; d++ {
		f := stepFan(v, st, pl, d)
		if f > estCap {
			f = estCap
		}
		width[d] = f
	}
	for d := k - 2; d >= 0; d-- {
		b := width[d+1] * (1 + below[d+1])
		if b > estCap {
			b = estCap
		}
		below[d] = b
	}
	return width, below
}

// buildEstimates derives the per-task estimates from each task view's
// maintained statistics; tasks over plain views stay unestimated.
func (e *engine) buildEstimates() {
	for t := range e.tasks {
		st := viewStats(e.tasks[t].view)
		if st == nil {
			continue
		}
		if e.estWidth == nil {
			e.estWidth = make([][]float64, len(e.tasks))
			e.estBelow = make([][]float64, len(e.tasks))
		}
		e.estWidth[t], e.estBelow[t] = planEst(e.tasks[t].view, st, e.tasks[t].plan)
	}
}
