package par

import (
	"sort"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/partition"
	"ngd/internal/plan"
)

// placeSeeds distributes seed units across the P workers: heaviest first
// onto the least-loaded worker (lowest index on ties) by the balancer's
// unitWeight estimate. The sort is stable and unestimated units all weigh
// 1, so without maintained statistics this is exactly the round-robin
// distribution of the paper's line 5.
func (e *engine) placeSeeds(seeds []*unit) [][]*unit {
	weights := make([]float64, len(seeds))
	for i, u := range seeds {
		weights[i] = e.unitWeight(u)
	}
	order := make([]int, len(seeds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weights[order[a]] > weights[order[b]]
	})
	initial := make([][]*unit, e.opts.P)
	loads := make([]float64, e.opts.P)
	for _, i := range order {
		best := 0
		for w := 1; w < e.opts.P; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		initial[best] = append(initial[best], seeds[i])
		loads[best] += weights[i]
	}
	return initial
}

// runBatch executes prepared batch seeds under the selected scheduler.
func (e *engine) runBatch(seeds []*unit) *Result {
	tagged, met := e.exec(e.placeSeeds(seeds), 0)
	res := &Result{Metrics: met}
	for _, tv := range tagged {
		res.Violations = append(res.Violations, tv.vio)
	}
	return res
}

// PDect runs parallel batch detection of Vio(Σ, G) (§5.1: the extension of
// the GFD parallel batch algorithm to NGDs). Rules whose plans share a
// structural prefix are fanned out as forest units (shared.go), mirroring
// the sequential detector's shared-prefix enumeration. Initial work units
// are chunks of each seed-candidate list, placed heaviest-first by estimated
// cost; from there the hybrid strategy applies.
func PDect(g graph.View, rules *core.Set, opts Options) *Result {
	opts = opts.Defaults()
	sh := opts.program(g, rules).ShareFor(g, rules)
	e := newSharedEngine(opts, g, sh)
	return e.runBatch(e.seedShared())
}

// PIncDect runs parallel incremental detection of ΔVio(Σ, G, ΔG) (§6.3,
// Figure 3). g is the pre-update graph; ΔG is normalized internally. The
// update pivots triggered by ΔG are distributed across the p workers by
// fragment ownership; the candidate neighborhood NC(ΔG, Σ) is identified up
// front and its construction and replication cost charged to all workers.
func PIncDect(g *graph.Graph, rules *core.Set, delta *graph.Delta, opts Options) *Result {
	opts = opts.Defaults()
	norm := delta
	if !opts.AssumeNormalized {
		norm = delta.Normalize(g)
	}
	newView := graph.NewOverlay(g, norm)
	ins := norm.Insertions()
	del := norm.Deletions()

	insIdx := make(map[edgeKey]int, len(ins))
	for i, op := range ins {
		insIdx[edgeKey{op.Src, op.Dst, op.Label}] = i
	}
	delIdx := make(map[edgeKey]int, len(del))
	for i, op := range del {
		delIdx[edgeKey{op.Src, op.Dst, op.Label}] = i
	}

	// tasks: rule × pattern-edge slot × side
	prog := opts.program(g, rules)
	var tasks []task
	taskOf := make(map[[3]int]int) // (ruleIdx, slot, side) -> task index
	compiled := make([]*plan.Compiled, len(rules.Rules))
	for ri, r := range rules.Rules {
		compiled[ri] = prog.CompiledFor(r)
	}
	getTask := func(ri, slot int, plus bool) int {
		side := 0
		if plus {
			side = 1
		}
		key := [3]int{ri, slot, side}
		if idx, ok := taskOf[key]; ok {
			return idx
		}
		c := compiled[ri]
		var view graph.View = g
		if plus {
			view = newView
		}
		pe := c.Rule.Pattern.Edges[slot]
		bound := []int{pe.Src}
		if pe.Dst != pe.Src {
			bound = append(bound, pe.Dst)
		}
		_, pl := prog.PlanFor(view, c.Rule, bound)
		tasks = append(tasks, task{
			c: c, view: view, plan: pl,
			le:   detect.NewLitEval(view, c, pl),
			plus: plus, inc: true,
		})
		taskOf[key] = len(tasks) - 1
		return len(tasks) - 1
	}

	// seed update pivots (paper line 5)
	var seeds []*unit
	addPivots := func(ops []graph.EdgeOp, plus bool, view graph.View) {
		for rank, op := range ops {
			for ri, c := range compiled {
				if len(c.Rule.Y) == 0 {
					continue // X → ∅ can never be violated
				}
				for slot, pe := range c.Rule.Pattern.Edges {
					if c.CP.EdgeLabels[slot] != op.Label {
						continue
					}
					if pe.Src == pe.Dst && op.Src != op.Dst {
						continue
					}
					ti := getTask(ri, slot, plus)
					tk := &tasks[ti]
					partial := match.NewPartial(len(c.Rule.Pattern.Nodes))
					partial[pe.Src] = op.Src
					partial[pe.Dst] = op.Dst
					if !match.VerifyBound(view, c.CP, partial) {
						continue
					}
					prune, ySat := tk.le.EvalLevel(0, partial, 0)
					if prune {
						continue
					}
					seeds = append(seeds, &unit{
						task: ti, depth: 0, ySat: ySat,
						pivotRank: rank, pivotSlot: slot,
						partial: partial, lo: 0, hi: -1,
					})
				}
			}
		}
	}
	addPivots(ins, true, newView)
	addPivots(del, false, g)

	e := newEngine(opts, tasks)
	e.insIdx = insIdx
	e.delIdx = delIdx

	// Pivots are discovered fragment-locally (each processor scans the unit
	// updates landing in its fragment, Figure 3 lines 1–2), so a pivot's
	// initial owner is the shard its source node's fragment folds onto
	// (partition.Worker). This is what produces the regionally-skewed
	// workloads the hybrid strategy then splits and rebalances; see
	// partition.Greedy. A maintained partition supplied via opts.Part is
	// used as-is (the serving session keeps one current across commits);
	// only a one-shot call without one pays the full-graph build here.
	pt := opts.Part
	if pt == nil {
		pt = partition.Greedy(g, opts.P)
	}
	initial := make([][]*unit, opts.P)
	for _, u := range seeds {
		op := ins
		if !tasks[u.task].plus {
			op = del
		}
		w := pt.Worker(op[u.pivotRank].Src, opts.P)
		initial[w] = append(initial[w], u)
	}

	// candidate neighborhood NC(ΔG, Σ): identified in parallel, replicated
	// at all workers (Figure 3 lines 1–4); charged as |NC|/p work plus a
	// broadcast latency per worker.
	nc := newView.NeighborhoodOf(norm.TouchedNodes(), rules.Diameter())
	startCost := float64(len(nc))/float64(opts.P) + trueLatency

	tagged, met := e.exec(initial, startCost)
	met.NC = len(nc)
	res := &Result{Metrics: met}
	for _, tv := range tagged {
		if tv.plus {
			res.Delta.Plus = append(res.Delta.Plus, tv.vio)
		} else {
			res.Delta.Minus = append(res.Delta.Minus, tv.vio)
		}
	}
	return res
}
