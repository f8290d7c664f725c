package par

import (
	"sort"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/match"
	"ngd/internal/plan"
)

// placeSeeds distributes seed units across the P workers: heaviest first
// onto the least-loaded worker (lowest index on ties) by the balancer's
// unitWeight estimate. The sort is stable, so with every unit of equal
// weight this is exactly the round-robin distribution of the paper's line 5.
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

// PDect runs parallel batch detection of Vio(Σ, G) (§5.1: the extension of
// the GFD parallel batch algorithm to NGDs): the engine's one procedure run
// from batch seeds over Σ's prefix forest, mirroring the sequential
// detector's shared-prefix enumeration. Initial work units are chunks of
// each seed-candidate list (shared.go), placed heaviest-first by estimated
// cost; from there the hybrid strategy applies.
func PDect(g *graph.Graph, rules *core.Set, opts Options) *Result {
	opts = opts.Defaults()
	e := newEngine(opts)
	f := e.addForest(&forest{view: g, share: opts.program(g, rules).ShareFor(g, rules)})
	tagged, met := e.exec(e.placeSeeds(e.seedBatch(f)), 0)
	res := &Result{Metrics: met}
	for _, tv := range tagged {
		res.Violations = append(res.Violations, tv.vio)
	}
	return res
}

// PIncDect runs parallel incremental detection of ΔVio(Σ, G, ΔG) (§6.3,
// Figure 3). g is the pre-update graph; ΔG is normalized internally. The
// update pivots triggered by ΔG are distributed across the p workers by
// fragment ownership; the candidate neighborhood NC(ΔG, Σ) is identified up
// front and its construction and replication cost charged to all workers.
func PIncDect(g *graph.Graph, rules *core.Set, delta *graph.Delta, opts Options) *Result {
	opts = opts.Defaults()
	norm := delta.Normalize(g)
	newView := g.Clone() // G ⊕ ΔG
	defer newView.Release()
	newView.Apply(norm)
	ins := norm.Insertions()
	del := norm.Deletions()

	prog := opts.program(g, rules)
	compiled := make([]*plan.Compiled, len(rules.Rules))
	for ri, r := range rules.Rules {
		compiled[ri] = prog.CompiledFor(r)
	}
	e := newEngine(opts)

	// One forest per rule × pattern-edge slot × side — the rule's chain
	// (plan.Program.ChainFor) with this run's literal schedules — built when
	// its first pivot arrives, and the update pivots themselves (paper line
	// 5) in rank → rule → slot order.
	var seeds []*unit
	var slab seedSlab
	addPivots := func(ops []graph.EdgeOp, plus bool, view *graph.Graph) {
		idx := inc.NewEdgeIndex(ops)
		forestOf := make(map[[2]int]*forest) // (rule, slot) on this side
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
					key := [2]int{ri, slot}
					f := forestOf[key]
					if f == nil {
						bound := []int{pe.Src}
						if pe.Dst != pe.Src {
							bound = append(bound, pe.Dst)
						}
						f = e.addForest(&forest{
							view: view, idx: idx, plus: plus,
							share: prog.ChainFor(view, c.Rule, bound),
						})
						forestOf[key] = f
					}
					// worker 0's scratch for the forest's rule: its seeds all
					// bind the same two slots and nothing else is bound yet
					partial := e.local(0, f, 0).partial
					partial[pe.Src] = op.Src
					partial[pe.Dst] = op.Dst
					if !match.VerifyBound(view, c.CP, partial) {
						continue
					}
					prune, _, ySat := f.les[0].EvalLevel(0, partial, 0)
					if prune {
						continue
					}
					// The plan cache keys pivot plans by the sorted bound
					// set: slots of opposite orientation share one plan, so
					// the path follows its Bound, not (op.Src, op.Dst).
					pl := f.share.Rules[0].Plan
					u := slab.unit(len(pl.Bound), len(pl.Bound)+len(pl.Steps))
					for j, b := range pl.Bound {
						u.path[j] = partial[b]
					}
					nd := &f.nodes[0] // no step left: the unit sits on the Root
					if len(pl.Steps) > 0 {
						nd = &nd.kids[0]
					}
					u.nd, u.ySatR[0] = nd, ySat
					u.pivotRank, u.pivotSlot, u.lo, u.hi = rank, slot, 0, -1
					seeds = append(seeds, u)
				}
			}
		}
	}
	addPivots(ins, true, newView)
	addPivots(del, false, g)

	// Pivots are discovered fragment-locally (each processor scans the unit
	// updates landing in its fragment, Figure 3 lines 1–2), so a pivot's
	// initial owner is the shard its source node's fragment folds onto
	// (partition.worker). This is what produces the regionally-skewed
	// workloads the hybrid strategy then splits and rebalances; see greedy.
	pt := greedy(g, opts.P)
	initial := make([][]*unit, opts.P)
	for _, u := range seeds {
		op := ins
		if !u.nd.f.plus {
			op = del
		}
		w := pt.worker(op[u.pivotRank].Src, opts.P)
		initial[w] = append(initial[w], u)
	}

	// candidate neighborhood NC(ΔG, Σ): identified in parallel, replicated
	// at all workers (Figure 3 lines 1–4); charged as |NC|/p work plus a
	// broadcast latency per worker.
	nc := graph.NeighborhoodOf(newView, norm.TouchedNodes(), rules.Diameter())
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

// seedSlab hands out the pivot units PIncDect seeds, with their path and
// literal-state buffers, from chunks: most pivots are pruned within a level
// or two (the ¬Y cut takes whole classes at their first step), so a seed's
// own three allocations would outweigh its work. The buffers are clipped to
// their capacity, so recycling them into the workers' freelists is safe.
type seedSlab struct {
	units []unit
	paths []graph.NodeID
	ysats []int
}

const seedChunk = 256

func (s *seedSlab) unit(n, capacity int) *unit {
	if len(s.units) == cap(s.units) {
		s.units = make([]unit, 0, seedChunk)
	}
	if cap(s.paths)-len(s.paths) < capacity {
		s.paths = make([]graph.NodeID, 0, seedChunk*capacity)
	}
	if len(s.ysats) == cap(s.ysats) {
		s.ysats = make([]int, 0, seedChunk)
	}
	s.units = s.units[:len(s.units)+1]
	u := &s.units[len(s.units)-1]
	lo := len(s.paths)
	s.paths = s.paths[:lo+capacity]
	u.path = s.paths[lo : lo+n : lo+capacity]
	i := len(s.ysats)
	s.ysats = s.ysats[:i+1]
	u.ySatR = s.ysats[i : i+1 : i+1]
	return u
}
