package detect

import (
	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/plan"
)

// LitEval evaluates a rule's literals level-by-level along a plan: level 0
// covers literals whose variables are all pre-bound (update pivots), level
// k+1 those completed by plan step k. It is the literal-pruning engine of
// §6.2 step (3), shared by the sequential Searcher and the parallel workers
// (which carry explicit work units instead of a recursion stack).
//
// Beyond X and Y it applies the rule's ¬Y cut (plan.Cut) at the one level
// where the cut's bound side is bound and its free side is not yet: a
// branch there cannot violate when every value the free side can take
// satisfies Y, so it is pruned before the scans below it run.
//
// A LitEval is immutable between searches and safe for concurrent use;
// per-call state lives in the caller's partial solution and ySat counter.
// The cut's index is looked up when it is built and again by every
// Searcher.Run (see resolveCut).
type LitEval struct {
	C     *plan.Compiled
	G     graph.View
	sched litSchedule
	cut   *plan.Cut           // the cut this plan can take (nil: none)
	cutAt int                 // the level it is taken at
	cutIx *graph.EdgeValIndex // the cut's index over G, nil while the cut cannot fire
}

// NewLitEval builds the evaluation schedule of rule c along plan.
//
// X-literals that were compiled into the plan's candidate filters are
// dropped from the schedule when their pattern node is bound by a plan
// step: the matcher already checks the predicate on every candidate it
// generates for that node, so re-evaluating the literal would double the
// work on exactly the hot path pruning targets. Literals on *pre-bound*
// nodes (update pivots) stay scheduled at level 0 — pivots never pass
// through candidate generation.
func NewLitEval(g graph.View, c *plan.Compiled, pl *match.Plan) *LitEval {
	var skipX []bool
	if pl.Filters != nil && len(c.FilterLits) > 0 {
		skipX = make([]bool, len(c.Rule.X))
		for _, fl := range c.FilterLits {
			preBound := false
			for _, b := range pl.Bound {
				if b == fl.Node {
					preBound = true
					break
				}
			}
			if !preBound {
				skipX[fl.Lit] = true
			}
		}
	}
	le := &LitEval{C: c, G: g, sched: buildSchedule(c.Rule, pl, skipX)}
	le.placeCut(pl)
	le.resolveCut()
	return le
}

// resolveCut looks the cut's index up over le.G (plan.Cut.Live). Call it
// before a search whenever the view or the graph may have changed since the
// last one; not safe against a concurrent search.
func (le *LitEval) resolveCut() {
	le.cutIx = nil
	if le.cut != nil {
		le.cutIx = le.cut.Live(le.G)
	}
}

// placeCut picks, among the rule's cuts, the one whose bound side the plan
// binds earliest while the free side is still unbound.
func (le *LitEval) placeCut(pl *match.Plan) {
	level := func(slot int) int {
		for _, b := range pl.Bound {
			if b == slot {
				return 0
			}
		}
		for k := range pl.Steps {
			if pl.Steps[k].Node == slot {
				return k + 1
			}
		}
		return len(pl.Steps) + 1
	}
	for i := range le.C.Cuts {
		cut := &le.C.Cuts[i]
		at := level(cut.Band.Bound)
		if at < level(cut.Band.Free) && (le.cut == nil || at < le.cutAt) {
			le.cut, le.cutAt = cut, at
		}
	}
}

// NumY reports |Y|; a match violates iff ySat < NumY at completion.
func (le *LitEval) NumY() int { return len(le.C.Y) }

// EvalLevel evaluates the literals scheduled at level lv against partial.
// It returns prune=true when the branch cannot yield a violation (an
// X-literal failed, all |Y| literals are now known satisfied, or the ¬Y cut
// applies — then cut=true too), and the updated ySat count otherwise. le.G
// is read per call: Searcher.Rebind swaps the view under a cached searcher
// between runs.
func (le *LitEval) EvalLevel(lv int, partial []graph.NodeID, ySat int) (prune, cut bool, newYSat int) {
	c := le.C
	for _, i := range le.sched.xAt[lv] {
		if !c.Satisfied(le.G, &c.X[i], c.Rule.X[i], partial) {
			return true, false, ySat
		}
	}
	for _, i := range le.sched.yAt[lv] {
		if c.Satisfied(le.G, &c.Y[i], c.Rule.Y[i], partial) {
			ySat++
		}
	}
	if lv == le.cutAt && le.cutIx != nil && le.cut.Holds(le.G, le.cutIx, partial) {
		return true, true, ySat
	}
	return ySat == len(c.Y), false, ySat
}
