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
// A LitEval is immutable after construction and safe for concurrent use;
// per-call state lives in the caller's partial solution and ySat counter.
type LitEval struct {
	C     *plan.Compiled
	G     graph.View
	sched litSchedule
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
	return &LitEval{C: c, G: g, sched: buildSchedule(c.Rule, pl, skipX)}
}

// NumY reports |Y|; a match violates iff ySat < NumY at completion.
func (le *LitEval) NumY() int { return len(le.C.Y) }

// EvalLevel evaluates the literals scheduled at level lv against partial.
// It returns prune=true when the branch cannot yield a violation (an
// X-literal failed, or all |Y| literals are now known satisfied), and the
// updated ySat count otherwise. le.G is read per call: Searcher.Rebind swaps
// the view under a cached searcher between runs.
func (le *LitEval) EvalLevel(lv int, partial []graph.NodeID, ySat int) (prune bool, newYSat int) {
	c := le.C
	for _, i := range le.sched.xAt[lv] {
		if !c.Satisfied(le.G, &c.X[i], c.Rule.X[i], partial) {
			return true, ySat
		}
	}
	for _, i := range le.sched.yAt[lv] {
		if c.Satisfied(le.G, &c.Y[i], c.Rule.Y[i], partial) {
			ySat++
		}
	}
	return ySat == len(c.Y), ySat
}
