package detect

import (
	"math"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/plan"
)

// This file executes a plan.Share — the prefix forest arranging the batch
// plans of overlapping rules — with one depth-first walk. Along a shared
// path the candidate scans, edge checks and filter evaluations of each step
// run exactly once for every rule riding it; what stays per-rule is the
// literal layer: each rule carries its own literal schedule (LitEval), its
// own partial solution (its pattern's node index space), and its own
// pruned/ySat state. A branch is abandoned only when *every* rule in the
// subtree has pruned; a single rule pruning merely deactivates that rule
// below the current depth.
//
// Correctness relative to the per-rule searcher: for each rule, the walk
// restricted to its path enumerates exactly the candidates its own plan
// would (step signatures guarantee identical candidate sources, checks and
// filters), and its literal schedule fires at the same levels with the same
// bindings — so per-rule emissions are identical to an independent search,
// merely interleaved. The differential suite in prune_test.go enforces this
// against the reference oracle (internal/ref) on every fuzz workload.

// sharedSearcher is the walk state over one forest.
type sharedSearcher struct {
	v  graph.View
	sh *plan.Share

	les      []*LitEval
	matchers []*match.Matcher // lazily built per representative rule
	partials [][]graph.NodeID
	ySat     [][]int // per rule: cumulative satisfied-Y count per depth
	prunedAt []int   // per rule: depth below which the rule is inactive

	emit    func(*core.NGD, core.Match) bool
	stopped bool
	stat    match.Counters
}

// RunShared enumerates the violations of every rule in the forest, calling
// emit for each (emit returning false stops the whole walk). It returns the
// accumulated work counters: candidates and checks are counted once per
// shared scan, which is exactly the point.
//
// The emitted match aliases the rule's scratch partial and is valid only
// during the emit callback — callers that retain it must Clone it.
func RunShared(v graph.View, sh *plan.Share, emit func(*core.NGD, core.Match) bool) match.Counters {
	s := &sharedSearcher{
		v:        v,
		sh:       sh,
		les:      make([]*LitEval, len(sh.Rules)),
		matchers: make([]*match.Matcher, len(sh.Rules)),
		partials: make([][]graph.NodeID, len(sh.Rules)),
		ySat:     make([][]int, len(sh.Rules)),
		prunedAt: make([]int, len(sh.Rules)),
		emit:     emit,
	}
	for i := range sh.Rules {
		sr := &sh.Rules[i]
		s.les[i] = NewLitEval(v, sr.C, sr.Plan)
		s.partials[i] = match.NewPartial(len(sr.Rule.Pattern.Nodes))
		s.ySat[i] = make([]int, len(sr.Plan.Steps)+1)
		s.prunedAt[i] = math.MaxInt
		if prune, cut, y0 := s.les[i].EvalLevel(0, s.partials[i], 0); prune {
			s.prunedAt[i] = 0
			if cut {
				s.stat.Cuts++
			}
		} else {
			s.ySat[i][0] = y0
		}
	}
	s.walk(sh.Root)
	for _, m := range s.matchers {
		if m != nil {
			s.stat.Checks += m.Stat.Checks
		}
	}
	return s.stat
}

// matcher returns the representative rule's matcher, building it on first
// use (hooks stay empty: the walk drives literal evaluation itself).
func (s *sharedSearcher) matcher(rep int) *match.Matcher {
	if s.matchers[rep] == nil {
		s.matchers[rep] = match.NewMatcher(s.v, s.sh.Rules[rep].Plan, match.Hooks{})
	}
	return s.matchers[rep]
}

// walk processes one forest node: emit the rules completing here, then
// descend each divergent continuation that still has a live rule.
func (s *sharedSearcher) walk(nd *plan.ShareNode) {
	d := nd.Depth
	for _, ri := range nd.Terminal {
		if s.prunedAt[ri] <= d || s.ySat[ri][d] >= s.les[ri].NumY() {
			continue // pruned, or all Y satisfied: not a violation
		}
		s.stat.Matches++
		m := core.Match(s.partials[ri])
		if !s.emit(s.sh.Rules[ri].Rule, m) {
			s.stopped = true
			return
		}
	}
	for _, ch := range nd.Children {
		if s.stopped {
			return
		}
		live := false
		for _, ri := range ch.Rules {
			if s.prunedAt[ri] > d {
				live = true
				break
			}
		}
		if !live {
			continue
		}
		s.descend(ch, d)
	}
}

// descend scans the candidates of the step entering ch (driven by the
// subtree representative's plan and matcher) and recurses per candidate.
func (s *sharedSearcher) descend(ch *plan.ShareNode, d int) {
	rep := ch.Rep
	m := s.matcher(rep)
	scanned := m.CandidatesRange(d, s.partials[rep], 0, -1, func(cand graph.NodeID) bool {
		if !m.CheckStep(d, s.partials[rep], cand) {
			return true
		}
		live := false
		for _, ri := range ch.Rules {
			s.partials[ri][s.sh.Rules[ri].Plan.Steps[d].Node] = cand
			if s.prunedAt[ri] > d {
				prune, cut, ySat := s.les[ri].EvalLevel(d+1, s.partials[ri], s.ySat[ri][d])
				if prune {
					s.prunedAt[ri] = d + 1
					if cut {
						s.stat.Cuts++
					}
				} else {
					s.ySat[ri][d+1] = ySat
					live = true
				}
			}
		}
		if live {
			s.walk(ch)
		}
		for _, ri := range ch.Rules {
			if s.prunedAt[ri] == d+1 {
				s.prunedAt[ri] = math.MaxInt
			}
			s.partials[ri][s.sh.Rules[ri].Plan.Steps[d].Node] = match.Unbound
		}
		return !s.stopped
	})
	s.stat.Candidates += scanned
}
