package detect

import (
	"math"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/plan"
)

// This file executes a plan.Share — a prefix forest of rule plans — with one
// depth-first walk. It is the one sequential search: Dect walks Σ's batch
// forest from an all-Unbound start, and every pre-bound search (IncDect's
// update pivots, the one-slot searches of absorption, the attribute pass
// and the repair preview) walks the one-rule chain plan.Program.ChainFor
// serves, from the caller's partial.
//
// Along a shared path the candidate scans, edge checks and filter
// evaluations of each step run exactly once for every rule riding it; what
// stays per-rule is the literal layer: each rule carries its own literal
// schedule (LitEval), its own partial solution (its pattern's node index
// space), and its own pruned/ySat state. A branch is abandoned only when
// *every* rule in the subtree has pruned; a single rule pruning merely
// deactivates that rule below the current depth.
//
// Correctness relative to a search per rule: for each rule, the walk
// restricted to its path enumerates exactly the candidates its own plan
// would (step signatures guarantee identical candidate sources, checks and
// filters), and its literal schedule fires at the same levels with the same
// bindings — so per-rule emissions are identical to an independent search,
// merely interleaved. The differential suite in prune_test.go enforces this
// against the reference oracle (internal/ref) on every fuzz workload.

// Searcher is the walk over one forest. It is built once and reused across
// Runs; Rebind moves it to another graph between them. Not safe for
// concurrent use.
type Searcher struct {
	v  *graph.Graph
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

// NewSearcher prepares the walk of sh over v: each rule's literal schedule
// and per-depth state are built here, once, so repeated Runs (the
// incremental searches fire one per pivot) allocate nothing.
func NewSearcher(v *graph.Graph, sh *plan.Share) *Searcher {
	s := &Searcher{
		v:        v,
		sh:       sh,
		les:      make([]*LitEval, len(sh.Rules)),
		matchers: make([]*match.Matcher, len(sh.Rules)),
		partials: make([][]graph.NodeID, len(sh.Rules)),
		ySat:     make([][]int, len(sh.Rules)),
		prunedAt: make([]int, len(sh.Rules)),
	}
	for i := range sh.Rules {
		sr := &sh.Rules[i]
		s.les[i] = NewLitEval(v, sr.C, sr.Plan)
		if sr.Pins == nil {
			s.partials[i] = match.NewPartial(len(sr.Rule.Pattern.Nodes))
		}
		s.ySat[i] = make([]int, len(sr.Plan.Steps)+1)
	}
	return s
}

// Run enumerates the violations of every rule in the forest, calling emit
// for each (emit returning false stops the whole walk). partial pre-binds
// the pinned slots of a one-rule chain, and must be nil for a forest
// without pins; the walk leaves it as it found it. Run returns this Run's
// work counters: candidates and checks are counted once per shared scan,
// which is exactly the point.
//
// The emitted match aliases the rule's scratch partial and is valid only
// during the emit callback — callers that retain it must Clone it.
func (s *Searcher) Run(partial []graph.NodeID, emit func(*core.NGD, core.Match) bool) match.Counters {
	if partial != nil {
		s.partials[0] = partial
	}
	s.emit, s.stopped, s.stat = emit, false, match.Counters{}
	for _, m := range s.matchers {
		if m != nil {
			m.Stat = match.Counters{}
		}
	}
	for i, le := range s.les {
		s.prunedAt[i] = math.MaxInt
		if le.NumY() == 0 {
			// the empty conjunction is true: nothing can violate (only a
			// chain holds such a rule; ShareFor leaves them out)
			s.prunedAt[i] = 0
			continue
		}
		le.resolveCut()
		if prune, cut, y0 := le.EvalLevel(0, s.partials[i], 0); prune {
			s.prunedAt[i] = 0
			if cut {
				s.stat.Cuts++
			}
		} else {
			s.ySat[i][0] = y0
		}
	}
	s.walk(s.sh.Root)
	s.emit = nil
	for _, m := range s.matchers {
		if m != nil {
			s.stat.Checks += m.Stat.Checks
		}
	}
	return s.stat
}

// Rebind points the searcher at a new graph between runs. The forest must
// stay valid for the graph — callers hold forests from the shared program
// and compare their pointers before rebinding (see SearcherCache).
func (s *Searcher) Rebind(v *graph.Graph) {
	if s.v == v {
		return
	}
	s.v = v
	for _, le := range s.les {
		le.G = v
	}
	for _, m := range s.matchers {
		if m != nil {
			m.G = v
		}
	}
}

// matcher returns the representative rule's matcher, building it on first
// use (the walk drives candidate scans and literal evaluation itself).
func (s *Searcher) matcher(rep int) *match.Matcher {
	if s.matchers[rep] == nil {
		s.matchers[rep] = match.NewMatcher(s.v, s.sh.Rules[rep].Plan)
	}
	return s.matchers[rep]
}

// walk processes one forest node: emit the rules completing here, then
// descend each divergent continuation that still has a live rule.
func (s *Searcher) walk(nd *plan.ShareNode) {
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
func (s *Searcher) descend(ch *plan.ShareNode, d int) {
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

// SearcherKey identifies a cached pre-bound searcher: the rule plus the
// bound pattern slots. SlotKey and EdgeSlotKey build the two shapes in use.
type SearcherKey struct {
	Rule *core.NGD
	A, B int
	Plus bool
}

// SlotKey keys a single-pattern-slot search (inc.Seeded, which attribute
// reconciliation, new-node absorption and the repair preview run).
func SlotKey(r *core.NGD, slot int) SearcherKey {
	return SearcherKey{Rule: r, A: slot, B: -1}
}

// EdgeSlotKey keys an update-pivot search (both endpoints of one pattern
// edge bound); plus separates the ΔVio⁺ graph, G ⊕ ΔG, from G, whose plans
// may differ.
func EdgeSlotKey(r *core.NGD, src, dst int, plus bool) SearcherKey {
	return SearcherKey{Rule: r, A: src, B: dst, Plus: plus}
}

// SearcherCache reuses searchers — and with them their matcher and literal
// schedule — across repeated pre-bound searches: the session commit loop
// fires the same (rule, slot) searches every batch, and rebuilding them
// dominated the steady-state allocation profile. The zero value is ready to
// use; not goroutine-safe (one cache per single-writer session).
type SearcherCache struct {
	m map[SearcherKey]*Searcher
}

// Get returns the cached searcher for key, rebinding it to v — or builds
// and caches one when absent or when its chain changed (the program drops a
// plan's chains when churn rebuilds the plan; a stale searcher must not
// outlive its chain).
func (sc *SearcherCache) Get(v *graph.Graph, chain *plan.Share, key SearcherKey) *Searcher {
	if s := sc.m[key]; s != nil && s.sh == chain {
		s.Rebind(v)
		return s
	}
	if sc.m == nil {
		sc.m = make(map[SearcherKey]*Searcher)
	}
	s := NewSearcher(v, chain)
	sc.m[key] = s
	return s
}

// Len reports how many searchers the cache holds: at most one per key.
func (sc *SearcherCache) Len() int { return len(sc.m) }
