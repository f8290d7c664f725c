// Package detect implements batch error detection with NGDs: Dect, the
// sequential counterpart of the parallel batch algorithm the paper extends
// from GFDs (§5.1). Given Σ and G it computes Vio(Σ,G), the set of matches
// h(x̄) with h ⊨ X and h ⊭ Y for some φ = Q[x̄](X → Y) ∈ Σ.
//
// Rule compilation and matching-order planning live in internal/plan: a
// shared *plan.Program compiles Σ once, serves cost-based plans from a
// churn-invalidated cache, and arranges overlapping rules into a prefix
// forest that Dect enumerates once per shared prefix (shared.go). This
// package executes those plans: the literal schedule (LitEval), the
// single-rule violation Searcher the incremental algorithms reuse with
// pre-bound pivots, and the shared-prefix batch searcher.
//
// The violation search prunes with literals as soon as their variables are
// instantiated (paper §6.2 step (3)): a falsified X-literal cuts the branch
// (the match cannot satisfy the precondition); once every Y-literal has
// evaluated true the branch is cut too (the match cannot violate).
package detect

import (
	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/plan"
)

// Options tune detection.
type Options struct {
	// Limit stops after this many violations (0 = unlimited).
	Limit int
	// Program is the shared rule program to plan with. nil builds a
	// private one for this call (one-shot detection); long-lived callers
	// (sessions, the serving daemon, benchmarks replaying batches) pass
	// their own so compilation and planning amortize across runs.
	Program *plan.Program
}

// program resolves the effective rule program for one detector invocation.
func (o Options) program(g graph.View, rules *core.Set) *plan.Program {
	if o.Program != nil {
		return o.Program
	}
	return plan.New(g, rules, plan.Options{})
}

// Result of a batch detection run.
type Result struct {
	Violations []core.Violation
	Counters   match.Counters
}

// Dect computes Vio(Σ, G) sequentially (the yardstick batch algorithm).
// Rules whose plans share a structural prefix are enumerated together: the
// shared steps' candidate scans and edge checks run once, and each rule's
// literal schedule is layered on top (see RunShared).
func Dect(g graph.View, rules *core.Set, opts Options) *Result {
	res := &Result{}
	sh := opts.program(g, rules).ShareFor(g, rules)
	res.Counters = RunShared(g, sh, func(r *core.NGD, m core.Match) bool {
		res.Violations = append(res.Violations, core.Violation{Rule: r, Match: m.Clone()})
		return opts.Limit == 0 || len(res.Violations) < opts.Limit
	})
	return res
}

// litSchedule assigns each literal to the earliest plan step at which all of
// its variables are bound (-1 = evaluable from the pre-bound nodes alone).
type litSchedule struct {
	xAt [][]int // xAt[k+1] = X-literal indices evaluable after step k (xAt[0]: pre-bound)
	yAt [][]int
}

// buildSchedule places literals at their earliest evaluable level. skipX
// marks X-literal indices to leave out entirely — those already enforced
// per candidate by the plan's filters (see NewLitEval).
func buildSchedule(rule *core.NGD, pl *match.Plan, skipX []bool) litSchedule {
	n := len(pl.Steps)
	sched := litSchedule{
		xAt: make([][]int, n+1),
		yAt: make([][]int, n+1),
	}
	bound := make(map[int]int, len(rule.Pattern.Nodes)) // node idx -> step+1
	for _, b := range pl.Bound {
		bound[b] = 0
	}
	for k, st := range pl.Steps {
		bound[st.Node] = k + 1
	}
	place := func(lits []core.Literal, at [][]int, skip []bool) {
		for i, l := range lits {
			if skip != nil && skip[i] {
				continue
			}
			latest := 0
			for _, v := range l.Vars() {
				idx := rule.Pattern.VarIndex(v)
				if s, ok := bound[idx]; ok && s > latest {
					latest = s
				}
			}
			at[latest] = append(at[latest], i)
		}
	}
	place(rule.X, sched.xAt, skipX)
	place(rule.Y, sched.yAt, nil)
	return sched
}

// Searcher runs violation enumeration for one rule over one view, with
// pruning. It is reused by the incremental algorithms with pre-bound pivots.
type Searcher struct {
	G    graph.View
	C    *plan.Compiled
	Plan *match.Plan

	le   *LitEval
	ySat []int // per-depth cumulative count of satisfied Y literals
	m    *match.Matcher

	emit    func(core.Match) bool     // current Run's sink
	onMatch func([]graph.NodeID) bool // bound once (method values allocate)
}

// NewSearcher prepares a violation search for rule c over g using pl. The
// matcher and its pruning hooks are built here, once — Run only swaps the
// partial solution in, so repeated Runs (the incremental engines fire one
// per pivot) allocate nothing.
func NewSearcher(g graph.View, c *plan.Compiled, pl *match.Plan) *Searcher {
	s := &Searcher{G: g, C: c, Plan: pl, le: NewLitEval(g, c, pl)}
	s.ySat = make([]int, len(pl.Steps)+1)
	s.m = match.NewMatcher(g, pl, match.Hooks{
		OnExtend: func(k int, p []graph.NodeID) bool {
			prune, cut, ySat := s.le.EvalLevel(k+1, p, s.ySat[k])
			if prune {
				if cut {
					s.m.Stat.Cuts++
				}
				return false
			}
			s.ySat[k+1] = ySat
			return true
		},
	})
	s.onMatch = s.match
	return s
}

// Run enumerates violations extending partial (pre-bound nodes already set,
// and already verified with match.VerifyBound by the caller when pivots are
// used). emit returning false stops the search. It returns the work
// counters of the underlying matcher.
//
// The emitted match aliases the searcher's scratch bindings and is valid
// only during the emit callback — callers that retain it must Clone it.
func (s *Searcher) Run(partial []graph.NodeID, emit func(core.Match) bool) match.Counters {
	// An empty Y is the empty conjunction — true — so nothing can violate.
	if s.le.NumY() == 0 {
		return match.Counters{}
	}

	s.le.resolveCut()
	prune, cut, ySat0 := s.le.EvalLevel(0, partial, 0)
	if prune {
		if cut {
			return match.Counters{Cuts: 1}
		}
		return match.Counters{}
	}
	s.ySat[0] = ySat0

	// the matcher persists across Runs, so report this Run's work as a delta
	before := s.m.Stat
	s.emit = emit
	s.m.Run(partial, s.onMatch)
	s.emit = nil

	st := s.m.Stat
	st.Candidates -= before.Candidates
	st.Checks -= before.Checks
	st.Matches -= before.Matches
	st.Cuts -= before.Cuts
	return st
}

// Rebind points the searcher at a new view between runs. The plan must stay
// valid for the view — callers hold plans from the shared program cache and
// compare plan pointers before rebinding (see SearcherCache). Not safe
// against a concurrent Run.
func (s *Searcher) Rebind(v graph.View) {
	if s.G == v {
		return
	}
	s.G = v
	s.m.G = v
	s.le.G = v
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
// edge bound); plus separates the ΔVio⁺ view, G ⊕ ΔG, from G, whose plans
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
// and caches one when absent or when the plan changed (the program cache
// invalidates plans on churn; a stale searcher must not outlive its plan).
func (sc *SearcherCache) Get(v graph.View, c *plan.Compiled, pl *match.Plan, key SearcherKey) *Searcher {
	if s := sc.m[key]; s != nil && s.Plan == pl {
		s.Rebind(v)
		return s
	}
	if sc.m == nil {
		sc.m = make(map[SearcherKey]*Searcher)
	}
	s := NewSearcher(v, c, pl)
	sc.m[key] = s
	return s
}

// match filters complete matches down to violations (bound once as s.onMatch
// so the per-Run closure allocation disappears).
func (s *Searcher) match(p []graph.NodeID) bool {
	// all X held (pruned otherwise); violation iff some Y failed
	if s.ySat[len(s.Plan.Steps)] < s.le.NumY() {
		return s.emit(core.Match(p))
	}
	return true
}

// Validate decides G ⊨ Σ (the validation problem, Corollary 4): true iff
// Vio(Σ,G) = ∅.
func Validate(g graph.View, rules *core.Set) bool {
	r := Dect(g, rules, Options{Limit: 1})
	return len(r.Violations) == 0
}

// VioKeySet builds the dedup key set of a violation list (for diffing in
// tests and the incremental equivalence checks).
func VioKeySet(vs []core.Violation) map[string]core.Violation {
	m := make(map[string]core.Violation, len(vs))
	for _, v := range vs {
		m[v.Key()] = v
	}
	return m
}
