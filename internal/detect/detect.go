// Package detect implements batch error detection with NGDs: Dect, the
// sequential counterpart of the parallel batch algorithm the paper extends
// from GFDs (§5.1). Given Σ and G it computes Vio(Σ,G), the set of matches
// h(x̄) with h ⊨ X and h ⊭ Y for some φ = Q[x̄](X → Y) ∈ Σ.
//
// Rule compilation and matching-order planning live in internal/plan: a
// shared *plan.Program compiles Σ once, serves cost-based plans from a
// churn-invalidated cache, and arranges plans into prefix forests
// (plan.Share): Σ's batch forest, which Dect enumerates once per shared
// prefix, and the one-rule chains of the pre-bound searches. This package
// executes them with one walker (Searcher, search.go) over one literal
// schedule (LitEval).
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
func (o Options) program(g *graph.Graph, rules *core.Set) *plan.Program {
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
// literal schedule is layered on top (see Searcher).
func Dect(g *graph.Graph, rules *core.Set, opts Options) *Result {
	res := &Result{}
	sh := opts.program(g, rules).ShareFor(g, rules)
	res.Counters = NewSearcher(g, sh).Run(nil, func(r *core.NGD, m core.Match) bool {
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

// Validate decides G ⊨ Σ (the validation problem, Corollary 4): true iff
// Vio(Σ,G) = ∅.
func Validate(g *graph.Graph, rules *core.Set) bool {
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
