package session_test

// Allocation budget for the steady-state commit loop. The pooled searcher
// cache, allocation-free literal kernels and bitset seen-sets brought a warm
// commit from ~6,000 allocations down to ~1,000 on the ngdbench workload;
// this test pins a ceiling on a smaller workload so a regression that
// reintroduces per-commit rebuild costs (fresh searchers, per-emit
// closures, map seen-sets, copied postings) fails statically in CI rather
// than surfacing as a benchmark drift.

import (
	"testing"

	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/session"
)

func TestSteadyStateCommitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget is calibrated for the full workload")
	}
	ds := gen.Generate(gen.YAGO2, 200, 17)
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 8, MaxDiameter: 4, Seed: 17})
	sess := session.New(ds.G, rules, session.Options{})

	deltas := make([]*graph.Delta, 0, 48)
	for b := 0; b < 48; b++ {
		deltas = append(deltas, gen.RandomDelta(ds, gen.DeltaConfig{
			Size: gen.DeltaSize(ds.G, 0.01),
			Seed: 1700 + int64(b),
		}))
	}
	// warm: plans compiled, searchers cached, pools populated; then a
	// checkpoint's fork of the graph, taken and released, must leave the
	// commits writing in place
	for _, d := range deltas[:16] {
		sess.Commit(d)
	}
	sess.Graph().Clone().Release()
	i := 16
	allocs := testing.AllocsPerRun(len(deltas)-16-1, func() {
		sess.Commit(deltas[i])
		i++
	})
	t.Logf("steady-state commit: %.0f objects per run", allocs)
	// 114 measured since postings point at shared records (149 when each
	// posting copied its violations; ~6k before the searcher and kernel
	// overhaul): the budget is about 1.2× the measurement, so the copying
	// postings fail it.
	const budget = 137
	if allocs > budget {
		t.Fatalf("steady-state commit allocated %.0f objects per run, budget %d", allocs, budget)
	}
}
