package par

import (
	"testing"

	"ngd/internal/gen"
	"ngd/internal/plan"
	"ngd/internal/update"
)

// TestPDectUnitAllocBudget pins work-unit recycling on the goroutine
// scheduler, whose depth-first queues keep few units alive at once, for both
// detectors (the name predates the PIncDect row): a continuation takes its
// unit, its path buffer and its literal state from the expanding worker's
// freelists, and a matcher is built on a worker's first use of a rule, so a
// run allocates well under one object per unit (0.63 and 0.46 here; 1.28 for
// PIncDect when each continuation was a fresh &unit{}). The ceiling leaves
// room for scheduling noise: which worker recycles a moved unit varies.
func TestPDectUnitAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, nrules int
		seed      int64
		delta     float64 // 0: PDect
	}{
		{"PDect", 400, 12, 11, 0},
		{"PIncDect", 1200, 50, 11, 0.10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := gen.Generate(gen.YAGO2, tc.n, tc.seed)
			rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: tc.nrules, MaxDiameter: 5, Seed: tc.seed})
			opts := Hybrid(2)
			opts.Program = plan.New(ds.G, rules, plan.Options{})
			opts.Pool = NewPool(opts.P)
			defer opts.Pool.Close()
			run := func() int { return PDect(ds.G, rules, opts).Metrics.Units }
			if tc.delta > 0 {
				d := update.Random(ds, update.Config{Size: update.SizeFor(ds.G, tc.delta), Gamma: 1, Seed: tc.seed + 1})
				run = func() int { return PIncDect(ds.G, rules, d, opts).Metrics.Units }
			}
			units := run()
			allocs := testing.AllocsPerRun(5, func() { run() })
			perUnit := allocs / float64(units)
			t.Logf("%d units, %.0f allocs per run (%.2f per unit)", units, allocs, perUnit)
			if perUnit > 1 {
				t.Errorf("%.2f objects per work unit (%.0f over %d units), want ≤ 1", perUnit, allocs, units)
			}
		})
	}
}
