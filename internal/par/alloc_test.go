package par

import (
	"testing"

	"ngd/internal/gen"
	"ngd/internal/plan"
)

// TestPDectUnitAllocBudget pins work-unit recycling for both detectors (the
// name predates the PIncDect row): a continuation takes its unit, its path
// buffer and its literal state from the expanding worker's freelists, and a
// matcher is built on a worker's first use of a rule. The scheduler pops
// queues from the front, so a whole frontier of units is alive at once and
// the freelists refill only behind it: a run allocates 2.22 (PDect) and
// 1.93 (PIncDect) objects per unit here, against 3.05 and 3.05 with
// engine.recycle disabled. PIncDect's figure includes its per-forest setup
// (the literal schedules and node tables; the chains themselves come from
// the program's cache, plan.Program.ChainFor), spread over the units the ¬Y
// cut leaves on G ⊕ ΔG. Each ceiling sits between the two; the run is
// deterministic, so the figures do not drift from run to run.
func TestPDectUnitAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, nrules int
		seed      int64
		delta     float64 // 0: PDect
		ceiling   float64
	}{
		{"PDect", 400, 12, 11, 0, 2.5},
		{"PIncDect", 1200, 50, 11, 0.10, 2.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := gen.Generate(gen.YAGO2, tc.n, tc.seed)
			rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: tc.nrules, MaxDiameter: 5, Seed: tc.seed})
			opts := Hybrid(2)
			opts.Program = plan.New(ds.G, rules, plan.Options{})
			run := func() int { return PDect(ds.G, rules, opts).Metrics.Units }
			if tc.delta > 0 {
				d := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, tc.delta), Gamma: 1, Seed: tc.seed + 1})
				run = func() int { return PIncDect(ds.G, rules, d, opts).Metrics.Units }
			}
			units := run()
			allocs := testing.AllocsPerRun(5, func() { run() })
			perUnit := allocs / float64(units)
			t.Logf("%d units, %.0f allocs per run (%.2f per unit)", units, allocs, perUnit)
			if perUnit > tc.ceiling {
				t.Errorf("%.2f objects per work unit (%.0f over %d units), want ≤ %.1f", perUnit, allocs, units, tc.ceiling)
			}
		})
	}
}
