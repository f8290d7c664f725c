package par

import (
	"testing"

	"ngd/internal/gen"
	"ngd/internal/plan"
)

// TestPDectUnitAllocBudget pins work-unit recycling on the goroutine
// scheduler, whose depth-first queues keep few units alive at once: a
// continuation takes its unit, its binding buffer and its literal state from
// the expanding worker's freelists, so a run allocates well under one object
// per unit (0.63 here; 2.75 when every continuation was a fresh &unit{} with
// a per-expansion survival slice and children slice). The ceiling leaves
// room for scheduling noise: which worker recycles a moved unit varies.
func TestPDectUnitAllocBudget(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 400, 11)
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 12, MaxDiameter: 5, Seed: 11})
	opts := Hybrid(2)
	opts.Program = plan.New(ds.G, rules, plan.Options{})
	opts.Pool = NewPool(opts.P)
	defer opts.Pool.Close()
	units := PDect(ds.G, rules, opts).Metrics.Units
	allocs := testing.AllocsPerRun(5, func() { PDect(ds.G, rules, opts) })
	perUnit := allocs / float64(units)
	t.Logf("%d units, %.0f allocs per run (%.2f per unit)", units, allocs, perUnit)
	if perUnit > 1 {
		t.Errorf("PDect allocated %.2f objects per work unit (%.0f over %d units), want ≤ 1", perUnit, allocs, units)
	}
}
