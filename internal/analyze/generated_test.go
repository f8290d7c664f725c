package analyze

import (
	"fmt"
	"testing"
	"time"

	"ngd/internal/gen"
	"ngd/internal/reason"
)

// TestGateDecidesGeneratedSets: the gate decides the repository's own
// generated rule sets well inside a boot's budget. Their canonical
// instances are disjoint unions of up to 24 patterns, which one search over
// every obligation at once cannot decide in 10 s; one search per
// independent group decides each in milliseconds.
func TestGateDecidesGeneratedSets(t *testing.T) {
	for _, p := range []gen.Profile{gen.YAGO2, gen.DBpedia, gen.Pokec} {
		for _, n := range []int{12, 24} {
			t.Run(fmt.Sprintf("%s/%d", p.Name, n), func(t *testing.T) {
				set := gen.Rules(p, gen.RuleConfig{Count: n, MaxDiameter: 5, Seed: 1})
				rep := Analyze(set, Options{Timeout: 10 * time.Second})
				if rep.Satisfiable != reason.Yes || rep.StronglySatisfiable != reason.Yes {
					t.Fatalf("satisfiable %v, strongly %v; want yes, yes (%d ms)",
						rep.Satisfiable, rep.StronglySatisfiable, rep.ElapsedMS)
				}
				for _, rr := range rep.Rules {
					if rr.Satisfiable == reason.Unknown || rr.Implied == reason.Unknown {
						t.Errorf("rule %s: satisfiable %v, implied %v", rr.Name, rr.Satisfiable, rr.Implied)
					}
				}
				t.Logf("decided in %d ms", rep.ElapsedMS)
			})
		}
	}
}

// TestGateAllocBudget is the deterministic guard beside the wall clock:
// one sequential gate over the 24-rule YAGO2 set (AllocsPerRun measures at
// GOMAXPROCS 1, so the probes run one at a time) allocates ≈ 105.7k
// objects (x86-64, Go 1.24). One search over every obligation at once
// runs out of its branch budget instead.
func TestGateAllocBudget(t *testing.T) {
	set := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 24, MaxDiameter: 5, Seed: 1})
	allocs := testing.AllocsPerRun(3, func() {
		Analyze(set, Options{})
	})
	t.Logf("%.0f objects per gate", allocs)
	const ceiling = 120_000
	if allocs > ceiling {
		t.Fatalf("%.0f objects per gate, want at most %d", allocs, ceiling)
	}
}
