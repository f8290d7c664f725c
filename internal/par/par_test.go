package par

import (
	"fmt"
	"testing"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/pattern"
	"ngd/internal/ref"
)

// TestPDectMatchesDect: the parallel batch algorithm computes exactly
// Vio(Σ, G), under all variants.
func TestPDectMatchesDect(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 250, 11)
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 12, MaxDiameter: 5, Seed: 11})
	want := detect.Dect(ds.G, rules, detect.Options{}).Violations

	for _, opts := range []Options{Hybrid(4), VariantNS(4), VariantNB(4), VariantNO(4), Hybrid(1), Hybrid(9)} {
		got := PDect(ds.G, rules, opts)
		if ref.Keys(got.Violations) != ref.Keys(want) {
			t.Errorf("PDect(split=%v,bal=%v,p=%d) = %d violations, want %d",
				opts.SplitUnits, opts.Balance, opts.P, len(got.Violations), len(want))
		}
	}
}

// pinnedWorkload is a hand-built Σ over a small ring that the generators
// only hit by chance: "one" is a one-edge pattern, so a pivot pins both ends
// and its units sit on a forest Root; "two" has the slots x -a-> y and
// y -a-> x, whose pivot plans share one cache entry (the bound set {x, y}
// in either orientation) and whose literal tells the orientations apart.
// ΔG inserts reverse edges — both edges of a new mutual pair among them, so
// the smallest-pivot dedup has work — a self loop, and deletes one side of
// existing pairs.
func pinnedWorkload() (*graph.Graph, *core.Set, *graph.Delta) {
	g := graph.New()
	const n = 12
	for i := 0; i < n; i++ {
		g.SetAttr(g.AddNode("p"), "val", graph.Int(int64(i*7%5)))
	}
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), "a")
		if i%3 == 0 {
			g.AddEdge(graph.NodeID((i+1)%n), graph.NodeID(i), "a")
		}
	}
	one := pattern.New()
	one.AddEdge(one.AddNode("x", "p"), one.AddNode("y", "p"), "a")
	two := pattern.New()
	x, y := two.AddNode("x", "p"), two.AddNode("y", "p")
	two.AddEdge(x, y, "a")
	two.AddEdge(y, x, "a")
	less := []core.Literal{core.Lit(expr.V("x", "val"), expr.Lt, expr.V("y", "val"))}
	rules := core.NewSet(core.MustNew("one", one, nil, less), core.MustNew("two", two, nil, less))

	a := g.Symbols().LookupLabel("a")
	d := &graph.Delta{}
	for _, i := range []int{1, 2, 4, 7} {
		d.Insert(graph.NodeID((i+1)%n), graph.NodeID(i), a) // closes a pair
	}
	d.Insert(5, 9, a)
	d.Insert(9, 5, a) // a pair made of two Δ-edges
	d.Insert(8, 8, a) // x = y
	d.Delete(0, 1, a)
	d.Delete(4, 3, a)
	return g, rules, d
}

// TestPIncDectMatchesIncDect: the parallel incremental algorithm computes
// exactly ΔVio(Σ, G, ΔG), under all variants.
func TestPIncDectMatchesIncDect(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		var g *graph.Graph
		var rules *core.Set
		var d *graph.Delta
		if trial < 3 {
			seed := int64(31 + trial*17)
			profile := []gen.Profile{gen.YAGO2, gen.Pokec, gen.DBpedia}[trial]
			ds := gen.Generate(profile, 200, seed)
			g = ds.G
			rules = gen.Rules(profile, gen.RuleConfig{Count: 10, MaxDiameter: 5, Seed: seed})
			d = gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.1), Gamma: 1, Seed: seed * 7})
		} else {
			g, rules, d = pinnedWorkload()
		}

		want := inc.IncDect(g, rules, d, inc.Options{})
		if trial == 3 {
			if plus, minus := ref.Delta(g, rules, d); ref.Keys(want.Plus) != ref.Keys(plus) || ref.Keys(want.Minus) != ref.Keys(minus) ||
				len(plus) < 4 || len(minus) < 2 {
				t.Fatalf("pinned workload: IncDect +%d/-%d, recomputation +%d/-%d (want ≥ +4/-2, equal)",
					len(want.Plus), len(want.Minus), len(plus), len(minus))
			}
		}

		for _, opts := range []Options{Hybrid(4), VariantNS(4), VariantNB(4), VariantNO(4), Hybrid(12)} {
			got := PIncDect(g, rules, d, opts)
			if ref.Keys(got.Delta.Plus) != ref.Keys(want.Plus) {
				t.Errorf("trial %d PIncDect(split=%v,bal=%v,p=%d) ΔVio⁺: got %d want %d",
					trial, opts.SplitUnits, opts.Balance, opts.P, len(got.Delta.Plus), len(want.Plus))
			}
			if ref.Keys(got.Delta.Minus) != ref.Keys(want.Minus) {
				t.Errorf("trial %d PIncDect(split=%v,bal=%v,p=%d) ΔVio⁻: got %d want %d",
					trial, opts.SplitUnits, opts.Balance, opts.P, len(got.Delta.Minus), len(want.Minus))
			}
		}
	}
}

// TestVirtualDeterminism: the scheduler must be bit-for-bit reproducible
// (metrics and output order included).
func TestVirtualDeterminism(t *testing.T) {
	ds := gen.Generate(gen.Pokec, 150, 5)
	rules := gen.Rules(gen.Pokec, gen.RuleConfig{Count: 8, MaxDiameter: 4, Seed: 5})
	d := gen.RandomDelta(ds, gen.DeltaConfig{Size: 80, Gamma: 1, Seed: 6})

	r1 := PIncDect(ds.G, rules, d, Hybrid(8))
	r2 := PIncDect(ds.G, rules, d, Hybrid(8))
	if r1.Metrics.Makespan != r2.Metrics.Makespan || r1.Metrics.Units != r2.Metrics.Units ||
		r1.Metrics.Moved != r2.Metrics.Moved {
		t.Errorf("scheduler not deterministic: %+v vs %+v", r1.Metrics, r2.Metrics)
	}
	if ref.Keys(r1.Delta.Plus) != ref.Keys(r2.Delta.Plus) || ref.Keys(r1.Delta.Minus) != ref.Keys(r2.Delta.Minus) {
		t.Error("violation sets differ across runs")
	}
}

// TestParallelScalability: simulated makespan must shrink as p grows
// (paper Exp-4: PIncDect is 3.7× faster from p=4 to p=20), while total work
// stays within a constant factor.
func TestParallelScalability(t *testing.T) {
	ds := gen.Generate(gen.Pokec, 600, 13)
	rules := gen.Rules(gen.Pokec, gen.RuleConfig{Count: 16, MaxDiameter: 5, Seed: 13})
	d := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.15), Gamma: 1, Seed: 14})

	spans := map[int]float64{}
	for _, p := range []int{4, 20} {
		r := PIncDect(ds.G, rules, d, Hybrid(p))
		spans[p] = r.Metrics.Makespan
	}
	if spans[20] >= spans[4] {
		t.Errorf("no speedup: makespan p=4 %v, p=20 %v", spans[4], spans[20])
	}
	speedup := spans[4] / spans[20]
	if speedup < 1.5 {
		t.Errorf("weak scalability: %v× from p=4 to 20", speedup)
	}
	t.Logf("speedup p=4→20: %.2f×", speedup)
}

// TestHybridBeatsNO: with skewed workloads, the hybrid strategy should not
// be slower than the no-split/no-balance variant (paper Exp-1(b): hybrid
// improves PIncDect_NO by 1.5–1.8×).
func TestHybridBeatsNO(t *testing.T) {
	ds := gen.Generate(gen.Pokec, 800, 23)
	rules := gen.Rules(gen.Pokec, gen.RuleConfig{Count: 14, MaxDiameter: 5, Seed: 23})
	d := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.2), Gamma: 1, Seed: 24})

	hybrid := PIncDect(ds.G, rules, d, Hybrid(8))
	no := PIncDect(ds.G, rules, d, VariantNO(8))
	t.Logf("hybrid=%.0f no=%.0f (ratio %.2f)", hybrid.Metrics.Makespan, no.Metrics.Makespan,
		no.Metrics.Makespan/hybrid.Metrics.Makespan)
	if hybrid.Metrics.Makespan > no.Metrics.Makespan*1.15 {
		t.Errorf("hybrid slower than NO variant: %v vs %v",
			hybrid.Metrics.Makespan, no.Metrics.Makespan)
	}
}

// TestEmptyInputs: no rules, or an empty delta, must terminate cleanly.
func TestEmptyInputs(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 50, 2)
	empty := core.NewSet()
	if r := PDect(ds.G, empty, Hybrid(4)); len(r.Violations) != 0 {
		t.Error("PDect with no rules returned violations")
	}
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 4, MaxDiameter: 3, Seed: 2})
	var d = gen.RandomDelta(ds, gen.DeltaConfig{Size: 0, Gamma: 1, Seed: 1})
	if r := PIncDect(ds.G, rules, d, Hybrid(4)); len(r.Delta.Plus)+len(r.Delta.Minus) != 0 {
		t.Error("PIncDect with empty delta returned changes")
	}
}

// TestMetricsSanity: splitting increments Splits; balancing with tiny
// interval fires events.
func TestMetricsSanity(t *testing.T) {
	ds := gen.Generate(gen.Pokec, 500, 77)
	rules := gen.Rules(gen.Pokec, gen.RuleConfig{Count: 10, MaxDiameter: 5, Seed: 77})
	d := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.2), Gamma: 1, Seed: 78})

	opts := Hybrid(8)
	opts.Intvl = 2000
	r := PIncDect(ds.G, rules, d, opts)
	if r.Metrics.Units == 0 || r.Metrics.TotalWork == 0 {
		t.Errorf("empty metrics: %+v", r.Metrics)
	}
	if r.Metrics.NC == 0 {
		t.Error("candidate neighborhood not measured")
	}
	ns := VariantNS(8)
	rNS := PIncDect(ds.G, rules, d, ns)
	if rNS.Metrics.Splits != 0 {
		t.Errorf("ns variant split %d times", rNS.Metrics.Splits)
	}
	fmt.Printf("hybrid metrics: %+v\n", r.Metrics)
}
