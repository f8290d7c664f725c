// Differential tests for the optimized detection paths — index-backed
// candidate pruning (§6.2 step (3)), cost-ordered cached plans, cross-rule
// prefix sharing: every detector — Dect, IncDect, PDect, PIncDect — must
// produce violation sets byte-identical to the brute-force reference oracle
// (internal/ref), which uses none of them.
package detect_test

import (
	"testing"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/par"
	"ngd/internal/pattern"
	"ngd/internal/plan"
	"ngd/internal/ref"
)

// rangeRule exercises the ordered index: f.val >= 1 ⇒ c.val = 7 over the
// generator's flag/p2 property stars of untyped entities (flag values are
// 0/1, so this is the wildcard FlagRule invariant phrased as a range
// precondition).
func rangeRule() *core.NGD {
	q := pattern.New()
	x := q.AddNode("x", "_")
	f := q.AddNode("f", "integer")
	c := q.AddNode("c", "integer")
	q.AddEdge(x, f, "flag")
	q.AddEdge(x, c, "p2")
	return core.MustNew("range-flag", q,
		[]core.Literal{core.Lit(expr.V("f", "val"), expr.Ge, expr.C(1))},
		[]core.Literal{core.Lit(expr.V("c", "val"), expr.Eq, expr.C(7))},
	)
}

func testWorkloads(tb testing.TB) []struct {
	name  string
	ds    *gen.Dataset
	rules *core.Set
} {
	tb.Helper()
	var out []struct {
		name  string
		ds    *gen.Dataset
		rules *core.Set
	}
	// A raised error rate keeps the differential non-vacuous at test scale;
	// EffectivenessRules covers every entity type so each injected error is
	// catchable (the Exp-5 configuration).
	for _, p := range []gen.Profile{gen.YAGO2, gen.Pokec} {
		p.ErrorRate = 0.25
		ds := gen.Generate(p, 150, 7)
		var rules *core.Set
		if p.Name == "yago2" {
			rules = gen.EffectivenessRules(p)
		} else {
			rules = gen.Rules(p, gen.RuleConfig{Count: 14, MaxDiameter: 5, Seed: 7})
		}
		rules.Add(rangeRule(), gen.WildFlagRule(0))
		out = append(out, struct {
			name  string
			ds    *gen.Dataset
			rules *core.Set
		}{p.Name, ds, rules})
	}
	return out
}

func TestPruningDifferentialDect(t *testing.T) {
	for _, w := range testWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			want := ref.Detect(w.ds.G, w.rules)
			if len(want) == 0 {
				t.Fatal("workload produced no violations; differential test is vacuous")
			}
			got := detect.Dect(w.ds.G, w.rules, detect.Options{})
			if got, want := ref.Keys(got.Violations), ref.Keys(want); got != want {
				t.Fatalf("violation sets differ:\nDect:\n%s\nreference:\n%s", got, want)
			}
		})
	}
}

// TestPlanPolicyDifferentialDect pins the plan-layer invariant: neither
// plan caching nor cross-rule prefix sharing may change the violation set.
// A shared Program run cold and again from its memoized forest, and the
// union of independent singleton-set runs (Σ_r Dect(G,{r}) — the per-rule
// yardstick cmd/ngdbench reports, which shares nothing by construction),
// must all equal the oracle.
func TestPlanPolicyDifferentialDect(t *testing.T) {
	for _, w := range testWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			want := ref.Keys(ref.Detect(w.ds.G, w.rules))
			if want == "" {
				t.Fatal("vacuous workload")
			}
			prog := plan.New(w.ds.G, w.rules, plan.Options{})
			for _, run := range []string{"cold", "memoized"} {
				res := detect.Dect(w.ds.G, w.rules, detect.Options{Program: prog})
				if ref.Keys(res.Violations) != want {
					t.Fatalf("shared Dect (%s) diverged from the reference", run)
				}
			}
			var solo []core.Violation
			for _, r := range w.rules.Rules {
				solo = append(solo, detect.Dect(w.ds.G, core.NewSet(r), detect.Options{}).Violations...)
			}
			if ref.Keys(solo) != want {
				t.Fatal("per-rule Dect union diverged from the reference")
			}
		})
	}
}

// TestPlanPolicyDifferentialIncDect is the incremental counterpart: the
// shared program's cached, cost-ordered pivot plans must reproduce exactly
// the reference ΔVio, cold and cache-served.
func TestPlanPolicyDifferentialIncDect(t *testing.T) {
	for _, w := range testWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			d := gen.RandomDelta(w.ds, gen.DeltaConfig{
				Size: gen.DeltaSize(w.ds.G, 0.2), Gamma: 1, Seed: 42})
			p, m := ref.Delta(w.ds.G, w.rules, d)
			plus, minus := ref.Keys(p), ref.Keys(m)
			prog := plan.New(w.ds.G, w.rules, plan.Options{})
			for _, run := range []string{"cold", "cache-served"} {
				r := inc.IncDect(w.ds.G, w.rules, d, inc.Options{Program: prog})
				if ref.Keys(r.Plus) != plus || ref.Keys(r.Minus) != minus {
					t.Fatalf("IncDect (%s) diverged from the reference ΔVio", run)
				}
			}
			if prog.Counters().Hits == 0 {
				t.Fatal("second IncDect run through the program produced no plan-cache hits")
			}
		})
	}
}

func TestPruningDifferentialIncDect(t *testing.T) {
	for _, w := range testWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			d := gen.RandomDelta(w.ds, gen.DeltaConfig{
				Size: gen.DeltaSize(w.ds.G, 0.2), Gamma: 1, Seed: 99})
			got := inc.IncDect(w.ds.G, w.rules, d, inc.Options{})
			p, m := ref.Delta(w.ds.G, w.rules, d)
			plus, minus := ref.Keys(p), ref.Keys(m)
			if got := ref.Keys(got.Plus); got != plus {
				t.Fatalf("ΔVio⁺ differs:\nIncDect:\n%s\nreference:\n%s", got, plus)
			}
			if got := ref.Keys(got.Minus); got != minus {
				t.Fatalf("ΔVio⁻ differs:\nIncDect:\n%s\nreference:\n%s", got, minus)
			}
		})
	}
}

func TestPruningDifferentialParallel(t *testing.T) {
	for _, w := range testWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			want := ref.Keys(ref.Detect(w.ds.G, w.rules))
			if ref.Keys(par.PDect(w.ds.G, w.rules, par.Hybrid(4)).Violations) != want {
				t.Fatal("PDect disagrees with the reference")
			}

			d := gen.RandomDelta(w.ds, gen.DeltaConfig{
				Size: gen.DeltaSize(w.ds.G, 0.2), Gamma: 1, Seed: 99})
			p, m := ref.Delta(w.ds.G, w.rules, d)
			plus, minus := ref.Keys(p), ref.Keys(m)
			pinc := par.PIncDect(w.ds.G, w.rules, d, par.Hybrid(4))
			if ref.Keys(pinc.Delta.Plus) != plus || ref.Keys(pinc.Delta.Minus) != minus {
				t.Fatal("PIncDect disagrees with the reference ΔVio")
			}
		})
	}
}

// TestPruningAfterDeltaApply proves the indexes built during a detection run
// stay in sync through Delta.Apply (edge churn) and SetAttr (value churn):
// detection on the mutated graph must still agree with the oracle.
func TestPruningAfterDeltaApply(t *testing.T) {
	w := testWorkloads(t)[0]
	g := w.ds.G

	// first detection run builds the attribute indexes
	before := detect.Dect(g, w.rules, detect.Options{})
	if len(before.Violations) == 0 {
		t.Fatal("vacuous workload")
	}

	// churn: apply an edge delta and rewrite attribute values under the
	// live indexes (flag flips change equality postings, score writes move
	// ordered-index entries)
	d := gen.RandomDelta(w.ds, gen.DeltaConfig{Size: gen.DeltaSize(g, 0.25), Gamma: 1, Seed: 5})
	d.Normalize(g).Apply(g)
	val := g.Symbols().LookupAttr("val")
	for i, props := range w.ds.PropNode {
		if i%3 == 0 {
			g.SetAttrA(props[6], val, graph.Int(int64(i%2)))
		}
		if i%4 == 0 {
			g.SetAttrA(props[2], val, graph.Int(int64(7+i%3)))
		}
	}

	got := detect.Dect(g, w.rules, detect.Options{})
	if got, want := ref.Keys(got.Violations), ref.Keys(ref.Detect(g, w.rules)); got != want {
		t.Fatalf("after delta+attr churn, violation sets differ:\nDect:\n%s\nreference:\n%s",
			got, want)
	}
}
