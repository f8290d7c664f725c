// Benchmarks regenerating the paper's evaluation (one per table/figure) at
// test scale. cmd/ngdbench runs the full parameter sweeps and prints the
// series; these testing.B entries give per-configuration timings and report
// the deterministic cost metric each figure is plotted from
// (cost_units/op for sequential work, makespan_units for parallel runs).
package ngd_test

import (
	"fmt"
	"runtime"
	"testing"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/par"
	"ngd/internal/pattern"
	"ngd/internal/plan"
	"ngd/internal/reason"
	"ngd/internal/session"
	"ngd/internal/update"
)

const (
	benchEntities = 600
	benchRules    = 24
)

type benchWorkload struct {
	ds    *gen.Dataset
	rules *core.Set
	delta *graph.Delta
	after *graph.Overlay
}

// sim pins an options value to the deterministic virtual-time scheduler:
// the fig4 benchmarks report simulated makespan_units, which must stay
// machine-independent now that the engine defaults to the wall-clock shard
// runtime. BenchmarkShardScaling is the wall-clock counterpart.
func sim(o par.Options) par.Options {
	o.Virtual = true
	return o
}

func mkBench(p gen.Profile, deltaFrac float64, seed int64) benchWorkload {
	ds := gen.Generate(p, benchEntities, seed)
	rules := gen.Rules(p, gen.RuleConfig{Count: benchRules, MaxDiameter: 5, Seed: seed})
	var d *graph.Delta
	var after *graph.Overlay
	if deltaFrac > 0 {
		d = update.Random(ds, update.Config{Size: update.SizeFor(ds.G, deltaFrac), Gamma: 1, Seed: seed * 31})
		after = graph.NewOverlay(ds.G, d.Normalize(ds.G))
	}
	return benchWorkload{ds: ds, rules: rules, delta: d, after: after}
}

// benchVaryDelta is the Exp-1 shape (Figures 4a–4d): batch recompute vs
// incremental at a given ΔG fraction.
func benchVaryDelta(b *testing.B, p gen.Profile, frac float64) {
	w := mkBench(p, frac, 1)
	b.Run("Dect", func(b *testing.B) {
		b.ReportAllocs()
		var work float64
		for i := 0; i < b.N; i++ {
			r := detect.Dect(w.after, w.rules, detect.Options{})
			work = float64(r.Counters.Candidates + r.Counters.Checks)
		}
		b.ReportMetric(work, "cost_units")
	})
	b.Run("IncDect", func(b *testing.B) {
		b.ReportAllocs()
		var work float64
		for i := 0; i < b.N; i++ {
			r := inc.IncDect(w.ds.G, w.rules, w.delta, inc.Options{})
			work = float64(r.Counters.Candidates + r.Counters.Checks)
		}
		b.ReportMetric(work, "cost_units")
	})
	b.Run("PDect", func(b *testing.B) {
		b.ReportAllocs()
		var span float64
		for i := 0; i < b.N; i++ {
			span = par.PDect(w.after, w.rules, sim(par.Hybrid(8))).Metrics.Makespan
		}
		b.ReportMetric(span, "makespan_units")
	})
	b.Run("PIncDect", func(b *testing.B) {
		b.ReportAllocs()
		var span float64
		for i := 0; i < b.N; i++ {
			span = par.PIncDect(w.ds.G, w.rules, w.delta, sim(par.Hybrid(8))).Metrics.Makespan
		}
		b.ReportMetric(span, "makespan_units")
	})
}

func BenchmarkFig4aVaryDeltaDBpedia(b *testing.B) {
	b.ReportAllocs()
	for _, pct := range []int{5, 15, 25, 35} {
		b.Run(fmt.Sprintf("delta%d", pct), func(b *testing.B) {
			b.ReportAllocs()
			benchVaryDelta(b, gen.DBpedia, float64(pct)/100)
		})
	}
}

func BenchmarkFig4bVaryDeltaYago(b *testing.B) {
	b.ReportAllocs()
	for _, pct := range []int{5, 15, 25, 35} {
		b.Run(fmt.Sprintf("delta%d", pct), func(b *testing.B) {
			b.ReportAllocs()
			benchVaryDelta(b, gen.YAGO2, float64(pct)/100)
		})
	}
}

func BenchmarkFig4cVaryDeltaPokec(b *testing.B) {
	b.ReportAllocs()
	for _, pct := range []int{5, 15, 25, 40} {
		b.Run(fmt.Sprintf("delta%d", pct), func(b *testing.B) {
			b.ReportAllocs()
			benchVaryDelta(b, gen.Pokec, float64(pct)/100)
		})
	}
}

func BenchmarkFig4dVaryDeltaSynthetic(b *testing.B) {
	b.ReportAllocs()
	for _, pct := range []int{5, 15, 25, 35} {
		b.Run(fmt.Sprintf("delta%d", pct), func(b *testing.B) {
			b.ReportAllocs()
			benchVaryDelta(b, gen.Synthetic, float64(pct)/100)
		})
	}
}

// BenchmarkFig4eVaryG: Exp-2 (vary |G|) — incremental vs batch at three
// synthetic graph sizes, ΔG = 15%.
func BenchmarkFig4eVaryG(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{400, 800, 1600} {
		ds := gen.Generate(gen.Synthetic, n, 1)
		rules := gen.Rules(gen.Synthetic, gen.RuleConfig{Count: benchRules, MaxDiameter: 5, Seed: 1})
		d := update.Random(ds, update.Config{Size: update.SizeFor(ds.G, 0.15), Gamma: 1, Seed: 31})
		after := graph.NewOverlay(ds.G, d.Normalize(ds.G))
		b.Run(fmt.Sprintf("n%d/Dect", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				detect.Dect(after, rules, detect.Options{})
			}
		})
		b.Run(fmt.Sprintf("n%d/IncDect", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inc.IncDect(ds.G, rules, d, inc.Options{})
			}
		})
	}
}

// BenchmarkFig4fVarySigmaDBpedia / Fig4g: Exp-3, vary ‖Σ‖.
func benchVarySigma(b *testing.B, p gen.Profile) {
	ds := gen.Generate(p, benchEntities, 1)
	d := update.Random(ds, update.Config{Size: update.SizeFor(ds.G, 0.15), Gamma: 1, Seed: 31})
	for _, k := range []int{10, 25, 50} {
		rules := gen.Rules(p, gen.RuleConfig{Count: k, MaxDiameter: 5, Seed: 1})
		b.Run(fmt.Sprintf("sigma%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inc.IncDect(ds.G, rules, d, inc.Options{})
			}
		})
	}
}

func BenchmarkFig4fVarySigmaDBpedia(b *testing.B) { benchVarySigma(b, gen.DBpedia) }
func BenchmarkFig4gVarySigmaYago(b *testing.B)    { benchVarySigma(b, gen.YAGO2) }

// BenchmarkFig4hVaryDiameter: Exp-3, vary dΣ on the DBpedia profile.
func BenchmarkFig4hVaryDiameter(b *testing.B) {
	b.ReportAllocs()
	ds := gen.Generate(gen.DBpedia, benchEntities, 1)
	d := update.Random(ds, update.Config{Size: update.SizeFor(ds.G, 0.15), Gamma: 1, Seed: 31})
	for _, diam := range []int{2, 4, 6} {
		rules := gen.Rules(gen.DBpedia, gen.RuleConfig{Count: benchRules, MaxDiameter: diam, Seed: 1})
		b.Run(fmt.Sprintf("d%d", diam), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inc.IncDect(ds.G, rules, d, inc.Options{})
			}
		})
	}
}

// benchVaryP is the Exp-4 scalability shape (Figures 4i–4l): simulated
// makespan as p grows, hybrid vs the NO variant.
func benchVaryP(b *testing.B, p gen.Profile) {
	w := mkBench(p, 0.15, 1)
	for _, workers := range []int{4, 12, 20} {
		b.Run(fmt.Sprintf("p%d/hybrid", workers), func(b *testing.B) {
			b.ReportAllocs()
			var span float64
			for i := 0; i < b.N; i++ {
				span = par.PIncDect(w.ds.G, w.rules, w.delta, sim(par.Hybrid(workers))).Metrics.Makespan
			}
			b.ReportMetric(span, "makespan_units")
		})
		b.Run(fmt.Sprintf("p%d/NO", workers), func(b *testing.B) {
			b.ReportAllocs()
			var span float64
			for i := 0; i < b.N; i++ {
				span = par.PIncDect(w.ds.G, w.rules, w.delta, sim(par.VariantNO(workers))).Metrics.Makespan
			}
			b.ReportMetric(span, "makespan_units")
		})
	}
}

func BenchmarkFig4iVaryPDBpedia(b *testing.B)   { benchVaryP(b, gen.DBpedia) }
func BenchmarkFig4jVaryPYago(b *testing.B)      { benchVaryP(b, gen.YAGO2) }
func BenchmarkFig4kVaryPPokec(b *testing.B)     { benchVaryP(b, gen.Pokec) }
func BenchmarkFig4lVaryPSynthetic(b *testing.B) { benchVaryP(b, gen.Synthetic) }

// BenchmarkFig4mVaryC: Exp-4, the latency-parameter sweep on Pokec.
func BenchmarkFig4mVaryC(b *testing.B) {
	b.ReportAllocs()
	w := mkBench(gen.Pokec, 0.15, 1)
	for _, c := range []int{20, 60, 100} {
		opts := sim(par.Hybrid(8))
		opts.C = c
		b.Run(fmt.Sprintf("C%d", c), func(b *testing.B) {
			b.ReportAllocs()
			var span float64
			for i := 0; i < b.N; i++ {
				span = par.PIncDect(w.ds.G, w.rules, w.delta, opts).Metrics.Makespan
			}
			b.ReportMetric(span, "makespan_units")
		})
	}
}

// BenchmarkFig4nVaryIntvl: Exp-4, the balancing-interval sweep on YAGO2.
func BenchmarkFig4nVaryIntvl(b *testing.B) {
	b.ReportAllocs()
	w := mkBench(gen.YAGO2, 0.15, 1)
	for _, iv := range []float64{700, 2100, 3500} {
		opts := sim(par.Hybrid(8))
		opts.Intvl = iv
		b.Run(fmt.Sprintf("intvl%.0f", iv), func(b *testing.B) {
			b.ReportAllocs()
			var span float64
			for i := 0; i < b.N; i++ {
				span = par.PIncDect(w.ds.G, w.rules, w.delta, opts).Metrics.Makespan
			}
			b.ReportMetric(span, "makespan_units")
		})
	}
}

// BenchmarkSessionStream measures a continuous detection session's
// sustained commit+detect throughput over a burst-skewed update stream
// against recomputing Dect from scratch after every batch — the
// incremental win the session subsystem (in-place ΔG commit + live
// violation store) exists to deliver. cost_units is the deterministic
// per-stream work metric; updates/sec the wall-clock sustained rate.
func BenchmarkSessionStream(b *testing.B) {
	b.ReportAllocs()
	p := gen.YAGO2
	ds := gen.Generate(p, benchEntities, 1)
	rules := gen.Rules(p, gen.RuleConfig{Count: benchRules, MaxDiameter: 5, Seed: 1})
	const nBatches = 6
	batches := make([]*graph.Delta, nBatches)
	totalOps := 0
	for i := range batches {
		batches[i] = update.Random(ds, update.Config{
			Size: update.SizeFor(ds.G, 0.04), Gamma: 1, Seed: int64(100 + i),
		})
		totalOps += batches[i].Len()
	}
	// snapshot after stream generation so every delta's nodes exist in it
	snapshot := ds.G.Clone()

	b.Run("SessionCommit", func(b *testing.B) {
		b.ReportAllocs()
		var cost float64
		var store int
		for i := 0; i < b.N; i++ {
			s := session.New(snapshot.Clone(), rules, session.Options{})
			cost = 0
			for _, d := range batches {
				st := s.Commit(d)
				cost += st.Cost
				store = st.StoreSize
			}
		}
		b.ReportMetric(cost, "cost_units")
		b.ReportMetric(float64(store), "store_size")
		b.ReportMetric(float64(totalOps*b.N)/b.Elapsed().Seconds(), "updates/sec")
	})
	b.Run("DectScratch", func(b *testing.B) {
		b.ReportAllocs()
		var cost float64
		var vios int
		for i := 0; i < b.N; i++ {
			g := snapshot.Clone()
			cost = 0
			for _, d := range batches {
				g.Apply(d.Normalize(g))
				r := detect.Dect(g, rules, detect.Options{})
				cost += float64(r.Counters.Candidates + r.Counters.Checks)
				vios = len(r.Violations)
			}
		}
		b.ReportMetric(cost, "cost_units")
		b.ReportMetric(float64(vios), "store_size")
		b.ReportMetric(float64(totalOps*b.N)/b.Elapsed().Seconds(), "updates/sec")
	})
}

// BenchmarkSnapshotAdvance is the publish path at three store sizes: every
// commit flips the same 16 items (Δ = 16 violations cleared, or found
// again), so what grows from 1k to 200k is only the snapshot the commit
// advances — the cost curve of "the store is its last snapshot plus the
// commit's delta".
func BenchmarkSnapshotAdvance(b *testing.B) {
	q := pattern.New()
	q.AddNode("x", "item")
	rules := core.NewSet(core.MustNew("cap", q, nil, []core.Literal{core.MustLiteral("x.val <= 10")}))
	for _, size := range []int{1_000, 20_000, 200_000} {
		b.Run(fmt.Sprintf("%dk", size/1000), func(b *testing.B) {
			g := graph.New()
			for i := 0; i < size; i++ {
				g.SetAttr(g.AddNode("item"), "val", graph.Int(20))
			}
			s := session.New(g, rules, session.Options{})
			ops := make([]graph.AttrOp, 16)
			flip := func(i int) {
				for j := range ops {
					ops[j] = graph.AttrOp{Node: graph.NodeID(j), Attr: g.Symbols().Attr("val"), Val: graph.Int(int64(1 + 19*(i%2)))}
				}
				s.CommitBatch(nil, ops)
				s.Snapshot()
			}
			flip(0)
			flip(1) // warm: plans, searchers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flip(i)
			}
			b.ReportMetric(float64(s.Len()), "store_size")
		})
	}
}

// BenchmarkExp5Effectiveness: the error-catching study.
func BenchmarkExp5Effectiveness(b *testing.B) {
	b.ReportAllocs()
	for _, p := range []gen.Profile{gen.DBpedia, gen.YAGO2, gen.Pokec} {
		ds := gen.Generate(p, benchEntities, 1)
		rules := gen.EffectivenessRules(p)
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			var caught int
			for i := 0; i < b.N; i++ {
				r := detect.Dect(ds.G, rules, detect.Options{})
				caught = len(r.Violations)
			}
			b.ReportMetric(float64(caught), "violations")
			b.ReportMetric(float64(len(ds.Errors)), "injected")
		})
	}
}

// BenchmarkReasoning: §4 static analyses on the Example 5 rule sets.
func BenchmarkReasoning(b *testing.B) {
	b.ReportAllocs()
	phi5 := singleRule("phi5", []string{"x.A = 7", "x.B = 7"})
	phi6 := singleRule("phi6", []string{"x.A + x.B = 11"})
	set := core.NewSet(phi5, phi6)
	b.Run("SatisfiabilityConflict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if v, err := reason.Satisfiable(set, reason.Options{}); err != nil || v != reason.No {
				b.Fatalf("unexpected: %v %v", v, err)
			}
		}
	})
	b.Run("Implication", func(b *testing.B) {
		b.ReportAllocs()
		weaker := singleRule("weak", []string{"x.A >= 0"})
		one := core.NewSet(singleRule("s", []string{"x.A = 7"}))
		for i := 0; i < b.N; i++ {
			if v, err := reason.Implies(one, weaker, reason.Options{}); err != nil || v != reason.Yes {
				b.Fatalf("unexpected: %v %v", v, err)
			}
		}
	})
}

func singleRule(name string, then []string) *core.NGD {
	q := corePat()
	var t []core.Literal
	for _, s := range then {
		t = append(t, core.MustLiteral(s))
	}
	return core.MustNew(name, q, nil, t)
}

func corePat() *pattern.Pattern {
	q := pattern.New()
	q.AddNode("x", "_")
	return q
}

// BenchmarkPlanProgram pins the shared rule-program layer (internal/plan):
// cold per-call compile+plan vs a cached Program on a small-batch
// incremental stream (the serving hot path), and the cross-rule sharing win
// on batch detection. CI runs every benchmark once per commit so these can
// never bit-rot.
func BenchmarkPlanProgram(b *testing.B) {
	b.ReportAllocs()
	w := mkBench(gen.YAGO2, 0.01, 1)
	b.Run("IncDectColdPlans", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inc.IncDect(w.ds.G, w.rules, w.delta, inc.Options{}) // compiles Σ every call
		}
	})
	b.Run("IncDectCachedProgram", func(b *testing.B) {
		b.ReportAllocs()
		prog := plan.New(w.ds.G, w.rules, plan.Options{})
		inc.IncDect(w.ds.G, w.rules, w.delta, inc.Options{Program: prog}) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inc.IncDect(w.ds.G, w.rules, w.delta, inc.Options{Program: prog})
		}
		c := prog.Counters()
		b.ReportMetric(float64(c.Hits), "plan_hits")
		b.ReportMetric(float64(c.Misses), "plan_misses")
	})
	b.Run("DectShared", func(b *testing.B) {
		b.ReportAllocs()
		prog := plan.New(w.ds.G, w.rules, plan.Options{})
		var work float64
		for i := 0; i < b.N; i++ {
			r := detect.Dect(w.ds.G, w.rules, detect.Options{Program: prog})
			work = float64(r.Counters.Candidates + r.Counters.Checks)
		}
		b.ReportMetric(work, "cost_units")
		b.ReportMetric(float64(prog.Counters().SharedRules), "shared_rules")
	})
	b.Run("DectPerRule", func(b *testing.B) {
		b.ReportAllocs()
		// Σ_r Dect(G, {r}): singleton sets share nothing by construction
		sets := make([]*core.Set, len(w.rules.Rules))
		for i, r := range w.rules.Rules {
			sets[i] = core.NewSet(r)
		}
		prog := plan.New(w.ds.G, w.rules, plan.Options{})
		var work float64
		for i := 0; i < b.N; i++ {
			work = 0
			for _, one := range sets {
				r := detect.Dect(w.ds.G, one, detect.Options{Program: prog})
				work += float64(r.Counters.Candidates + r.Counters.Checks)
			}
		}
		b.ReportMetric(work, "cost_units")
	})
}

// BenchmarkShardScaling times PDect and PIncDect on a persistent shard pool
// (the goroutine scheduler, engine default) at p = 1, 2, 4 and, on larger
// hosts, NumCPU. It is the `go test -bench` view (ns/op, allocs/op,
// -cpuprofile) of what `ngdbench shards` measures at full scale; only that
// command writes BENCH_shards.json. The numbers are wall-clock: a
// single-core host shows a flat curve by physics, not by regression.
func BenchmarkShardScaling(b *testing.B) {
	w := mkBench(gen.Pokec, 0.15, 1)
	norm := w.delta.Normalize(w.ds.G)

	ps := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		ps = append(ps, n)
	}
	for _, p := range ps {
		pool := par.NewPool(p)
		opts := par.Hybrid(p)
		opts.Pool = pool
		opts.AssumeNormalized = true

		b.Run(fmt.Sprintf("p%d/PDect", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				par.PDect(w.after, w.rules, opts)
			}
		})
		b.Run(fmt.Sprintf("p%d/PIncDect", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				par.PIncDect(w.ds.G, w.rules, norm, opts)
			}
		})
		pool.Close()
	}
}
