// Micro-benchmarks with no harness counterpart. The paper's tables are
// cmd/ngdbench's (kept from bit-rotting by its registry test), wall-clock
// numbers of the serving, recovery and streaming paths are bench/'s
// (BENCHMARK.json); what stays here are the measurements neither prints:
// the incremental-vs-recompute cost_units of a continuous session, the
// publish-path cost curve, a commit's cost against the graph's size, and
// the planning preamble of a first detection.
package ngd_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ngd/internal/analyze"
	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/pattern"
	"ngd/internal/plan"
	"ngd/internal/session"
	"ngd/internal/sorted"
)

const (
	benchEntities = 600
	benchRules    = 24
)

// BenchmarkSessionStream measures a continuous detection session's
// sustained commit+detect throughput over a burst-skewed update stream
// against recomputing Dect from scratch after every batch — the
// incremental win the session subsystem (in-place ΔG commit + live
// violation store) exists to deliver. cost_units is the deterministic
// per-stream work metric, and DectScratch's over SessionCommit's is the
// incremental-vs-recompute ratio; updates/sec is the wall-clock sustained
// rate.
func BenchmarkSessionStream(b *testing.B) {
	b.ReportAllocs()
	p := gen.YAGO2
	ds := gen.Generate(p, benchEntities, 1)
	rules := gen.Rules(p, gen.RuleConfig{Count: benchRules, MaxDiameter: 5, Seed: 1})
	const nBatches = 6
	batches := make([]*graph.Delta, nBatches)
	totalOps := 0
	for i := range batches {
		batches[i] = gen.RandomDelta(ds, gen.DeltaConfig{
			Size: gen.DeltaSize(ds.G, 0.04), Gamma: 1, Seed: int64(100 + i),
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

// BenchmarkCommitVsSize commits gen.SweepCommits' three kinds (16 edge
// ops, a node arrival, 16 writes of an indexed attribute) on sessions over
// gen.Sweep at 2k to 128k entities (16k to 1M nodes), each with and without
// a fork held across the commit, as a checkpoint holds one. Besides ns/op
// and B/op it reports moved/op, the index and store entries the commit
// wrote into new chunks (sorted.Copied). A commit's work should be its
// ΔG's, so every column should stay flat down a kind's rows. Run by hand:
// the 128k row generates a million-node graph.
func BenchmarkCommitVsSize(b *testing.B) {
	for _, n := range []int{2_000, 8_000, 32_000, 128_000} {
		ds, sigma := gen.Sweep(n)
		s := session.New(ds.G, sigma, session.Options{})
		for _, k := range gen.SweepCommits(ds, rand.New(rand.NewSource(7))) {
			for _, held := range []bool{false, true} {
				name := fmt.Sprintf("%dk/%s", n/1000, k.Name)
				if held {
					name += "/held-fork"
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					var moved int64
					for range b.N {
						b.StopTimer()
						d, ops := k.Next()
						var fork *graph.Graph
						if held {
							fork = ds.G.Clone()
						}
						before := sorted.Copied.Load()
						b.StartTimer()
						s.CommitBatch(d, ops)
						b.StopTimer()
						moved += sorted.Copied.Load() - before
						if fork != nil {
							fork.Release()
						}
						b.StartTimer()
					}
					b.ReportMetric(float64(moved)/float64(b.N), "moved/op")
				})
			}
		}
	}
}

// BenchmarkNewSnapshot seeds a violation store the size of bigstore-mixed's
// (17,500 violations over the 64k nodes of an 8,000-entity yago2 graph):
// session.Restore over a persisted store, the part of a durable boot that
// follows decoding. Each violation of the 41-rule effectiveness Σ binds an
// entity and three of its property nodes. The admission pass is off, so Σ's
// compilation is about a millisecond of the op.
func BenchmarkNewSnapshot(b *testing.B) {
	p := gen.YAGO2
	ds := gen.Generate(p, 8000, 1)
	rules := gen.EffectivenessRules(p)
	rng := rand.New(rand.NewSource(1))
	vios := make([]core.Violation, 17_500)
	for i := range vios {
		e := rng.Intn(len(ds.Entities))
		props := rng.Perm(len(ds.PropNode[e]))[:3]
		m := core.Match{ds.Entities[e], ds.PropNode[e][props[0]], ds.PropNode[e][props[1]], ds.PropNode[e][props[2]]}
		vios[i] = core.Violation{Rule: rules.Rules[rng.Intn(len(rules.Rules))], Match: m}
	}
	opts := session.Options{Analyze: analyze.Options{NoMinimize: true}}
	b.ReportAllocs()
	for b.Loop() {
		session.Restore(ds.G, rules, vios, opts)
	}
}

// BenchmarkFirstPlan is what a fresh process pays between loading G and its
// first hit (ngdcheck -limit 1) on a graph of roughly cold-batch size
// (48k nodes, 50 rules): compiling Σ, then the first Dect builds the
// attribute indexes, the edge-value indexes and LiveStats its plans read.
// Each op starts from an untimed Clone of a graph never planned over, so
// the clone inherits none of them.
func BenchmarkFirstPlan(b *testing.B) {
	g := gen.Generate(gen.YAGO2, 6000, 1).G
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 50, MaxDiameter: 5, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := g.Clone()
		b.StartTimer()
		prog := plan.New(c, rules, plan.Options{})
		detect.Dect(c, rules, detect.Options{Limit: 1, Program: prog})
	}
}
