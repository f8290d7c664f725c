// Command ngdbench regenerates the evaluation of Fan et al. (SIGMOD 2018),
// Figures 4(a)–4(n) and the Exp-5 effectiveness study, at a configurable
// scale (see DESIGN.md for the scale mapping and EXPERIMENTS.md for
// paper-vs-measured results).
//
// All series are reported in deterministic cost units (1 unit = one
// adjacency entry scanned or one edge checked): sequential algorithms
// report their total work, parallel algorithms the simulated makespan of
// the virtual cluster driver, so every column is directly comparable and
// machine-independent.
//
// Usage:
//
//	ngdbench [-n entities] [-seed s] [-rules k] <experiment>
//
// where experiment is one of: fig4a fig4b fig4c fig4d fig4e fig4f fig4g
// fig4h fig4i fig4j fig4k fig4l fig4m fig4n exp5 reason stream serve
// recover plan shards repair all
//
// stream, serve, recover, plan, shards and repair are the serving-layer
// experiments beyond the paper: stream replays a seeded burst-skewed
// update stream through a continuous detection session against the
// recompute-from-scratch baseline; serve measures snapshot-isolated read
// latency under a concurrent writer plus incremental partition
// maintenance; recover measures durable-store crash recovery (snapshot
// decode + WAL replay, internal/store) against the cold-boot seeding
// detection run; shards measures wall-clock scaling of the goroutine
// shard runtime at p = 1..8 and writes BENCH_shards.json; repair
// measures the fix-enumeration cost of the repair engine as the
// violation store grows, and how many top-ranked applies empty it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ngd/internal/analyze"
	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/par"
	"ngd/internal/partition"
	"ngd/internal/pattern"
	"ngd/internal/plan"
	"ngd/internal/reason"
	"ngd/internal/repair"
	"ngd/internal/serve"
	"ngd/internal/session"
	"ngd/internal/store"
	"ngd/internal/update"
)

var (
	nEntities  = flag.Int("n", 1200, "entities per generated graph (scale knob)")
	seed       = flag.Int64("seed", 1, "base RNG seed")
	nRules     = flag.Int("rules", 50, "rules in Σ (the paper's default)")
	nBatches   = flag.Int("batches", 8, "stream/serve: number of update batches to replay")
	batchPct   = flag.Int("batchpct", 5, "stream: batch size as % of |E|")
	streamPar  = flag.Bool("stream-par", false, "stream: route batches through PIncDect")
	nReaders   = flag.Int("readers", 8, "serve: concurrent snapshot readers")
	shardsOut  = flag.String("shards-out", "BENCH_shards.json", "shards: machine-readable output path")
	allocOut   = flag.String("alloc-out", "BENCH_alloc.json", "alloc: machine-readable output path")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile (after the experiment) to this file")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ngdbench [flags] <fig4a..fig4n|exp5|reason|analyze|stream|all>")
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}
	exp := flag.Arg(0)
	experiments := map[string]func(){
		"fig4a":   func() { varyDelta(gen.DBpedia, []int{5, 10, 15, 20, 25, 30, 35}) },
		"fig4b":   func() { varyDelta(gen.YAGO2, []int{5, 10, 15, 20, 25, 30, 35}) },
		"fig4c":   func() { varyDelta(gen.Pokec, []int{5, 10, 15, 20, 25, 30, 35, 40}) },
		"fig4d":   func() { varyDelta(gen.Synthetic, []int{5, 10, 15, 20, 25, 30, 35}) },
		"fig4e":   varyG,
		"fig4f":   func() { varySigma(gen.DBpedia) },
		"fig4g":   func() { varySigma(gen.YAGO2) },
		"fig4h":   varyDiameter,
		"fig4i":   func() { varyP(gen.DBpedia) },
		"fig4j":   func() { varyP(gen.YAGO2) },
		"fig4k":   func() { varyP(gen.Pokec) },
		"fig4l":   func() { varyP(gen.Synthetic) },
		"fig4m":   varyC,
		"fig4n":   varyIntvl,
		"exp5":    exp5,
		"reason":  reasonDemo,
		"analyze": analyzeExp,
		"stream":  streamExp,
		"serve":   serveExp,
		"recover": recoverExp,
		"plan":    planExp,
		"shards":  shardsExp,
		"repair":  repairExp,
		"alloc":   allocExp,
	}
	if exp == "all" {
		for _, name := range []string{"fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f",
			"fig4g", "fig4h", "fig4i", "fig4j", "fig4k", "fig4l", "fig4m", "fig4n", "exp5", "reason", "analyze", "stream", "serve", "recover", "plan", "shards", "repair", "alloc"} {
			experiments[name]()
			fmt.Println()
		}
		return
	}
	run, ok := experiments[exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", exp)
		os.Exit(2)
	}
	run()
}

// ---- measurement helpers ----

// ku formats cost units in thousands.
func ku(v float64) string { return fmt.Sprintf("%8.1f", v/1000) }

// oracle pins an options value to the deterministic virtual-time driver.
// The goroutine shard runtime is the engine default now, but every fig4
// series reports simulated cost units, which must stay machine-independent
// and reproducible; the `shards` experiment is the wall-clock counterpart.
func oracle(o par.Options) par.Options {
	o.Virtual = true
	return o
}

type workload struct {
	ds    *gen.Dataset
	rules *core.Set
	delta *graph.Delta
}

func makeWorkload(p gen.Profile, entities, rules, maxDiam int, deltaFrac float64, s int64) workload {
	ds := gen.Generate(p, entities, s)
	rs := gen.Rules(p, gen.RuleConfig{Count: rules, MaxDiameter: maxDiam, Seed: s})
	var d *graph.Delta
	if deltaFrac > 0 {
		d = update.Random(ds, update.Config{
			Size:  update.SizeFor(ds.G, deltaFrac),
			Gamma: 1,
			Seed:  s * 31,
		})
	}
	return workload{ds: ds, rules: rs, delta: d}
}

// dectWork is the paper-faithful Dect yardstick: Σ_r Dect(G, {r}), one
// independent search per rule — a singleton set shares nothing by
// construction — which is the algorithm the paper's figures measure, so the
// reproduced fig4 curves (and the stream experiment's recompute-from-scratch
// column) keep the paper's shape. sharedWork is what production Dect pays
// for the same answer once overlapping rules ride shared prefixes.
func dectWork(v graph.View, rules *core.Set) float64 {
	var w float64
	for _, r := range rules.Rules {
		w += sharedWork(v, core.NewSet(r))
	}
	return w
}

func sharedWork(v graph.View, rules *core.Set) float64 {
	c := detect.Dect(v, rules, detect.Options{}).Counters
	return float64(c.Candidates + c.Checks)
}

func incWork(g *graph.Graph, rules *core.Set, d *graph.Delta) float64 {
	r := inc.IncDect(g, rules, d, inc.Options{})
	return float64(r.Counters.Candidates + r.Counters.Checks)
}

// ---- Exp-1: vary |ΔG| (Figures 4a–4d) ----

func varyDelta(p gen.Profile, pcts []int) {
	w0 := makeWorkload(p, *nEntities, *nRules, 5, 0, *seed)
	st := w0.ds.G.ComputeStats()
	fmt.Printf("# fig4(a-d) %s: |V|=%d |E|=%d, ‖Σ‖=%d, dΣ=5, p=8; cost kilounits\n",
		p.Name, st.Nodes, st.Edges, *nRules)
	fmt.Printf("%-8s %10s %10s %10s %10s %12s %12s %12s %10s\n",
		"ΔG%", "Dect", "IncDect", "PDect", "PIncDect", "PIncDect_ns", "PIncDect_nb", "PIncDect_NO", "Dect_sh")
	for _, pct := range pcts {
		w := makeWorkload(p, *nEntities, *nRules, 5, float64(pct)/100, *seed)
		norm := w.delta.Normalize(w.ds.G)
		after := graph.NewOverlay(w.ds.G, norm)

		dect := dectWork(after, w.rules)
		incD := incWork(w.ds.G, w.rules, w.delta)
		pdect := par.PDect(after, w.rules, oracle(par.Hybrid(8))).Metrics.Makespan
		hyb := par.PIncDect(w.ds.G, w.rules, w.delta, oracle(par.Hybrid(8))).Metrics.Makespan
		ns := par.PIncDect(w.ds.G, w.rules, w.delta, oracle(par.VariantNS(8))).Metrics.Makespan
		nb := par.PIncDect(w.ds.G, w.rules, w.delta, oracle(par.VariantNB(8))).Metrics.Makespan
		no := par.PIncDect(w.ds.G, w.rules, w.delta, oracle(par.VariantNO(8))).Metrics.Makespan
		fmt.Printf("%-8d %s %s %s %s   %s   %s   %s %s\n",
			pct, ku(dect), ku(incD), ku(pdect), ku(hyb), ku(ns), ku(nb), ku(no), ku(sharedWork(after, w.rules)))
	}
}

// ---- Exp-2: vary |G| (Figure 4e) ----

func varyG() {
	sizes := []int{*nEntities / 2, *nEntities, *nEntities * 3 / 2, *nEntities * 2, *nEntities * 5 / 2}
	fmt.Printf("# fig4e synthetic: vary |G| at ΔG=15%%, ‖Σ‖=%d, p=8; cost kilounits\n", *nRules)
	fmt.Printf("%-16s %10s %10s %10s %10s %10s\n", "|V|/|E|", "Dect", "IncDect", "PDect", "PIncDect", "Dect_sh")
	for _, n := range sizes {
		w := makeWorkload(gen.Synthetic, n, *nRules, 5, 0.15, *seed)
		st := w.ds.G.ComputeStats()
		norm := w.delta.Normalize(w.ds.G)
		after := graph.NewOverlay(w.ds.G, norm)
		dect := dectWork(after, w.rules)
		incD := incWork(w.ds.G, w.rules, w.delta)
		pdect := par.PDect(after, w.rules, oracle(par.Hybrid(8))).Metrics.Makespan
		hyb := par.PIncDect(w.ds.G, w.rules, w.delta, oracle(par.Hybrid(8))).Metrics.Makespan
		fmt.Printf("%-16s %s %s %s %s %s\n",
			fmt.Sprintf("%d/%d", st.Nodes, st.Edges), ku(dect), ku(incD), ku(pdect), ku(hyb), ku(sharedWork(after, w.rules)))
	}
}

// ---- Exp-3: vary ‖Σ‖ (4f, 4g) and dΣ (4h) ----

func varySigma(p gen.Profile) {
	fmt.Printf("# fig4(f,g) %s: vary ‖Σ‖ at ΔG=15%%, dΣ=5, p=8; cost kilounits\n", p.Name)
	fmt.Printf("%-8s %10s %10s %10s %10s %10s\n", "‖Σ‖", "Dect", "IncDect", "PDect", "PIncDect", "Dect_sh")
	for _, k := range []int{50, 60, 70, 80, 90, 100} {
		w := makeWorkload(p, *nEntities, k, 5, 0.15, *seed)
		norm := w.delta.Normalize(w.ds.G)
		after := graph.NewOverlay(w.ds.G, norm)
		dect := dectWork(after, w.rules)
		incD := incWork(w.ds.G, w.rules, w.delta)
		pdect := par.PDect(after, w.rules, oracle(par.Hybrid(8))).Metrics.Makespan
		hyb := par.PIncDect(w.ds.G, w.rules, w.delta, oracle(par.Hybrid(8))).Metrics.Makespan
		fmt.Printf("%-8d %s %s %s %s %s\n", k, ku(dect), ku(incD), ku(pdect), ku(hyb), ku(sharedWork(after, w.rules)))
	}
}

func varyDiameter() {
	fmt.Printf("# fig4h dbpedia: vary dΣ at ΔG=15%%, ‖Σ‖=%d, p=8; cost kilounits\n", *nRules)
	fmt.Printf("%-8s %10s %10s %10s %10s %10s\n", "dΣ", "Dect", "IncDect", "PDect", "PIncDect", "Dect_sh")
	for _, d := range []int{2, 3, 4, 5, 6} {
		w := makeWorkload(gen.DBpedia, *nEntities, *nRules, d, 0.15, *seed)
		norm := w.delta.Normalize(w.ds.G)
		after := graph.NewOverlay(w.ds.G, norm)
		dect := dectWork(after, w.rules)
		incD := incWork(w.ds.G, w.rules, w.delta)
		pdect := par.PDect(after, w.rules, oracle(par.Hybrid(8))).Metrics.Makespan
		hyb := par.PIncDect(w.ds.G, w.rules, w.delta, oracle(par.Hybrid(8))).Metrics.Makespan
		fmt.Printf("%-8d %s %s %s %s %s\n", d, ku(dect), ku(incD), ku(pdect), ku(hyb), ku(sharedWork(after, w.rules)))
	}
}

// ---- Exp-4: vary p (4i–4l), C (4m), intvl (4n) ----

func varyP(p gen.Profile) {
	w := makeWorkload(p, *nEntities, *nRules, 5, 0.15, *seed)
	fmt.Printf("# fig4(i-l) %s: vary p at ΔG=15%%, ‖Σ‖=%d; makespan kilounits\n", p.Name, *nRules)
	fmt.Printf("%-6s %10s %10s %12s %12s %12s\n", "p", "PDect", "PIncDect", "PIncDect_ns", "PIncDect_nb", "PIncDect_NO")
	norm := w.delta.Normalize(w.ds.G)
	after := graph.NewOverlay(w.ds.G, norm)
	for _, pp := range []int{4, 8, 12, 16, 20} {
		pdect := par.PDect(after, w.rules, oracle(par.Hybrid(pp))).Metrics.Makespan
		hyb := par.PIncDect(w.ds.G, w.rules, w.delta, oracle(par.Hybrid(pp))).Metrics.Makespan
		ns := par.PIncDect(w.ds.G, w.rules, w.delta, oracle(par.VariantNS(pp))).Metrics.Makespan
		nb := par.PIncDect(w.ds.G, w.rules, w.delta, oracle(par.VariantNB(pp))).Metrics.Makespan
		no := par.PIncDect(w.ds.G, w.rules, w.delta, oracle(par.VariantNO(pp))).Metrics.Makespan
		fmt.Printf("%-6d %s %s   %s   %s   %s\n", pp, ku(pdect), ku(hyb), ku(ns), ku(nb), ku(no))
	}
}

func varyC() {
	w := makeWorkload(gen.Pokec, *nEntities, *nRules, 5, 0.15, *seed)
	fmt.Printf("# fig4m pokec: vary latency parameter C at p=8 (true latency 60); makespan kilounits\n")
	fmt.Printf("%-6s %10s %12s\n", "C", "PIncDect", "PIncDect_nb")
	for _, c := range []int{20, 40, 60, 80, 100} {
		hy := oracle(par.Hybrid(8))
		hy.C = c
		nb := oracle(par.VariantNB(8))
		nb.C = c
		h := par.PIncDect(w.ds.G, w.rules, w.delta, hy).Metrics.Makespan
		n := par.PIncDect(w.ds.G, w.rules, w.delta, nb).Metrics.Makespan
		fmt.Printf("%-6d %s   %s\n", c, ku(h), ku(n))
	}
}

func varyIntvl() {
	w := makeWorkload(gen.YAGO2, *nEntities, *nRules, 5, 0.15, *seed)
	fmt.Printf("# fig4n yago2: vary balancing interval at p=8 (≈45 units per paper-second); makespan kilounits\n")
	fmt.Printf("%-10s %10s %12s\n", "intvl", "PIncDect", "PIncDect_ns")
	for _, iv := range []float64{700, 1400, 2100, 2800, 3500} {
		hy := oracle(par.Hybrid(8))
		hy.Intvl = iv
		ns := oracle(par.VariantNS(8))
		ns.Intvl = iv
		h := par.PIncDect(w.ds.G, w.rules, w.delta, hy).Metrics.Makespan
		n := par.PIncDect(w.ds.G, w.rules, w.delta, ns).Metrics.Makespan
		fmt.Printf("%-10.0f %s   %s\n", iv, ku(h), ku(n))
	}
}

// ---- shards: wall-clock scaling of the goroutine shard runtime ----

// shardsExp measures real elapsed time of PDect and PIncDect executing on
// a persistent shard pool at p = 1, 2, 4, 8 — the wall-clock counterpart
// of the simulated fig4(i–l) curves — and writes the series as
// machine-readable JSON (-shards-out, default BENCH_shards.json). Unlike
// every other ngdbench number these are milliseconds on *this* host:
// host_cores and gomaxprocs are recorded so a single-core container's flat
// curve is not mistaken for a scaling regression. Each cell is the best of
// three runs after a warm-up pass.
func shardsExp() {
	w := makeWorkload(gen.Pokec, *nEntities, *nRules, 5, 0.15, *seed)
	norm := w.delta.Normalize(w.ds.G)
	after := graph.NewOverlay(w.ds.G, norm)
	st := w.ds.G.ComputeStats()

	type point struct {
		P               int     `json:"p"`
		PDectMS         float64 `json:"pdect_ms"`
		PIncDectMS      float64 `json:"pincdect_ms"`
		PDectSpeedup    float64 `json:"pdect_speedup"`
		PIncDectSpeedup float64 `json:"pincdect_speedup"`
	}
	report := struct {
		Experiment  string  `json:"experiment"`
		HostCores   int     `json:"host_cores"`
		Gomaxprocs  int     `json:"gomaxprocs"`
		Profile     string  `json:"profile"`
		Entities    int     `json:"entities"`
		Rules       int     `json:"rules"`
		DeltaFrac   float64 `json:"delta_frac"`
		Series      []point `json:"series"`
		GeneratedBy string  `json:"generated_by"`
	}{
		Experiment: "shards", HostCores: runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0), Profile: gen.Pokec.Name,
		Entities: *nEntities, Rules: *nRules, DeltaFrac: 0.15,
		GeneratedBy: "ngdbench shards",
	}

	fmt.Printf("# shards %s: wall-clock scaling of the goroutine shard runtime on %d core(s)\n",
		gen.Pokec.Name, runtime.NumCPU())
	fmt.Printf("# |V|=%d |E|=%d, ‖Σ‖=%d, ΔG=15%%; best of 3 after warm-up\n",
		st.Nodes, st.Edges, *nRules)
	fmt.Printf("%-6s %12s %12s %10s %10s\n", "p", "PDect ms", "PIncDect ms", "PD spd", "PI spd")

	timeIt := func(f func()) float64 {
		f() // warm-up: pool goroutines parked, caches hot
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			f()
			if ms := float64(time.Since(t0).Microseconds()) / 1000; rep == 0 || ms < best {
				best = ms
			}
		}
		return best
	}

	for _, p := range []int{1, 2, 4, 8} {
		pool := par.NewPool(p)
		opts := par.Hybrid(p)
		opts.Pool = pool
		opts.Part = partition.Greedy(w.ds.G, p)
		opts.AssumeNormalized = true

		pd := timeIt(func() { par.PDect(after, w.rules, opts) })
		pi := timeIt(func() { par.PIncDect(w.ds.G, w.rules, norm, opts) })
		pool.Close()

		pp := point{P: p, PDectMS: pd, PIncDectMS: pi, PDectSpeedup: 1, PIncDectSpeedup: 1}
		if len(report.Series) > 0 {
			base := report.Series[0]
			pp.PDectSpeedup = base.PDectMS / pd
			pp.PIncDectSpeedup = base.PIncDectMS / pi
		}
		report.Series = append(report.Series, pp)
		fmt.Printf("%-6d %12.2f %12.2f %9.2fx %9.2fx\n",
			p, pd, pi, pp.PDectSpeedup, pp.PIncDectSpeedup)
	}

	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "shards: marshal: %v\n", err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(*shardsOut, raw, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "shards: write %s: %v\n", *shardsOut, err)
		os.Exit(1)
	}
	fmt.Printf("# wrote %s (host_cores=%d; wall-clock speedup needs real cores — CI runs this on multi-core runners)\n",
		*shardsOut, runtime.NumCPU())
}

// ---- alloc: allocation profile of the serving hot path ----

// measureAllocs runs f once on the calling goroutine and attributes the
// runtime's malloc counters to it, normalized per logical operation. A GC
// settles the heap first so leftover garbage from setup doesn't bill the
// scenario. Single-goroutine scenarios only: Mallocs is process-global.
func measureAllocs(ops int, f func()) (allocsPerOp, bytesPerOp float64) {
	runtime.GC()
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	f()
	runtime.ReadMemStats(&m2)
	n := float64(ops)
	return float64(m2.Mallocs-m1.Mallocs) / n, float64(m2.TotalAlloc-m1.TotalAlloc) / n
}

// allocExp measures allocs/op and bytes/op on the three serving-layer hot
// paths — batch Dect, steady-state session commits, and snapshot reads —
// and writes the result as schema-checked JSON (-alloc-out, default
// BENCH_alloc.json). These are the numbers the allocation-discipline work
// is pinned by: EXPERIMENTS.md records the before/after pairs, CI
// regenerates the file and validates its shape on every push. All three
// scenarios run sequentially (Parallel off) so the per-op attribution of
// the process-global malloc counters is exact.
func allocExp() {
	p := gen.YAGO2
	ds := gen.Generate(p, *nEntities, *seed)
	rules := gen.Rules(p, gen.RuleConfig{Count: *nRules, MaxDiameter: 5, Seed: *seed})
	st := ds.G.ComputeStats()

	type scenario struct {
		Name        string  `json:"name"`
		Ops         int     `json:"ops"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		BytesPerOp  float64 `json:"bytes_per_op"`
	}
	report := struct {
		Experiment  string     `json:"experiment"`
		HostCores   int        `json:"host_cores"`
		Gomaxprocs  int        `json:"gomaxprocs"`
		Profile     string     `json:"profile"`
		Entities    int        `json:"entities"`
		Rules       int        `json:"rules"`
		Scenarios   []scenario `json:"scenarios"`
		GeneratedBy string     `json:"generated_by"`
	}{
		Experiment: "alloc", HostCores: runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0), Profile: p.Name,
		Entities: *nEntities, Rules: *nRules,
		GeneratedBy: "ngdbench alloc",
	}
	add := func(name string, ops int, aop, bop float64) {
		report.Scenarios = append(report.Scenarios, scenario{name, ops, aop, bop})
		fmt.Printf("%-16s %10d %14.1f %14.1f\n", name, ops, aop, bop)
	}

	fmt.Printf("# alloc %s: |V|=%d |E|=%d, ‖Σ‖=%d; malloc counters, this host\n",
		p.Name, st.Nodes, st.Edges, *nRules)
	fmt.Printf("%-16s %10s %14s %14s\n", "scenario", "ops", "allocs/op", "bytes/op")

	// batch Dect against a warm shared Program: one op = one full detection
	// pass over the graph
	prog := plan.New(ds.G, rules, plan.Options{})
	detect.Dect(ds.G, rules, detect.Options{Program: prog}) // warm plans + indexes
	const dectOps = 5
	aop, bop := measureAllocs(dectOps, func() {
		for i := 0; i < dectOps; i++ {
			detect.Dect(ds.G, rules, detect.Options{Program: prog})
		}
	})
	add("dect_batch", dectOps, aop, bop)

	// steady-state session commits: serving-shaped point writes (16 ops per
	// batch). Deltas are pre-generated — update.Random mutates the dataset
	// (node arrivals), which must not be billed to Commit.
	const commitWarm, commitOps = 16, 64
	deltas := make([]*graph.Delta, commitWarm+commitOps)
	for b := range deltas {
		deltas[b] = update.Random(ds, update.Config{
			Size: 16, Gamma: 1, Seed: *seed*271 + int64(b),
		})
	}
	sess := session.New(ds.G, rules, session.Options{})
	for _, d := range deltas[:commitWarm] {
		sess.Commit(d)
	}
	aop, bop = measureAllocs(commitOps, func() {
		for _, d := range deltas[commitWarm:] {
			sess.Commit(d)
		}
	})
	add("session_commit", commitOps, aop, bop)

	// serve query: snapshot handle + violation listing + one point read off
	// the published epoch, the per-request core of GET /violations
	srv := serve.New(sess, serve.Options{})
	const queryOps = 20000
	srv.Snapshot().Violations() // warm
	aop, bop = measureAllocs(queryOps, func() {
		for i := 0; i < queryOps; i++ {
			sn := srv.Snapshot()
			vios := sn.Violations()
			if len(vios) > 0 {
				sn.Get(vios[i%len(vios)].Key())
			}
		}
	})
	add("serve_query", queryOps, aop, bop)
	srv.Close()

	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "alloc: marshal: %v\n", err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(*allocOut, raw, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "alloc: write %s: %v\n", *allocOut, err)
		os.Exit(1)
	}
	fmt.Printf("# wrote %s\n", *allocOut)
}

// ---- Exp-5: effectiveness ----

func exp5() {
	fmt.Printf("# exp5: errors caught by the full archetype rule set (ground truth = injected)\n")
	fmt.Printf("%-12s %9s %8s %10s %12s %12s\n", "graph", "injected", "caught", "violations", "NGD-only", "GFD-expressible")
	for _, p := range []gen.Profile{gen.DBpedia, gen.YAGO2, gen.Pokec} {
		ds := gen.Generate(p, *nEntities, *seed)
		rules := gen.EffectivenessRules(p)
		res := detect.Dect(ds.G, rules, detect.Options{})

		caught := map[graph.NodeID]bool{}
		ngdOnly, gfdExpr := 0, 0
		for _, v := range res.Violations {
			for i, pv := range v.Rule.Pattern.Nodes {
				if pv.Label != "integer" {
					caught[v.Match[i]] = true
				}
			}
			if isGFDExpressible(v.Rule) {
				gfdExpr++
			} else {
				ngdOnly++
			}
		}
		caughtInjected := 0
		for _, e := range ds.Errors {
			if caught[e.Entity] {
				caughtInjected++
			}
		}
		total := ngdOnly + gfdExpr
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(ngdOnly) / float64(total)
		}
		fmt.Printf("%-12s %9d %8d %10d %7d (%2.0f%%) %12d\n",
			p.Name, len(ds.Errors), caughtInjected, total, ngdOnly, pct, gfdExpr)
	}
	fmt.Println("# (paper: 415/212/568 errors in DBpedia/YAGO2/Pokec; 92% catchable only by NGDs)")
}

// isGFDExpressible: no arithmetic operators and only (in)equality with
// constants/terms — the GFD fragment of NGDs.
func isGFDExpressible(r *core.NGD) bool {
	bare := func(e *expr.Expr) bool {
		return e.Op == expr.OpConst || e.Op == expr.OpStr || e.Op == expr.OpVar
	}
	for _, l := range append(append([]core.Literal{}, r.X...), r.Y...) {
		if l.Op != expr.Eq && l.Op != expr.Ne {
			return false
		}
		if !bare(l.L) || !bare(l.R) {
			return false
		}
	}
	return true
}

// ---- stream: continuous detection sessions (beyond the paper) ----

// streamExp replays a seeded, burst-skewed update stream (the generator's
// Hotspot default: 55% of updates land in a 4% window of the entity space)
// through a detection session: each batch is coalesced, run through the
// incremental detector, committed in place, and reconciled into the live
// violation store. Columns are deterministic for fixed flags; the sustained
// updates/sec summary at the end is wall clock.
func streamExp() {
	p := gen.YAGO2
	ds := gen.Generate(p, *nEntities, *seed)
	rules := gen.Rules(p, gen.RuleConfig{Count: *nRules, MaxDiameter: 5, Seed: *seed})
	st := ds.G.ComputeStats()
	// keep the incremental and recompute columns in the same units: work
	// units (Dect) against IncDect, simulated makespan (PDect) against
	// PIncDect
	mode, scratchOf := "IncDect (cost units; scratch = Dect)", func() float64 {
		return dectWork(ds.G, rules)
	}
	if *streamPar {
		mode = "PIncDect p=8 (makespan units; scratch = PDect)"
		scratchOf = func() float64 {
			return par.PDect(ds.G, rules, oracle(par.Hybrid(8))).Metrics.Makespan
		}
	}
	fmt.Printf("# stream %s: |V|=%d |E|=%d, ‖Σ‖=%d, %d batches of %d%% |E|, hotspot 0.55, via %s\n",
		p.Name, st.Nodes, st.Edges, *nRules, *nBatches, *batchPct, mode)

	// the virtual oracle keeps the inc/scratch columns in deterministic
	// cost units; `ngdbench shards` is the wall-clock counterpart
	sess := session.New(ds.G, rules, session.Options{
		Parallel: *streamPar,
		Par:      oracle(par.Hybrid(8)),
	})
	fmt.Printf("# seeded store: %d violations\n", sess.Len())
	fmt.Printf("%-6s %7s %7s %6s %6s %7s %8s %10s %10s\n",
		"batch", "raw", "ops", "+vio", "-vio", "store", "pivots", "inc", "scratch")

	var totalOps int
	var incCost, scratchCost float64
	var commitWall time.Duration
	for b := 0; b < *nBatches; b++ {
		d := update.Random(ds, update.Config{
			Size:  update.SizeFor(ds.G, float64(*batchPct)/100),
			Gamma: 1,
			Seed:  *seed*97 + int64(b),
		})
		t0 := time.Now()
		bs := sess.Commit(d)
		commitWall += time.Since(t0)
		totalOps += bs.RawOps
		incCost += bs.Cost
		scratch := scratchOf()
		scratchCost += scratch
		fmt.Printf("%-6d %7d %7d %6d %6d %7d %8d %s %s\n",
			bs.Batch, bs.RawOps, bs.Ops, bs.Plus, bs.Minus, bs.StoreSize, bs.Pivots,
			ku(bs.Cost), ku(scratch))
	}
	speedup := 0.0
	if incCost > 0 {
		speedup = scratchCost / incCost
	}
	fmt.Printf("# totals: %d updates in %d batches; incremental %s ku vs scratch %s ku (%.1fx less)\n",
		totalOps, *nBatches, ku(incCost), ku(scratchCost), speedup)
	fmt.Printf("# sustained (wall clock, this host): %.0f updates/sec, %.2f ms/batch\n",
		float64(totalOps)/commitWall.Seconds(),
		float64(commitWall.Milliseconds())/float64(*nBatches))
}

// ---- serve: snapshot-isolated serving under concurrent load ----

// serveExp is the closed-loop load experiment for the serving layer
// (internal/serve): nReaders goroutines hammer snapshot reads while one
// writer streams update batches through the coalescing ingest queue. It
// reports read-latency percentiles measured *while commits stream* —
// demonstrating that readers are never blocked by a commit — and then a
// partition-maintenance table showing per-batch session cost staying flat
// as |V| grows for fixed |ΔG| (no full-graph partition rebuild per batch).
func serveExp() {
	p := gen.YAGO2
	ds := gen.Generate(p, *nEntities, *seed)
	rules := gen.Rules(p, gen.RuleConfig{Count: *nRules, MaxDiameter: 5, Seed: *seed})
	st := ds.G.ComputeStats()

	// pre-generate the stream: update.Random mutates the graph (node
	// arrivals), which must happen before the server's writer owns it
	deltas := make([]*graph.Delta, *nBatches)
	for b := range deltas {
		deltas[b] = update.Random(ds, update.Config{
			Size:  update.SizeFor(ds.G, float64(*batchPct)/100),
			Gamma: 1,
			Seed:  *seed*131 + int64(b),
		})
	}
	toOps := func(d *graph.Delta) []serve.UpdateOp {
		ops := make([]serve.UpdateOp, len(d.Ops))
		for i, op := range d.Ops {
			kind := "delete"
			if op.Insert {
				kind = "insert"
			}
			ops[i] = serve.UpdateOp{
				Op: kind, Src: fmt.Sprint(int(op.Src)), Dst: fmt.Sprint(int(op.Dst)),
				Label: ds.G.Symbols().LabelName(op.Label),
			}
		}
		return ops
	}

	fmt.Printf("# serve %s: |V|=%d |E|=%d, ‖Σ‖=%d, %d readers × 1 writer, %d batches of %d%% |E|\n",
		p.Name, st.Nodes, st.Edges, *nRules, *nReaders, *nBatches, *batchPct)

	sess := session.New(ds.G, rules, session.Options{Parallel: *streamPar, Par: par.Hybrid(8)})
	srv := serve.New(sess, serve.Options{})
	fmt.Printf("# seeded store: %d violations at epoch 0\n", srv.Snapshot().Len())

	// each reader records (start, duration, epoch) per read; commit windows
	// are timestamped by the writer, and overlap is computed post-hoc — a
	// live "is a commit running" flag would undercount whenever the
	// scheduler doesn't interleave (e.g. on a single-core host)
	type readSample struct {
		start time.Time
		dur   time.Duration
		epoch int
	}
	var stop atomic.Bool
	var warmed atomic.Int64
	samples := make([][]readSample, *nReaders)
	var wg sync.WaitGroup
	for r := 0; r < *nReaders; r++ {
		samples[r] = make([]readSample, 0, 1<<17)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				t0 := time.Now()
				sn := srv.Snapshot()
				vios := sn.Violations()
				if len(vios) > 0 {
					// a point read off the same consistent epoch
					if _, ok := sn.Get(vios[0].Key()); !ok {
						panic("snapshot index diverged from its violation slice")
					}
				}
				lat := time.Since(t0)
				if len(samples[r]) == 0 {
					warmed.Add(1)
				}
				if len(samples[r]) < cap(samples[r]) {
					samples[r] = append(samples[r], readSample{t0, lat, sn.Epoch})
				}
			}
		}(r)
	}

	// let every reader complete a warm read before the stream starts, then
	// pace batches a little apart so reads genuinely interleave with
	// commits (a closed loop, not a writer sprint)
	for warmed.Load() < int64(*nReaders) {
		time.Sleep(time.Millisecond)
	}
	type window struct{ start, end time.Time }
	windows := make([]window, 0, len(deltas))
	writerWall := time.Duration(0)
	for _, d := range deltas {
		t0 := time.Now()
		done, err := srv.Enqueue(toOps(d))
		if err != nil {
			panic(err)
		}
		<-done.Done()
		t1 := time.Now()
		windows = append(windows, window{t0, t1})
		writerWall += t1.Sub(t0)
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	srv.Close()

	var all []time.Duration
	epochs := map[int]bool{}
	midCommit := 0
	for r := range samples {
		for _, s := range samples[r] {
			all = append(all, s.dur)
			epochs[s.epoch] = true
			end := s.start.Add(s.dur)
			for _, w := range windows {
				if s.start.Before(w.end) && end.After(w.start) {
					midCommit++ // the read overlapped an in-flight commit
					break
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(q float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(q * float64(len(all)-1))
		return all[i]
	}
	sst := srv.Stats()
	fmt.Printf("# committed %d batches in %v (%.1f ms/batch), final store %d at epoch %d\n",
		sst.Commits, writerWall.Round(time.Millisecond),
		float64(writerWall.Microseconds())/1000/float64(max(1, int(sst.Commits))), sst.StoreSize, sst.Epoch)
	fmt.Printf("%-24s %12s %12s %12s %12s\n", "reads (snapshot+point)", "p50", "p99", "p99.9", "mid-commit")
	fmt.Printf("%-24d %12v %12v %12v %12d\n", len(all), pct(0.50), pct(0.99), pct(0.999), midCommit)
	fmt.Printf("# epochs observed by readers: %d of %d; every read returned a consistent\n", len(epochs), int(sst.Commits)+1)
	fmt.Printf("# snapshot — mid-commit reads serve the previous epoch, never wait\n")
	if err := sess.Recheck(); err != nil {
		fmt.Printf("# STORE INVARIANT VIOLATED: %v\n", err)
	} else {
		fmt.Printf("# store invariant after serving: store ≡ Dect(Σ, G) ✓\n")
	}

	// partition maintenance: per-batch cost vs |V| at fixed |ΔG|. The
	// maintained column is the session's actual per-commit partition work
	// (Extend + Refine); the rebuild column is what PIncDect used to pay —
	// a full partition.Greedy over the graph — every batch.
	fmt.Printf("#\n# incremental partition maintenance: fixed |ΔG|=%d ops, growing |V| (p=8)\n",
		update.SizeFor(ds.G, 0.02))
	fmt.Printf("%-16s %10s %14s %14s %10s\n", "|V|/|E|", "batch ms", "maintain ms", "rebuild ms", "ratio")
	fixedOps := update.SizeFor(ds.G, 0.02)
	for _, scale := range []int{1, 2, 4} {
		ds2 := gen.Generate(p, *nEntities*scale, *seed)
		rules2 := gen.Rules(p, gen.RuleConfig{Count: *nRules, MaxDiameter: 5, Seed: *seed})
		d := update.Random(ds2, update.Config{Size: fixedOps, Gamma: 1, Seed: *seed * 17})
		st2 := ds2.G.ComputeStats()

		sess2 := session.New(ds2.G, rules2, session.Options{Parallel: true, Par: par.Hybrid(8)})
		t0 := time.Now()
		sess2.Commit(d)
		batchWall := time.Since(t0)

		// maintenance cost of the *next* batch (partition already built)
		d2 := update.Random(ds2, update.Config{Size: fixedOps, Gamma: 1, Seed: *seed * 19})
		t0 = time.Now()
		sess2.Partition().Extend(ds2.G)
		sess2.Partition().Refine(ds2.G, d2.TouchedNodes())
		maintainWall := time.Since(t0)

		t0 = time.Now()
		partition.Greedy(ds2.G, 8)
		rebuildWall := time.Since(t0)
		sess2.Close()

		ratio := float64(rebuildWall) / float64(max(1, int(maintainWall)))
		fmt.Printf("%-16s %10.2f %14.3f %14.3f %9.0fx\n",
			fmt.Sprintf("%d/%d", st2.Nodes, st2.Edges),
			float64(batchWall.Microseconds())/1000,
			float64(maintainWall.Microseconds())/1000,
			float64(rebuildWall.Microseconds())/1000, ratio)
	}
	fmt.Printf("# maintain stays O(|ΔG|) while rebuild grows with |V|: the per-batch\n")
	fmt.Printf("# session cost no longer contains a full-graph partition pass\n")
}

// ---- recover: durable-store crash recovery (beyond the paper) ----

// recoverExp measures what a restart costs with the durable store
// (internal/store) as the un-checkpointed WAL suffix grows: open a store,
// stream L batches into it, "crash" (close without a final checkpoint),
// and time recovery — snapshot decode + WAL replay through the session —
// against the cold-boot baseline the daemon used to pay, a full seeding
// detection run (session.New ≙ Dect) over the final graph. A last trial
// checkpoints before the crash, showing recovery collapse to a snapshot
// load regardless of how many batches were streamed.
func recoverExp() {
	p := gen.YAGO2
	ds0 := gen.Generate(p, *nEntities, *seed)
	st0 := ds0.G.ComputeStats()
	fmt.Printf("# recover %s: |V|=%d |E|=%d, ‖Σ‖=%d, batches of %d%% |E|; wall clock, this host\n",
		p.Name, st0.Nodes, st0.Edges, *nRules, *batchPct)
	fmt.Printf("%-22s %9s %9s %9s %9s %9s %9s %7s\n",
		"replayed", "snap KB", "wal KB", "load ms", "replay ms", "recover", "cold ms", "ratio")

	trial := func(label string, L int, checkpoint bool) {
		dir, err := os.MkdirTemp("", "ngdbench-recover-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)

		mkBatch := func(ds *gen.Dataset, b int) *graph.Delta {
			return update.Random(ds, update.Config{
				Size:  update.SizeFor(ds.G, float64(*batchPct)/100),
				Gamma: 1,
				Seed:  *seed*211 + int64(b),
			})
		}

		// live run: bootstrap, stream L batches, crash (or checkpoint first)
		ds := gen.Generate(p, *nEntities, *seed)
		rules := gen.Rules(p, gen.RuleConfig{Count: *nRules, MaxDiameter: 5, Seed: *seed})
		sess := session.New(ds.G, rules, session.Options{})
		st, _, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			panic(err)
		}
		if err := st.Bootstrap(sess, rules, nil); err != nil {
			panic(err)
		}
		for b := 0; b < L; b++ {
			if bs := sess.Commit(mkBatch(ds, b)); bs.LogErr != nil {
				panic(bs.LogErr)
			}
		}
		if checkpoint {
			if err := st.Checkpoint(); err != nil {
				panic(err)
			}
		}
		if err := st.Close(); err != nil {
			panic(err)
		}
		liveVios := sess.Len()

		// recovery: snapshot decode + WAL replay through a restored session
		t0 := time.Now()
		_, rec, err := store.Open(dir, store.Options{NoSync: true})
		recoverWall := time.Since(t0)
		if err != nil {
			panic(err)
		}
		if rec == nil || rec.Session.Len() != liveVios {
			panic(fmt.Sprintf("recovery diverged: %v", rec))
		}

		// cold baseline: rebuild the final graph and pay the seeding Dect,
		// exactly what a boot without -data does (text parse excluded)
		dsC := gen.Generate(p, *nEntities, *seed)
		rulesC := gen.Rules(p, gen.RuleConfig{Count: *nRules, MaxDiameter: 5, Seed: *seed})
		for b := 0; b < L; b++ {
			mkBatch(dsC, b).Apply(dsC.G)
		}
		t0 = time.Now()
		cold := session.New(dsC.G, rulesC, session.Options{})
		coldWall := time.Since(t0)
		if cold.Len() != liveVios {
			panic("cold baseline diverged from the live session")
		}

		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
		fmt.Printf("%-22s %9.1f %9.1f %9.2f %9.2f %9.2f %9.2f %6.1fx\n",
			label, float64(rec.SnapshotBytes)/1024, float64(rec.WALBytes)/1024,
			ms(rec.SnapshotLoad), ms(rec.WALReplay), ms(recoverWall), ms(coldWall),
			float64(coldWall)/float64(max(1, int(recoverWall))))
	}

	for _, L := range []int{0, *nBatches / 4, *nBatches / 2, *nBatches} {
		trial(fmt.Sprintf("%d batches", L), L, false)
	}
	trial(fmt.Sprintf("%d + checkpoint", *nBatches), *nBatches, true)
	fmt.Printf("# recovery pays snapshot decode + replay of the un-checkpointed suffix;\n")
	fmt.Printf("# a checkpoint collapses it to the decode, while cold boot always pays Dect\n")
}

// ---- plan: the shared rule-program layer (beyond the paper) ----

// planExp measures what internal/plan buys the serving hot path. Part one
// replays a stream of small update batches through IncDect twice: once with
// cold per-batch planning (every batch compiles Σ and builds its pivot
// plans from scratch — the pre-Program behaviour) and once against a shared
// cached Program, reporting wall-clock per batch. Part two reports what
// cross-rule prefix sharing saves batch detection on the skewed generator
// workloads, in deterministic work units: the per-rule sum against the
// shared-prefix walk. (The planner's anchor choice is pinned by the hub-trap
// test in internal/plan.)
func planExp() {
	p := gen.YAGO2
	ds := gen.Generate(p, *nEntities, *seed)
	rules := gen.Rules(p, gen.RuleConfig{Count: *nRules, MaxDiameter: 5, Seed: *seed})
	st := ds.G.ComputeStats()

	// pre-generate 128 point-write batches (4 ops each, independent of the
	// -batches flag, which sizes the bulk stream/serve replays): the planning preamble
	// dominates exactly when batches are small, which is the serving shape
	// the Program exists for
	batches := make([]*graph.Delta, 128)
	for b := range batches {
		batches[b] = update.Random(ds, update.Config{
			Size:  4,
			Gamma: 1,
			Seed:  *seed*61 + int64(b),
		})
	}

	fmt.Printf("# plan %s: |V|=%d |E|=%d, ‖Σ‖=%d, %d batches of 4 ops; wall clock, this host\n",
		p.Name, st.Nodes, st.Edges, *nRules, len(batches))

	run := func(prog *plan.Program) time.Duration {
		var wall time.Duration
		for _, d := range batches {
			t0 := time.Now()
			inc.IncDect(ds.G, rules, d, inc.Options{Program: prog})
			wall += time.Since(t0)
		}
		return wall
	}
	cold := run(nil) // nil Program: every batch compiles and plans from scratch
	prog := plan.New(ds.G, rules, plan.Options{})
	run(prog) // warm the cache once
	warm := run(prog)
	c := prog.Counters()
	perBatch := func(d time.Duration) float64 {
		return float64(d.Microseconds()) / 1000 / float64(len(batches))
	}
	fmt.Printf("%-28s %12s %12s %9s\n", "small-batch IncDect", "ms/batch", "total ms", "speedup")
	fmt.Printf("%-28s %12.3f %12.2f\n", "cold per-batch planning", perBatch(cold), float64(cold.Microseconds())/1000)
	fmt.Printf("%-28s %12.3f %12.2f %8.1fx\n", "cached shared Program", perBatch(warm),
		float64(warm.Microseconds())/1000, float64(cold)/float64(max(1, int(warm))))
	fmt.Printf("# plan cache after replay: %d hits, %d misses, %d invalidations (%d rules in %d groups)\n",
		c.Hits, c.Misses, c.Invalidations, c.Rules, c.Groups)

	// sharing: deterministic work units on batch detection
	fmt.Printf("#\n# cross-rule sharing (Dect work, kilounits)\n")
	fmt.Printf("%-12s %12s %14s %8s\n", "graph", "cost-based", "cost+sharing", "shared")
	for _, prof := range []gen.Profile{gen.DBpedia, gen.YAGO2, gen.Pokec, gen.Synthetic} {
		ds2 := gen.Generate(prof, *nEntities, *seed)
		rules2 := gen.Rules(prof, gen.RuleConfig{Count: *nRules, MaxDiameter: 5, Seed: *seed})
		pr := plan.New(ds2.G, rules2, plan.Options{})
		r := detect.Dect(ds2.G, rules2, detect.Options{Program: pr})
		fmt.Printf("%-12s %s %s %8d\n", prof.Name, ku(dectWork(ds2.G, rules2)),
			ku(float64(r.Counters.Candidates+r.Counters.Checks)), pr.Counters().SharedRules)
	}
}

// ---- repair: fix-enumeration cost vs |Vio| (beyond the paper) ----

// repairExp measures the repair engine (internal/repair) as the violation
// store grows. For every stored violation it previews the ranked fixes
// (solver-backed attribute reassignment + edge deletion, each cleared
// against the whole store on an overlay) and reports the deterministic
// enumeration counters — candidates and exact-solver calls — next to the
// wall-clock preview cost on this host. The apply loop then drains the
// store through the serving layer, always committing the top-ranked fix,
// showing cross-violation clearance amortize repairs: applies ≤ |Vio|.
func repairExp() {
	p := gen.YAGO2
	fmt.Printf("# repair %s: preview + drain cost vs |Vio|, ‖Σ‖=%d; counters deterministic, ms wall clock\n",
		p.Name, *nRules)
	fmt.Printf("%-8s %15s %7s %7s %7s %7s %8s %11s %9s %8s %9s\n",
		"n", "|V|/|E|", "|Vio|", "fixable", "attr", "edge", "solver", "preview ms", "ms/vio", "applies", "drain ms")
	for _, n := range []int{*nEntities / 2, *nEntities, *nEntities * 2} {
		ds := gen.Generate(p, n, *seed)
		rules := gen.Rules(p, gen.RuleConfig{Count: *nRules, MaxDiameter: 4, Seed: *seed})
		st := ds.G.ComputeStats()
		sess := session.New(ds.G, rules, session.Options{})
		vios := sess.Violations()

		var fixable, attrC, edgeC, solverCalls int
		t0 := time.Now()
		for _, v := range vios {
			res, err := sess.PreviewRepair(v.Key(), repair.Options{})
			if err != nil {
				panic(err)
			}
			if !res.Unrepairable {
				fixable++
			}
			attrC += res.Stats.AttrCands
			edgeC += res.Stats.EdgeCands
			solverCalls += res.Stats.SolverCalls
		}
		previewWall := time.Since(t0)

		// drain: commit the top-ranked fix for the first repairable key until
		// the store is empty (bounded: a fix may introduce fresh violations)
		srv := serve.New(sess, serve.Options{})
		skip := map[string]bool{}
		applies := 0
		t0 = time.Now()
		for applies < 4*len(vios)+4 {
			key := ""
			for _, v := range srv.Snapshot().Violations() {
				if !skip[v.Key()] {
					key = v.Key()
					break
				}
			}
			if key == "" {
				break
			}
			if _, err := srv.ApplyRepair(key, "", repair.Options{}); err != nil {
				skip[key] = true // unrepairable: leave it and move on
				continue
			}
			applies++
		}
		drainWall := time.Since(t0)
		left := srv.Snapshot().Len()
		srv.Close()

		perVio := 0.0
		if len(vios) > 0 {
			perVio = float64(previewWall.Microseconds()) / 1000 / float64(len(vios))
		}
		appliesStr := fmt.Sprint(applies)
		if left > 0 {
			appliesStr += fmt.Sprintf("(+%d)", left) // unrepairable residue
		}
		fmt.Printf("%-8d %15s %7d %7d %7d %7d %8d %11.1f %9.2f %8s %9.1f\n",
			n, fmt.Sprintf("%d/%d", st.Nodes, st.Edges), len(vios), fixable,
			attrC, edgeC, solverCalls,
			float64(previewWall.Microseconds())/1000, perVio, appliesStr,
			float64(drainWall.Microseconds())/1000)
	}
	fmt.Printf("# preview cost is dominated by per-candidate clearance (O(|Vio|) overlay\n")
	fmt.Printf("# re-checks), so ms/vio grows with the store; applies < |Vio| whenever one\n")
	fmt.Printf("# fix clears several violations at once (shared node, shared edge)\n")
}

// ---- reasoning demo (§4 worked examples) ----

func reasonDemo() {
	fmt.Printf("# reason: §4 worked examples (Example 5)\n")
	mk := func(name string, when, then []string) *core.NGD {
		q := corePattern1()
		var w, t []core.Literal
		for _, s := range when {
			w = append(w, core.MustLiteral(s))
		}
		for _, s := range then {
			t = append(t, core.MustLiteral(s))
		}
		return core.MustNew(name, q, w, t)
	}
	phi5 := mk("phi5", nil, []string{"x.A = 7", "x.B = 7"})
	phi6 := mk("phi6", nil, []string{"x.A + x.B = 11"})
	phi7 := mk("phi7", []string{"x.A <= 3"}, []string{"x.B > 6"})
	phi8 := mk("phi8", []string{"x.A > 3"}, []string{"x.B > 6"})
	phi9 := mk("phi9", nil, []string{"x.B < 6", "x.A != 0"})

	report := func(label string, set *core.Set) {
		start := time.Now()
		v, err := reason.Satisfiable(set, reason.Options{})
		el := time.Since(start).Round(time.Microsecond)
		switch {
		case errors.Is(err, reason.ErrNonLinear):
			// Theorem 3: not a failure of the search, a hard undecidability
			// boundary — never conflate with "no"
			fmt.Printf("  %-18s non-linear Σ: analyses undecidable (Theorem 3) (%v)\n", label, el)
		case err != nil:
			fmt.Printf("  %-18s error: %v (%v)\n", label, err, el)
		case v == reason.Unknown:
			// budget exhaustion, not a verdict — never conflate with "no"
			fmt.Printf("  %-18s undecided: analysis budget exhausted (%v)\n", label, el)
		default:
			fmt.Printf("  %-18s satisfiable=%-7v (%v)\n", label, v, el)
		}
	}
	report("{phi5}", core.NewSet(phi5))
	report("{phi6}", core.NewSet(phi6))
	report("{phi5,phi6}", core.NewSet(phi5, phi6))
	report("{phi7,phi8,phi9}", core.NewSet(phi7, phi8, phi9))
	report("{phi7,phi8}", core.NewSet(phi7, phi8))
}

func corePattern1() *pattern.Pattern {
	q := pattern.New()
	q.AddNode("x", "_")
	return q
}

// ---- analyze: admission-gate cost vs ‖Σ‖ ----

// analyzeExp measures the Σ admission gate (internal/analyze) as the rule
// set grows: full-pass wall time on a satisfiable generated Σ (per-rule
// triage + strong satisfiability + implication probes, parallel), and the
// unsat-core extraction cost when a planted Example-5 conflict makes the
// same Σ unsatisfiable (deletion shrinking must discard every innocent
// rule). The EXPERIMENTS.md analysis-cost table is produced by this run.
func analyzeExp() {
	const gateBudget, conflictBudget = 5 * time.Second, 15 * time.Second
	fmt.Printf("# analyze: Σ admission gate cost vs ‖Σ‖ (dbpedia rules, diameter ≤4, seed %d)\n", *seed)
	fmt.Printf("# wall-clock budgets: gate %v, +conflict %v; exhaustion degrades to unknown, never a wrong verdict\n",
		gateBudget, conflictBudget)
	fmt.Printf("%6s %13s %8s %8s %8s %10s %12s %14s\n",
		"‖Σ‖", "satisfiable", "strong", "implied", "dropped", "gate", "+conflict", "core")
	for _, k := range []int{5, 10, 20, 50, 100} {
		rules := gen.Rules(gen.DBpedia, gen.RuleConfig{Count: k, MaxDiameter: 4, Seed: *seed})
		start := time.Now()
		rep := analyze.Analyze(rules, analyze.Options{Timeout: gateBudget})
		gate := time.Since(start)
		implied := 0
		for _, rr := range rep.Rules {
			if rr.Implied == reason.Yes {
				implied++
			}
		}

		// plant the §4 Example 5 conflict: the gate must now pay unsat-core
		// extraction, deletion-shrinking past the k innocent rules
		mk := func(name string, then ...string) *core.NGD {
			var lits []core.Literal
			for _, s := range then {
				lits = append(lits, core.MustLiteral(s))
			}
			return core.MustNew(name, corePattern1(), nil, lits)
		}
		poisoned := core.NewSet(append(append([]*core.NGD{}, rules.Rules...),
			mk("phi5", "x.A = 7", "x.B = 7"), mk("phi6", "x.A + x.B = 11"))...)
		start = time.Now()
		prep := analyze.Analyze(poisoned, analyze.Options{Timeout: conflictBudget})
		conflict := time.Since(start)
		coreStr := "-"
		if prep.Core != nil {
			coreStr = fmt.Sprintf("%d/%d", len(prep.Core.Rules), k+2)
			if !prep.Core.Minimal {
				coreStr += " (budget)"
			}
		}
		fmt.Printf("%6d %13v %8v %8d %8d %10v %12v %14s\n",
			k, rep.Satisfiable, rep.StronglySatisfiable, implied, len(rep.Dropped),
			gate.Round(time.Millisecond), conflict.Round(time.Millisecond), coreStr)
	}
}
