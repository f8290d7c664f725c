// Command ngdbench regenerates the evaluation of Fan et al. (SIGMOD 2018),
// Figures 4(a)–4(n) and the Exp-5 effectiveness study, at a configurable
// scale (see DESIGN.md for the scale mapping and EXPERIMENTS.md for
// paper-vs-measured results), plus the tables EXPERIMENTS.md prints beyond
// the paper.
//
// The paper's series are reported in deterministic cost units (1 unit = one
// adjacency entry scanned or one edge checked): sequential algorithms
// report their total work, parallel algorithms the simulated makespan of
// the virtual cluster driver, so every column is directly comparable and
// machine-independent. Wall-clock numbers of the serving, recovery and
// streaming paths belong to the repository benchmark (bench/), which
// drives the real binaries.
//
// Usage:
//
//	ngdbench [-n entities] [-seed s] [-rules k] <experiment>
//
// `ngdbench -h` lists the experiments from the registry below.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"ngd/internal/analyze"
	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/par"
	"ngd/internal/pattern"
	"ngd/internal/plan"
	"ngd/internal/reason"
	"ngd/internal/repair"
	"ngd/internal/serve"
	"ngd/internal/session"
)

// config is what an experiment may depend on besides its own constants.
type config struct {
	n, rules int   // entities per generated graph, rules in Σ
	seed     int64 // base RNG seed
	// analyze's two wall-clock budgets: no flag sets them, EXPERIMENTS.md's
	// table is read against main's values and only the test shrinks them
	gateBudget, conflictBudget time.Duration
}

// experiment is one table of EXPERIMENTS.md. run writes the table to the
// writer it is handed and reports failure as an error: only main exits.
type experiment struct {
	name, doc string
	run       func(io.Writer, config) error
}

// registry is every experiment, in the order `all` runs them.
var registry = []experiment{
	{"fig4a", "Exp-1: vary |ΔG| on dbpedia", varyDelta(gen.DBpedia, 5, 10, 15, 20, 25, 30, 35)},
	{"fig4b", "Exp-1: vary |ΔG| on yago2", varyDelta(gen.YAGO2, 5, 10, 15, 20, 25, 30, 35)},
	{"fig4c", "Exp-1: vary |ΔG| on pokec", varyDelta(gen.Pokec, 5, 10, 15, 20, 25, 30, 35, 40)},
	{"fig4d", "Exp-1: vary |ΔG| on synthetic", varyDelta(gen.Synthetic, 5, 10, 15, 20, 25, 30, 35)},
	{"fig4e", "Exp-2: vary |G| on synthetic", varyG},
	{"fig4f", "Exp-3: vary ‖Σ‖ on dbpedia", varySigma(gen.DBpedia)},
	{"fig4g", "Exp-3: vary ‖Σ‖ on yago2", varySigma(gen.YAGO2)},
	{"fig4h", "Exp-3: vary dΣ on dbpedia", varyDiameter},
	{"fig4i", "Exp-4: vary p on dbpedia", varyP(gen.DBpedia)},
	{"fig4j", "Exp-4: vary p on yago2", varyP(gen.YAGO2)},
	{"fig4k", "Exp-4: vary p on pokec", varyP(gen.Pokec)},
	{"fig4l", "Exp-4: vary p on synthetic", varyP(gen.Synthetic)},
	{"fig4m", "Exp-4: vary the latency parameter C on pokec", varyC},
	{"fig4n", "Exp-4: vary the balancing interval on yago2", varyIntvl},
	{"exp5", "Exp-5: injected errors caught, NGD-only vs GFD-expressible", exp5},
	{"reason", "§4 worked examples (Example 5 verdicts)", reasonDemo},
	{"analyze", "Σ admission-gate and unsat-core cost vs ‖Σ‖", analyzeExp},
	{"plan", "plan cache on small batches; cross-rule sharing in cost units", planExp},
	{"repair", "fix-enumeration counters and drain applies vs |Vio|", repairExp},
}

// runAll runs the registry in order.
func runAll(w io.Writer, c config) error {
	for _, e := range registry {
		if err := e.run(w, c); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func main() {
	c := config{gateBudget: 5 * time.Second, conflictBudget: 15 * time.Second}
	flag.IntVar(&c.n, "n", 1200, "entities per generated graph (scale knob)")
	flag.Int64Var(&c.seed, "seed", 1, "base RNG seed")
	flag.IntVar(&c.rules, "rules", 50, "rules in Σ (the paper's default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the experiment) to this file")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintln(out, "usage: ngdbench [flags] <experiment>")
		for _, e := range registry {
			fmt.Fprintf(out, "  %-10s %s\n", e.name, e.doc)
		}
		fmt.Fprintf(out, "  %-10s every experiment above, in that order\n", "all")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	run := runAll
	if name := flag.Arg(0); name != "all" {
		i := slices.IndexFunc(registry, func(e experiment) bool { return e.name == name })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "ngdbench: unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
		run = registry[i].run
	}
	if err := profiled(*cpuProfile, *memProfile, func() error { return run(os.Stdout, c) }); err != nil {
		fmt.Fprintf(os.Stderr, "ngdbench: %v\n", err)
		os.Exit(1)
	}
}

// profiled runs f under the optional CPU profile and writes the optional
// heap profile after it. Both files are flushed and closed when it returns,
// also when f fails, so the caller may exit.
func profiled(cpuPath, memPath string, f func() error) error {
	if cpuPath != "" {
		cf, err := os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer cf.Close()
		if err := pprof.StartCPUProfile(cf); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := f(); err != nil || memPath == "" {
		return err
	}
	mf, err := os.Create(memPath)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC() // settle live-heap accounting before the snapshot
	err = pprof.WriteHeapProfile(mf)
	if cerr := mf.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- measurement helpers ----

// ku formats cost units in thousands.
func ku(v float64) string { return fmt.Sprintf("%8.1f", v/1000) }

// ms formats a duration's milliseconds at microsecond resolution.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

type workload struct {
	ds    *gen.Dataset
	rules *core.Set
	delta *graph.Delta
}

func makeWorkload(p gen.Profile, entities, rules, maxDiam int, deltaFrac float64, s int64) workload {
	ds := gen.Generate(p, entities, s)
	rs := gen.Rules(p, gen.RuleConfig{Count: rules, MaxDiameter: maxDiam, Seed: s})
	d := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, deltaFrac), Gamma: 1, Seed: s * 31})
	return workload{ds: ds, rules: rs, delta: d}
}

// dectWork is the paper-faithful Dect yardstick: Σ_r Dect(G, {r}), one
// independent search per rule — a singleton set shares nothing by
// construction — which is the algorithm the paper's figures measure, so the
// reproduced fig4 curves keep the paper's shape. sharedWork is what
// production Dect pays for the same answer once overlapping rules ride
// shared prefixes.
func dectWork(v *graph.Graph, rules *core.Set) float64 {
	var w float64
	for _, r := range rules.Rules {
		w += sharedWork(v, core.NewSet(r))
	}
	return w
}

func sharedWork(v *graph.Graph, rules *core.Set) float64 {
	c := detect.Dect(v, rules, detect.Options{}).Counters
	return float64(c.Candidates + c.Checks)
}

// incWork is the IncDect yardstick on the same convention: Σ_r IncDect(G,
// {r}, ΔG), one independent search per rule, where production IncDect
// searches a clone class once.
func incWork(g *graph.Graph, rules *core.Set, d *graph.Delta) float64 {
	var w float64
	for _, r := range rules.Rules {
		c := inc.IncDect(g, core.NewSet(r), d, inc.Options{}).Counters
		w += float64(c.Candidates + c.Checks)
	}
	return w
}

// pinc is PIncDect's simulated makespan on w under one balancing variant.
func pinc(w workload, o par.Options) float64 {
	return par.PIncDect(w.ds.G, w.rules, w.delta, o).Metrics.Makespan
}

// applied returns G ⊕ ΔG of w: a fork of its graph with ΔG applied, for the
// caller to release.
func applied(w workload) *graph.Graph {
	after := w.ds.G.Clone()
	after.Apply(w.delta)
	return after
}

// fourWay measures the cells every fig4(a–h) row starts with and ends on:
// the per-rule Dect yardstick and PDect over G ⊕ ΔG, IncDect and hybrid
// PIncDect over (G, ΔG), both parallel ones at p=8 — and Dect_sh, the
// shared-prefix Dect over the same G ⊕ ΔG.
func fourWay(w workload) (cells, shared string) {
	after := applied(w)
	defer after.Release()
	dect := dectWork(after, w.rules)
	incD := incWork(w.ds.G, w.rules, w.delta)
	pdect := par.PDect(after, w.rules, par.Hybrid(8)).Metrics.Makespan
	hyb := pinc(w, par.Hybrid(8))
	return ku(dect) + " " + ku(incD) + " " + ku(pdect) + " " + ku(hyb), ku(sharedWork(after, w.rules))
}

// ---- Exp-1: vary |ΔG| (Figures 4a–4d) ----

func varyDelta(p gen.Profile, pcts ...int) func(io.Writer, config) error {
	return func(out io.Writer, c config) error {
		st := gen.Generate(p, c.n, c.seed).G.ComputeStats()
		fmt.Fprintf(out, "# fig4(a-d) %s: |V|=%d |E|=%d, ‖Σ‖=%d, dΣ=5, p=8; cost kilounits\n",
			p.Name, st.Nodes, st.Edges, c.rules)
		fmt.Fprintf(out, "%-8s %10s %10s %10s %10s %12s %12s %12s %10s\n",
			"ΔG%", "Dect", "IncDect", "PDect", "PIncDect", "PIncDect_ns", "PIncDect_nb", "PIncDect_NO", "Dect_sh")
		for _, pct := range pcts {
			w := makeWorkload(p, c.n, c.rules, 5, float64(pct)/100, c.seed)
			cells, shared := fourWay(w)
			fmt.Fprintf(out, "%-8d %s   %s   %s   %s %s\n", pct, cells,
				ku(pinc(w, par.VariantNS(8))), ku(pinc(w, par.VariantNB(8))), ku(pinc(w, par.VariantNO(8))), shared)
		}
		return nil
	}
}

// ---- Exp-2: vary |G| (Figure 4e) ----

func varyG(out io.Writer, c config) error {
	fmt.Fprintf(out, "# fig4e synthetic: vary |G| at ΔG=15%%, ‖Σ‖=%d, p=8; cost kilounits\n", c.rules)
	fmt.Fprintf(out, "%-16s %10s %10s %10s %10s %10s\n", "|V|/|E|", "Dect", "IncDect", "PDect", "PIncDect", "Dect_sh")
	for _, n := range []int{c.n / 2, c.n, c.n * 3 / 2, c.n * 2, c.n * 5 / 2} {
		w := makeWorkload(gen.Synthetic, n, c.rules, 5, 0.15, c.seed)
		st := w.ds.G.ComputeStats()
		cells, shared := fourWay(w)
		fmt.Fprintf(out, "%-16s %s %s\n", fmt.Sprintf("%d/%d", st.Nodes, st.Edges), cells, shared)
	}
	return nil
}

// ---- Exp-3: vary ‖Σ‖ (4f, 4g) and dΣ (4h) ----

func varySigma(p gen.Profile) func(io.Writer, config) error {
	return func(out io.Writer, c config) error {
		fmt.Fprintf(out, "# fig4(f,g) %s: vary ‖Σ‖ at ΔG=15%%, dΣ=5, p=8; cost kilounits\n", p.Name)
		fmt.Fprintf(out, "%-8s %10s %10s %10s %10s %10s\n", "‖Σ‖", "Dect", "IncDect", "PDect", "PIncDect", "Dect_sh")
		for _, k := range []int{50, 60, 70, 80, 90, 100} {
			cells, shared := fourWay(makeWorkload(p, c.n, k, 5, 0.15, c.seed))
			fmt.Fprintf(out, "%-8d %s %s\n", k, cells, shared)
		}
		return nil
	}
}

func varyDiameter(out io.Writer, c config) error {
	fmt.Fprintf(out, "# fig4h dbpedia: vary dΣ at ΔG=15%%, ‖Σ‖=%d, p=8; cost kilounits\n", c.rules)
	fmt.Fprintf(out, "%-8s %10s %10s %10s %10s %10s\n", "dΣ", "Dect", "IncDect", "PDect", "PIncDect", "Dect_sh")
	for _, d := range []int{2, 3, 4, 5, 6} {
		cells, shared := fourWay(makeWorkload(gen.DBpedia, c.n, c.rules, d, 0.15, c.seed))
		fmt.Fprintf(out, "%-8d %s %s\n", d, cells, shared)
	}
	return nil
}

// ---- Exp-4: vary p (4i–4l), C (4m), intvl (4n) ----

func varyP(p gen.Profile) func(io.Writer, config) error {
	return func(out io.Writer, c config) error {
		w := makeWorkload(p, c.n, c.rules, 5, 0.15, c.seed)
		fmt.Fprintf(out, "# fig4(i-l) %s: vary p at ΔG=15%%, ‖Σ‖=%d; makespan kilounits\n", p.Name, c.rules)
		fmt.Fprintf(out, "%-6s %10s %10s %12s %12s %12s\n", "p", "PDect", "PIncDect", "PIncDect_ns", "PIncDect_nb", "PIncDect_NO")
		after := applied(w)
		defer after.Release()
		for _, pp := range []int{4, 8, 12, 16, 20} {
			pdect := par.PDect(after, w.rules, par.Hybrid(pp)).Metrics.Makespan
			fmt.Fprintf(out, "%-6d %s %s   %s   %s   %s\n", pp, ku(pdect), ku(pinc(w, par.Hybrid(pp))),
				ku(pinc(w, par.VariantNS(pp))), ku(pinc(w, par.VariantNB(pp))), ku(pinc(w, par.VariantNO(pp))))
		}
		return nil
	}
}

func varyC(out io.Writer, c config) error {
	w := makeWorkload(gen.Pokec, c.n, c.rules, 5, 0.15, c.seed)
	fmt.Fprintf(out, "# fig4m pokec: vary latency parameter C at p=8 (true latency 60); makespan kilounits\n")
	fmt.Fprintf(out, "%-6s %10s %12s\n", "C", "PIncDect", "PIncDect_nb")
	for _, lat := range []int{20, 40, 60, 80, 100} {
		hy, nb := par.Hybrid(8), par.VariantNB(8)
		hy.C, nb.C = lat, lat
		fmt.Fprintf(out, "%-6d %s   %s\n", lat, ku(pinc(w, hy)), ku(pinc(w, nb)))
	}
	return nil
}

func varyIntvl(out io.Writer, c config) error {
	w := makeWorkload(gen.YAGO2, c.n, c.rules, 5, 0.15, c.seed)
	fmt.Fprintf(out, "# fig4n yago2: vary balancing interval at p=8 (≈45 units per paper-second); makespan kilounits\n")
	fmt.Fprintf(out, "%-10s %10s %12s\n", "intvl", "PIncDect", "PIncDect_ns")
	for _, iv := range []float64{700, 1400, 2100, 2800, 3500} {
		hy, ns := par.Hybrid(8), par.VariantNS(8)
		hy.Intvl, ns.Intvl = iv, iv
		fmt.Fprintf(out, "%-10.0f %s   %s\n", iv, ku(pinc(w, hy)), ku(pinc(w, ns)))
	}
	return nil
}

// ---- Exp-5: effectiveness ----

func exp5(out io.Writer, c config) error {
	fmt.Fprintf(out, "# exp5: errors caught by the full archetype rule set (ground truth = injected)\n")
	fmt.Fprintf(out, "%-12s %9s %8s %10s %12s %12s\n", "graph", "injected", "caught", "violations", "NGD-only", "GFD-expressible")
	for _, p := range []gen.Profile{gen.DBpedia, gen.YAGO2, gen.Pokec} {
		ds := gen.Generate(p, c.n, c.seed)
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
		fmt.Fprintf(out, "%-12s %9d %8d %10d %7d (%2.0f%%) %12d\n",
			p.Name, len(ds.Errors), caughtInjected, total, ngdOnly, pct, gfdExpr)
	}
	fmt.Fprintln(out, "# (paper: 415/212/568 errors in DBpedia/YAGO2/Pokec; 92% catchable only by NGDs)")
	return nil
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
func planExp(out io.Writer, c config) error {
	p := gen.YAGO2
	ds := gen.Generate(p, c.n, c.seed)
	rules := gen.Rules(p, gen.RuleConfig{Count: c.rules, MaxDiameter: 5, Seed: c.seed})
	st := ds.G.ComputeStats()

	// pre-generate 128 point-write batches (4 ops each): the planning
	// preamble dominates exactly when batches are small, which is the
	// serving shape the Program exists for
	batches := make([]*graph.Delta, 128)
	for b := range batches {
		batches[b] = gen.RandomDelta(ds, gen.DeltaConfig{Size: 4, Gamma: 1, Seed: c.seed*61 + int64(b)})
	}

	fmt.Fprintf(out, "# plan %s: |V|=%d |E|=%d, ‖Σ‖=%d, %d batches of 4 ops; wall clock, this host\n",
		p.Name, st.Nodes, st.Edges, c.rules, len(batches))

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
	pc := prog.Counters()
	perBatch := func(d time.Duration) float64 { return ms(d) / float64(len(batches)) }
	fmt.Fprintf(out, "%-28s %12s %12s %9s\n", "small-batch IncDect", "ms/batch", "total ms", "speedup")
	fmt.Fprintf(out, "%-28s %12.3f %12.2f\n", "cold per-batch planning", perBatch(cold), ms(cold))
	fmt.Fprintf(out, "%-28s %12.3f %12.2f %8.1fx\n", "cached shared Program", perBatch(warm),
		ms(warm), float64(cold)/float64(max(1, int(warm))))
	fmt.Fprintf(out, "# plan cache after replay: %d hits, %d misses, %d invalidations (%d rules in %d groups)\n",
		pc.Hits, pc.Misses, pc.Invalidations, pc.Rules, pc.Groups)

	// sharing: deterministic work units on batch detection
	fmt.Fprintf(out, "#\n# cross-rule sharing (Dect work, kilounits)\n")
	fmt.Fprintf(out, "%-12s %12s %14s %8s\n", "graph", "cost-based", "cost+sharing", "shared")
	for _, prof := range []gen.Profile{gen.DBpedia, gen.YAGO2, gen.Pokec, gen.Synthetic} {
		ds2 := gen.Generate(prof, c.n, c.seed)
		rules2 := gen.Rules(prof, gen.RuleConfig{Count: c.rules, MaxDiameter: 5, Seed: c.seed})
		pr := plan.New(ds2.G, rules2, plan.Options{})
		r := detect.Dect(ds2.G, rules2, detect.Options{Program: pr})
		fmt.Fprintf(out, "%-12s %s %s %8d\n", prof.Name, ku(dectWork(ds2.G, rules2)),
			ku(float64(r.Counters.Candidates+r.Counters.Checks)), pr.Counters().SharedRules)
	}
	return nil
}

// ---- repair: fix-enumeration cost vs |Vio| (beyond the paper) ----

// repairExp measures the repair engine (internal/repair) as the violation
// store grows. For every stored violation it previews the ranked fixes
// (solver-backed attribute reassignment + edge deletion, each cleared
// against the whole store on a fork) and reports the deterministic
// enumeration counters — candidates and exact-solver calls — next to the
// wall-clock preview cost on this host. The apply loop then drains the
// store through the serving layer, always committing the top-ranked fix,
// showing cross-violation clearance amortize repairs: applies ≤ |Vio|.
func repairExp(out io.Writer, c config) error {
	p := gen.YAGO2
	fmt.Fprintf(out, "# repair %s: preview + drain cost vs |Vio|, ‖Σ‖=%d; counters deterministic, ms wall clock\n",
		p.Name, c.rules)
	fmt.Fprintf(out, "%-8s %15s %7s %7s %7s %7s %8s %11s %9s %8s %9s\n",
		"n", "|V|/|E|", "|Vio|", "fixable", "attr", "edge", "solver", "preview ms", "ms/vio", "applies", "drain ms")
	for _, n := range []int{c.n / 2, c.n, c.n * 2} {
		ds := gen.Generate(p, n, c.seed)
		rules := gen.Rules(p, gen.RuleConfig{Count: c.rules, MaxDiameter: 4, Seed: c.seed})
		st := ds.G.ComputeStats()
		sess := session.New(ds.G, rules, session.Options{})
		vios := sess.Violations()

		var fixable, attrC, edgeC, solverCalls int
		t0 := time.Now()
		for _, v := range vios {
			res, err := sess.PreviewRepair(v.Key(), repair.Options{})
			if err != nil {
				return fmt.Errorf("repair: preview %s: %w", v.Key(), err)
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
			perVio = ms(previewWall) / float64(len(vios))
		}
		appliesStr := fmt.Sprint(applies)
		if left > 0 {
			appliesStr += fmt.Sprintf("(+%d)", left) // unrepairable residue
		}
		fmt.Fprintf(out, "%-8d %15s %7d %7d %7d %7d %8d %11.1f %9.2f %8s %9.1f\n",
			n, fmt.Sprintf("%d/%d", st.Nodes, st.Edges), len(vios), fixable,
			attrC, edgeC, solverCalls, ms(previewWall), perVio, appliesStr, ms(drainWall))
	}
	fmt.Fprintf(out, "# preview cost is dominated by per-candidate clearance (O(|Vio|) fork\n")
	fmt.Fprintf(out, "# re-checks), so ms/vio grows with the store; applies < |Vio| whenever one\n")
	fmt.Fprintf(out, "# fix clears several violations at once (shared node, shared edge)\n")
	return nil
}

// ---- reasoning demo (§4 worked examples) ----

func reasonDemo(out io.Writer, _ config) error {
	fmt.Fprintf(out, "# reason: §4 worked examples (Example 5)\n")
	phi5 := example5("phi5", nil, []string{"x.A = 7", "x.B = 7"})
	phi6 := example5("phi6", nil, []string{"x.A + x.B = 11"})
	phi7 := example5("phi7", []string{"x.A <= 3"}, []string{"x.B > 6"})
	phi8 := example5("phi8", []string{"x.A > 3"}, []string{"x.B > 6"})
	phi9 := example5("phi9", nil, []string{"x.B < 6", "x.A != 0"})

	report := func(label string, set *core.Set) {
		start := time.Now()
		v, err := reason.Satisfiable(set, reason.Options{})
		el := time.Since(start).Round(time.Microsecond)
		switch {
		case errors.Is(err, reason.ErrNonLinear):
			// Theorem 3: not a failure of the search, a hard undecidability
			// boundary — never conflate with "no"
			fmt.Fprintf(out, "  %-18s non-linear Σ: analyses undecidable (Theorem 3) (%v)\n", label, el)
		case err != nil:
			fmt.Fprintf(out, "  %-18s error: %v (%v)\n", label, err, el)
		case v == reason.Unknown:
			// budget exhaustion, not a verdict — never conflate with "no"
			fmt.Fprintf(out, "  %-18s undecided: analysis budget exhausted (%v)\n", label, el)
		default:
			fmt.Fprintf(out, "  %-18s satisfiable=%-7v (%v)\n", label, v, el)
		}
	}
	report("{phi5}", core.NewSet(phi5))
	report("{phi6}", core.NewSet(phi6))
	report("{phi5,phi6}", core.NewSet(phi5, phi6))
	report("{phi7,phi8,phi9}", core.NewSet(phi7, phi8, phi9))
	report("{phi7,phi8}", core.NewSet(phi7, phi8))
	return nil
}

// example5 builds one rule of the paper's Example 5: literals over the
// attributes of a single wildcard node x.
func example5(name string, when, then []string) *core.NGD {
	q := pattern.New()
	q.AddNode("x", "_")
	var w, t []core.Literal
	for _, s := range when {
		w = append(w, core.MustLiteral(s))
	}
	for _, s := range then {
		t = append(t, core.MustLiteral(s))
	}
	return core.MustNew(name, q, w, t)
}

// ---- analyze: admission-gate cost vs ‖Σ‖ ----

// analyzeExp measures the Σ admission gate (internal/analyze) as the rule
// set grows: full-pass wall time on a satisfiable generated Σ (per-rule
// triage + strong satisfiability + implication probes, parallel), and the
// unsat-core extraction cost when a planted Example-5 conflict makes the
// same Σ unsatisfiable (deletion shrinking must discard every innocent
// rule). The EXPERIMENTS.md analysis-cost table is produced by this run.
func analyzeExp(out io.Writer, c config) error {
	fmt.Fprintf(out, "# analyze: Σ admission gate cost vs ‖Σ‖ (dbpedia rules, diameter ≤4, seed %d)\n", c.seed)
	fmt.Fprintf(out, "# wall-clock budgets: gate %v, +conflict %v; exhaustion degrades to unknown, never a wrong verdict\n",
		c.gateBudget, c.conflictBudget)
	fmt.Fprintf(out, "%6s %13s %8s %8s %8s %10s %12s %14s\n",
		"‖Σ‖", "satisfiable", "strong", "implied", "dropped", "gate", "+conflict", "core")
	for _, k := range []int{5, 10, 20, 50, 100} {
		rules := gen.Rules(gen.DBpedia, gen.RuleConfig{Count: k, MaxDiameter: 4, Seed: c.seed})
		start := time.Now()
		rep := analyze.Analyze(rules, analyze.Options{Timeout: c.gateBudget})
		gate := time.Since(start)
		implied := 0
		for _, rr := range rep.Rules {
			if rr.Implied == reason.Yes {
				implied++
			}
		}

		// plant the §4 Example 5 conflict: the gate must now pay unsat-core
		// extraction, deletion-shrinking past the k innocent rules
		poisoned := core.NewSet(append(append([]*core.NGD{}, rules.Rules...),
			example5("phi5", nil, []string{"x.A = 7", "x.B = 7"}),
			example5("phi6", nil, []string{"x.A + x.B = 11"}))...)
		start = time.Now()
		prep := analyze.Analyze(poisoned, analyze.Options{Timeout: c.conflictBudget})
		conflict := time.Since(start)
		coreStr := "-"
		if prep.Core != nil {
			coreStr = fmt.Sprintf("%d/%d", len(prep.Core.Rules), k+2)
			if !prep.Core.Minimal {
				coreStr += " (budget)"
			}
		}
		fmt.Fprintf(out, "%6d %13v %8v %8d %8d %10v %12v %14s\n",
			k, rep.Satisfiable, rep.StronglySatisfiable, implied, len(rep.Dropped),
			gate.Round(time.Millisecond), conflict.Round(time.Millisecond), coreStr)
	}
	return nil
}
