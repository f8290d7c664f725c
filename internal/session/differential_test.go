package session_test

// Cross-detector differential fuzz suite: for dozens of seeded
// (Profile, Σ, ΔG-stream) workloads, after every committed batch the
// session's live store must be byte-identical to
//
//   - ref.Detect(G, Σ), the brute-force oracle, on the committed graph
//     (ground truth: it shares no code path with the engine),
//   - Dect(Σ, G) and PDect(Σ, G) on the committed graph,
//   - the previous store reconciled with IncDect's  ΔVio⁺/ΔVio⁻,
//   - the previous store reconciled with PIncDect's ΔVio⁺/ΔVio⁻,
//
// with prunable and unprunable preconditions, edge-less and literal-path
// rules, uniform and burst-skewed streams. Failures log the workload
// (profile, seed, batch) so any counterexample reproduces from its seeds.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/par"
	"ngd/internal/pattern"
	"ngd/internal/ref"
	"ngd/internal/session"
)

// diffWorkload seeds one continuous-detection scenario.
type diffWorkload struct {
	profile   gen.Profile
	entities  int
	rules     int
	seed      int64
	batches   int
	batchFrac float64
	gamma     float64 // 0 = 1 (paper default)
	hotspot   float64 // 0 = generator default (burst-skewed); -1 = uniform
	noPrune   bool    // Σ rewritten so no precondition is index-prunable
	parTag    bool    // name carries "par"; see diffWorkloads
	nodeRule  bool    // append an edge-less rule (per-node absorption path)
	litPaths  bool    // append litPathRules, decorate the graph, stream attr ops
}

// sigma builds the workload's rule set.
func (w diffWorkload) sigma() *core.Set {
	rules := gen.Rules(w.profile, gen.RuleConfig{Count: w.rules, MaxDiameter: 4, Seed: w.seed})
	if w.nodeRule {
		rules.Add(noSevenRule())
	}
	if w.litPaths {
		rules.Add(litPathRules(w.profile)...)
	}
	if w.noPrune {
		rules = unprunable(rules)
	}
	return rules
}

// unprunable rewrites every precondition L ⊗ R as L+0 ⊗ R+0: the same
// meaning on numeric attributes, but no longer the bare-term-vs-constant
// shape the planner compiles into candidate filters and index seeds. The
// same Σ therefore runs down the engine's other path — label-bucket scans
// with every literal left to the level-by-level schedule — on the same graph
// and stream as the prunable row beside it.
func unprunable(rules *core.Set) *core.Set {
	out := core.NewSet()
	for _, r := range rules.Rules {
		x := make([]core.Literal, len(r.X))
		for i, l := range r.X {
			x[i] = core.Lit(expr.Add(l.L, expr.C(0)), l.Op, expr.Add(l.R, expr.C(0)))
		}
		out.Add(core.MustNew(r.Name, r.Pattern, x, r.Y))
	}
	return out
}

// litPathRules is one rule per way detect.LitEval can decide a literal, on
// top of the plain and |·| integer kernels every generated Σ already runs:
// the string kernel, a literal the kernel compiler refuses (a cancelled
// term), a sum that leaves int64 on decorated values and falls back to
// math/big, and an attribute no node carries until a later batch sets it.
func litPathRules(p gen.Profile) []*core.NGD {
	hop := func() *pattern.Pattern {
		q := pattern.New()
		x, y := q.AddNode("x", "_"), q.AddNode("y", "_")
		a, b := q.AddNode("a", "integer"), q.AddNode("b", "integer")
		q.AddEdge(x, y, "next")
		q.AddEdge(x, a, "p0")
		q.AddEdge(y, b, "p0")
		return q
	}
	sum := pattern.New()
	x := sum.AddNode("x", "_")
	for i, v := range []string{"a", "b", "c"} {
		sum.AddEdge(x, sum.AddNode(v, "integer"), gen.PropLabels[i+1])
	}
	lits := func(srcs ...string) []core.Literal {
		out := make([]core.Literal, len(srcs))
		for i, src := range srcs {
			out[i] = core.MustLiteral(src)
		}
		return out
	}
	return []*core.NGD{
		core.MustNew("lit-string", hop(), lits(`x.tag != "living people"`), lits("x.tag = y.tag")),
		core.MustNew("lit-refused", hop(), lits("a.val - a.val = 0"),
			lits(fmt.Sprintf("abs(a.val - b.val) <= %d", p.MaxDrift))),
		core.MustNew("lit-overflow", sum, nil, lits("a.val + b.val <= c.val")),
		core.MustNew("lit-late", hop(), lits("x.risk - y.risk >= 1"), lits("a.val <= b.val")),
	}
}

// decorate gives litPathRules something to decide: a string tag on every
// entity, and on every ninth one p1 = p2 = 2⁶² against p3 = MaxInt64, so
// p1 + p2 ≤ p3 is false only in exact arithmetic (wrapped, 2⁶³ is negative).
func decorate(ds *gen.Dataset) {
	for i, e := range ds.Entities {
		tag := "person"
		if i%4 == 0 {
			tag = "living people"
		} else if i%3 == 0 {
			tag = "place"
		}
		ds.G.SetAttr(e, "tag", graph.Str(tag))
		if i%9 == 0 {
			ds.G.SetAttr(ds.PropNode[i][1], "val", graph.Int(1<<62))
			ds.G.SetAttr(ds.PropNode[i][2], "val", graph.Int(1<<62))
			ds.G.SetAttr(ds.PropNode[i][3], "val", graph.Int(math.MaxInt64))
		}
	}
}

// riskOps is batch b's attribute stream for a litPaths workload: none with
// the first batch, then a third of the entities get (or change) a risk.
func riskOps(ds *gen.Dataset, b int) []graph.AttrOp {
	if b == 0 {
		return nil
	}
	risk := ds.G.Symbols().Attr("risk")
	var ops []graph.AttrOp
	for i, e := range ds.Entities {
		if i%3 == b%3 {
			ops = append(ops, graph.AttrOp{Node: e, Attr: risk, Val: graph.Int(int64((i + b) % 4))})
		}
	}
	return ops
}

func (w diffWorkload) name() string {
	var tags []string
	if w.litPaths {
		tags = append(tags, "litpaths")
	}
	if w.noPrune {
		tags = append(tags, "noprune")
	}
	if w.parTag {
		tags = append(tags, "par")
	}
	if w.nodeRule {
		tags = append(tags, "noderule")
	}
	if w.hotspot < 0 {
		tags = append(tags, "uniform")
	}
	if w.gamma != 0 {
		tags = append(tags, fmt.Sprintf("gamma%.1f", w.gamma))
	}
	tag := ""
	if len(tags) > 0 {
		tag = "/" + strings.Join(tags, "+")
	}
	return fmt.Sprintf("%s/seed%d%s", w.profile.Name, w.seed, tag)
}

// diffWorkloads is the seeded workload table: every profile, prunable and
// unprunable Σ, two seeds each, plus seed/stream/rule-shape variants.
func diffWorkloads() []diffWorkload {
	var ws []diffWorkload
	profiles := []gen.Profile{gen.DBpedia, gen.YAGO2, gen.Pokec, gen.Synthetic}
	entities := map[string]int{"dbpedia": 180, "yago2": 180, "pokec": 90, "synthetic": 180}
	for _, p := range profiles {
		for _, seed := range []int64{1, 2} {
			for _, noPrune := range []bool{false, true} {
				ws = append(ws, diffWorkload{
					profile: p, entities: entities[p.Name], rules: 10,
					seed: seed, batches: 3, batchFrac: 0.06, noPrune: noPrune,
				})
			}
		}
	}
	// seeds 3–6, one per profile: these rows once routed the session
	// through PIncDect and commit sequentially like every row now; the "par"
	// tag stays in their names so their test ids do not change
	for i, p := range profiles {
		ws = append(ws, diffWorkload{
			profile: p, entities: entities[p.Name], rules: 10,
			seed: int64(3 + i), batches: 3, batchFrac: 0.06, parTag: true,
		})
	}
	// edge-less rule in Σ: new-node absorption must stay consistent
	for _, seed := range []int64{5, 6} {
		ws = append(ws, diffWorkload{
			profile: gen.YAGO2, entities: 150, rules: 8,
			seed: seed, batches: 3, batchFrac: 0.08, nodeRule: true,
		})
	}
	// uniform (non-bursty) stream and delete-heavy / insert-heavy mixes
	ws = append(ws,
		diffWorkload{profile: gen.Synthetic, entities: 180, rules: 10,
			seed: 7, batches: 3, batchFrac: 0.06, hotspot: -1},
		diffWorkload{profile: gen.DBpedia, entities: 180, rules: 10,
			seed: 8, batches: 3, batchFrac: 0.08, gamma: 3.0},
		diffWorkload{profile: gen.YAGO2, entities: 180, rules: 10,
			seed: 9, batches: 3, batchFrac: 0.08, gamma: 0.3},
		// every literal path of detect.LitEval in one Σ (litPathRules)
		diffWorkload{profile: gen.YAGO2, entities: 180, rules: 10,
			seed: 10, batches: 3, batchFrac: 0.06, litPaths: true},
	)
	return ws
}

// canon renders a violation set in canonical byte form.
func canon(vs []core.Violation) string {
	keys := detect.VioKeySet(vs)
	return canonKeys(keys)
}

func canonKeys(m map[string]core.Violation) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// reconcile applies (ΔVio⁺, ΔVio⁻) to a key set copy.
func reconcile(prev map[string]core.Violation, plus, minus []core.Violation) map[string]core.Violation {
	next := make(map[string]core.Violation, len(prev)+len(plus))
	for k, v := range prev {
		next[k] = v
	}
	for _, v := range minus {
		delete(next, v.Key())
	}
	for _, v := range plus {
		next[v.Key()] = v
	}
	return next
}

func TestDifferentialContinuousDetection(t *testing.T) {
	workloads := diffWorkloads()
	if len(workloads) < 24 {
		t.Fatalf("workload table shrank to %d entries", len(workloads))
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name(), func(t *testing.T) {
			t.Parallel()
			runDifferential(t, w)
		})
	}
}

// generate builds the workload's graph.
func (w diffWorkload) generate() *gen.Dataset {
	ds := gen.Generate(w.profile, w.entities, w.seed)
	if w.litPaths {
		decorate(ds)
	}
	return ds
}

func runDifferential(t *testing.T, w diffWorkload) {
	ds := w.generate()
	rules := w.sigma()
	sess := session.New(ds.G, rules, session.Options{})
	popts := par.Hybrid(6)

	// the session's seed store must already match the oracle
	if got, want := canon(sess.Violations()), canon(ref.Detect(ds.G, rules)); got != want {
		t.Fatalf("workload %s: seed store != reference\nstore:\n%s\nreference:\n%s", w.name(), got, want)
	}

	for b := 0; b < w.batches; b++ {
		delta := gen.RandomDelta(ds, gen.DeltaConfig{
			Size:    gen.DeltaSize(ds.G, w.batchFrac),
			Gamma:   w.gamma,
			Seed:    w.seed*1000 + int64(b),
			Hotspot: w.hotspot,
		})
		prev := detect.VioKeySet(sess.Violations())

		// incremental answers against the pre-commit graph (neither call
		// mutates G; the session commits afterwards)
		incRes := inc.IncDect(ds.G, rules, delta, inc.Options{})
		pincRes := par.PIncDect(ds.G, rules, delta, popts)

		// the searched ΔVio is the specification of what the commit does
		// instead: its ΔVio⁻, as far as the store held it, is what the lookup
		// must remove, and its ΔVio⁺ over the overlay is what inc.Plus must
		// find on the applied graph (a clone: the session applies attribute
		// ops in the same commit)
		wantMinus := make(map[string]core.Violation)
		for _, v := range incRes.Minus {
			if _, ok := prev[v.Key()]; ok {
				wantMinus[v.Key()] = v
			}
		}
		applied := ds.G.Clone()
		norm := delta.Normalize(applied)
		applied.Apply(norm)
		plusRes := inc.Plus(applied, rules, norm.Insertions(), inc.Options{})
		if got, want := canon(plusRes.Plus), canon(incRes.Plus); got != want {
			t.Fatalf("workload %s batch %d: Plus on G′ != IncDect's ΔVio⁺ on the overlay\nPlus:\n%s\nIncDect:\n%s",
				w.name(), b, got, want)
		}

		var attrs []graph.AttrOp
		if w.litPaths {
			attrs = riskOps(ds, b)
		}
		st := sess.CommitBatch(delta, attrs)
		store := canonKeys(detect.VioKeySet(sess.Violations()))

		// the attribute pass may clear further violations, the edge phase
		// removes exactly the searched ones
		removed := detect.VioKeySet(st.Event.Removed)
		for k := range wantMinus {
			if _, ok := removed[k]; !ok {
				t.Fatalf("workload %s batch %d: commit kept %s, which IncDect's ΔVio⁻ clears", w.name(), b, k)
			}
		}
		if st.Minus != len(wantMinus) || len(attrs) == 0 && len(removed) != len(wantMinus) {
			t.Fatalf("workload %s batch %d: commit removed %d (event −%d), IncDect's ΔVio⁻ ∩ store has %d\nevent:\n%s\nIncDect:\n%s",
				w.name(), b, st.Minus, len(removed), len(wantMinus), canonKeys(removed), canonKeys(wantMinus))
		}

		// ground truth: the oracle on the committed graph
		if want := canon(ref.Detect(ds.G, rules)); store != want {
			t.Fatalf("workload %s batch %d: session store != Vio(Σ,G)\nstore:\n%s\nreference:\n%s",
				w.name(), b, store, want)
		}
		if dect := canon(detect.Dect(ds.G, rules, detect.Options{}).Violations); store != dect {
			t.Fatalf("workload %s batch %d: session store != Dect(Σ,G)\nstore:\n%s\nDect:\n%s",
				w.name(), b, store, dect)
		}
		pdect := canon(par.PDect(ds.G, rules, popts).Violations)
		if store != pdect {
			t.Fatalf("workload %s batch %d: session store != PDect(Σ,G)\nstore:\n%s\nPDect:\n%s",
				w.name(), b, store, pdect)
		}

		// the reconciled incremental answers must land on the same store.
		// An edge-less rule's new-node violations flow through absorption
		// and an attribute op's through attribute reconciliation, not
		// through ΔVio, so the pure-reconcile comparison applies only to
		// edged rule sets under edge-only batches.
		if w.litPaths && b == w.batches-1 {
			// the row is vacuous unless every literal path decides a violation
			for _, r := range litPathRules(w.profile) {
				if !strings.Contains(store, r.Name+":") {
					t.Errorf("workload %s: no %s violation in the final store", w.name(), r.Name)
				}
			}
		}
		if !w.nodeRule && len(attrs) == 0 {
			if got := canonKeys(reconcile(prev, incRes.Plus, incRes.Minus)); got != store {
				t.Fatalf("workload %s batch %d: IncDect-reconciled set != store\nreconciled:\n%s\nstore:\n%s",
					w.name(), b, got, store)
			}
			if got := canonKeys(reconcile(prev, pincRes.Delta.Plus, pincRes.Delta.Minus)); got != store {
				t.Fatalf("workload %s batch %d: PIncDect-reconciled set != store\nreconciled:\n%s\nstore:\n%s",
					w.name(), b, got, store)
			}
		}
	}
}

// TestIncDectClassesMatchPerRule: IncDect searches a clone class once and
// hands its violations to every member; on every workload of the table, with
// each rule's twin (same dependency, another name) appended to Σ, its ΔVio⁺
// and ΔVio⁻ must be the concatenation of the per-rule runs over singleton
// sets, slice for slice.
func TestIncDectClassesMatchPerRule(t *testing.T) {
	var handed atomic.Int64 // twins' violations, over the table
	t.Run("table", func(t *testing.T) {
		for _, w := range diffWorkloads() {
			t.Run(w.name(), func(t *testing.T) {
				t.Parallel()
				compareClassSearch(t, w, &handed)
			})
		}
	})
	if handed.Load() == 0 {
		t.Fatal("vacuous table: no twin has a violation")
	}
}

func compareClassSearch(t *testing.T, w diffWorkload, handed *atomic.Int64) {
	ds := w.generate()
	rules := w.sigma()
	for _, r := range slices.Clone(rules.Rules) {
		rules.Add(core.MustNew(r.Name+"-twin", r.Pattern, r.X, r.Y))
	}
	delta := gen.RandomDelta(ds, gen.DeltaConfig{
		Size:    gen.DeltaSize(ds.G, w.batchFrac),
		Gamma:   w.gamma,
		Seed:    w.seed*1000 + 700,
		Hotspot: w.hotspot,
	})
	got := inc.IncDect(ds.G, rules, delta, inc.Options{})
	var want inc.DeltaVio
	for _, r := range rules.Rules {
		one := inc.IncDect(ds.G, core.NewSet(r), delta, inc.Options{})
		want.Plus = append(want.Plus, one.Plus...)
		want.Minus = append(want.Minus, one.Minus...)
	}
	for _, side := range []struct {
		name      string
		got, want []core.Violation
	}{{"ΔVio⁺", got.Plus, want.Plus}, {"ΔVio⁻", got.Minus, want.Minus}} {
		if !slices.EqualFunc(side.got, side.want, func(a, b core.Violation) bool {
			return a.Rule == b.Rule && slices.Equal(a.Match, b.Match)
		}) {
			t.Fatalf("workload %s: %s by class != per-rule concatenation\nclass:\n%s\nper rule:\n%s",
				w.name(), side.name, keyList(side.got), keyList(side.want))
		}
		for _, v := range side.got {
			if strings.HasSuffix(v.Rule.Name, "-twin") {
				handed.Add(1)
			}
		}
	}
}

// keyList renders a violation list in its order, one key a line.
func keyList(vs []core.Violation) string {
	keys := make([]string, len(vs))
	for i, v := range vs {
		keys[i] = v.Key()
	}
	return strings.Join(keys, "\n")
}

// TestDifferentialShardRuntime sweeps the parallel detectors over the full
// fuzz workload table: on every workload's seed graph, PDect must compute
// exactly Vio(Σ, G) at p ∈ {1, 2, 4, 8}, and PIncDect exactly
// ΔVio(Σ, G, ΔG) for a committed-size batch.
func TestDifferentialShardRuntime(t *testing.T) {
	workloads := diffWorkloads()
	if len(workloads) < 24 {
		t.Fatalf("workload table shrank to %d entries", len(workloads))
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name(), func(t *testing.T) {
			t.Parallel()
			ds := w.generate()
			rules := w.sigma()
			vio := ref.Detect(ds.G, rules)
			want := canon(vio)
			for _, p := range []int{1, 2, 4, 8} {
				if got := canon(par.PDect(ds.G, rules, par.Hybrid(p)).Violations); got != want {
					t.Fatalf("workload %s: PDect(p=%d) != Vio(Σ,G)\nPDect:\n%s\nreference:\n%s",
						w.name(), p, got, want)
				}
			}

			delta := gen.RandomDelta(ds, gen.DeltaConfig{
				Size:    gen.DeltaSize(ds.G, w.batchFrac),
				Gamma:   w.gamma,
				Seed:    w.seed*1000 + 500,
				Hotspot: w.hotspot,
			})
			// ΔVio by definition: reconciling it into Vio(Σ,G) must give
			// the oracle's Vio(Σ, G⊕ΔG)
			gotInc := par.PIncDect(ds.G, rules, delta, par.Hybrid(4))
			after := ref.Detect(graph.NewOverlay(ds.G, delta.Normalize(ds.G)), rules)
			if got := canonKeys(reconcile(detect.VioKeySet(vio),
				gotInc.Delta.Plus, gotInc.Delta.Minus)); got != canon(after) {
				t.Fatalf("workload %s: Vio(Σ,G) ⊕ PIncDect(p=4) != Vio(Σ,G⊕ΔG)\ngot:\n%s\nreference:\n%s",
					w.name(), got, canon(after))
			}
		})
	}
}

// TestDifferentialRealDriver runs PIncDect beside the session: each batch's
// ΔVio comes from PIncDect on the pre-commit graph, then the session commits
// the batch, and the previous store reconciled with that ΔVio must equal both
// the session's store and Vio(Σ, G′) from the reference detector.
func TestDifferentialRealDriver(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 150, 11)
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 8, MaxDiameter: 4, Seed: 11})
	sess := session.New(ds.G, rules, session.Options{})
	for b := 0; b < 3; b++ {
		delta := gen.RandomDelta(ds, gen.DeltaConfig{
			Size: gen.DeltaSize(ds.G, 0.08), Gamma: 1, Seed: 11000 + int64(b),
		})
		prev := detect.VioKeySet(sess.Violations())
		r := par.PIncDect(ds.G, rules, delta, par.Hybrid(4))
		sess.Commit(delta)
		want := canon(ref.Detect(ds.G, rules))
		if got := canonKeys(reconcile(prev, r.Delta.Plus, r.Delta.Minus)); got != want {
			t.Fatalf("batch %d (seed 11): store ⊕ PIncDect != Vio(Σ,G′)\nreconciled:\n%s\nreference:\n%s", b, got, want)
		}
		if store := canonKeys(detect.VioKeySet(sess.Violations())); store != want {
			t.Fatalf("batch %d (seed 11): store != Vio(Σ,G′)\nstore:\n%s\nreference:\n%s", b, store, want)
		}
	}
}
