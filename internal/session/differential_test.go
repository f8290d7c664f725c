package session_test

// Cross-detector differential fuzz suite: for every seeded (Profile, Σ,
// ΔG-stream) row of gen.Workloads, after every committed batch the
// session's live store must be byte-identical to
//
//   - ref.Detect(G, Σ), the brute-force oracle, on the committed graph
//     (ground truth: it shares no code path with the engine),
//   - Dect(Σ, G) and PDect(Σ, G) on the committed graph,
//   - the previous store reconciled with IncDect's  ΔVio⁺/ΔVio⁻,
//   - the previous store reconciled with PIncDect's ΔVio⁺/ΔVio⁻,
//
// with prunable and unprunable preconditions, edge-less, literal-path and
// band rules, uniform and burst-skewed streams. Failures log the workload
// (profile, seed, batch) so any counterexample reproduces from its seeds.

import (
	"maps"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/par"
	"ngd/internal/ref"
	"ngd/internal/session"
)

// reconcile applies (ΔVio⁺, ΔVio⁻) to a copy of a key set.
func reconcile(prev map[string]core.Violation, plus, minus []core.Violation) []core.Violation {
	next := maps.Clone(prev)
	for _, v := range minus {
		delete(next, v.Key())
	}
	for _, v := range plus {
		next[v.Key()] = v
	}
	return slices.Collect(maps.Values(next))
}

func TestDifferentialContinuousDetection(t *testing.T) {
	for _, w := range gen.Workloads() {
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			runDifferential(t, w)
		})
	}
}

func runDifferential(t *testing.T, w gen.Workload) {
	ds := w.Dataset()
	rules := w.Sigma()
	sess := session.New(ds.G, rules, session.Options{})
	popts := par.Hybrid(6)

	// the session's seed store must already match the oracle
	if got, want := ref.Keys(sess.Violations()), ref.Keys(ref.Detect(ds.G, rules)); got != want {
		t.Fatalf("workload %s: seed store != reference\nstore:\n%s\nreference:\n%s", w.Name(), got, want)
	}

	for b := 0; b < w.Batches; b++ {
		delta := w.Delta(ds, b)
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
		if got, want := ref.Keys(plusRes.Plus), ref.Keys(incRes.Plus); got != want {
			t.Fatalf("workload %s batch %d: Plus on G′ != IncDect's ΔVio⁺ on the overlay\nPlus:\n%s\nIncDect:\n%s",
				w.Name(), b, got, want)
		}

		attrs := w.AttrOps(ds, b)
		st := sess.CommitBatch(delta, attrs)
		store := ref.Keys(sess.Violations())

		// the attribute pass may clear further violations, the edge phase
		// removes exactly the searched ones
		removed := detect.VioKeySet(st.Event.Removed)
		for k := range wantMinus {
			if _, ok := removed[k]; !ok {
				t.Fatalf("workload %s batch %d: commit kept %s, which IncDect's ΔVio⁻ clears", w.Name(), b, k)
			}
		}
		if st.Minus != len(wantMinus) || len(attrs) == 0 && len(removed) != len(wantMinus) {
			t.Fatalf("workload %s batch %d: commit removed %d (event −%d), IncDect's ΔVio⁻ ∩ store has %d\nevent:\n%s\nIncDect:\n%s",
				w.Name(), b, st.Minus, len(removed), len(wantMinus),
				ref.Keys(st.Event.Removed), ref.Keys(slices.Collect(maps.Values(wantMinus))))
		}

		// ground truth: the oracle on the committed graph
		if want := ref.Keys(ref.Detect(ds.G, rules)); store != want {
			t.Fatalf("workload %s batch %d: session store != Vio(Σ,G)\nstore:\n%s\nreference:\n%s",
				w.Name(), b, store, want)
		}
		if dect := ref.Keys(detect.Dect(ds.G, rules, detect.Options{}).Violations); store != dect {
			t.Fatalf("workload %s batch %d: session store != Dect(Σ,G)\nstore:\n%s\nDect:\n%s",
				w.Name(), b, store, dect)
		}
		if pdect := ref.Keys(par.PDect(ds.G, rules, popts).Violations); store != pdect {
			t.Fatalf("workload %s batch %d: session store != PDect(Σ,G)\nstore:\n%s\nPDect:\n%s",
				w.Name(), b, store, pdect)
		}

		// the reconciled incremental answers must land on the same store.
		// An edge-less rule's new-node violations flow through absorption
		// and an attribute op's through attribute reconciliation, not
		// through ΔVio, so the pure-reconcile comparison applies only to
		// edged rule sets under edge-only batches.
		if w.LitPaths && b == w.Batches-1 {
			// the row is vacuous unless every literal path decides a violation
			for _, r := range gen.LitPathRules(w.Profile) {
				if !strings.Contains(store, r.Name+":") {
					t.Errorf("workload %s: no %s violation in the final store", w.Name(), r.Name)
				}
			}
		}
		if w.Band {
			// the trap is vacuous unless uncovered targets violate while the
			// span sits in the band (batch 0), the cut runs once all are
			// covered (batch 2), and they violate again after (batch 3)
			bandVios := strings.Contains(store, "band-follower:")
			if want := b != 2; bandVios != want {
				t.Errorf("workload %s batch %d: band-follower violations in the store: %v, want %v", w.Name(), b, bandVios, want)
			}
			if b == 2 && st.Cuts == 0 {
				t.Errorf("workload %s batch %d: the commit took no ¬Y cut", w.Name(), b)
			}
		}
		if !w.NodeRule && len(attrs) == 0 {
			if got := ref.Keys(reconcile(prev, incRes.Plus, incRes.Minus)); got != store {
				t.Fatalf("workload %s batch %d: IncDect-reconciled set != store\nreconciled:\n%s\nstore:\n%s",
					w.Name(), b, got, store)
			}
			if got := ref.Keys(reconcile(prev, pincRes.Delta.Plus, pincRes.Delta.Minus)); got != store {
				t.Fatalf("workload %s batch %d: PIncDect-reconciled set != store\nreconciled:\n%s\nstore:\n%s",
					w.Name(), b, got, store)
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
		for _, w := range gen.Workloads() {
			t.Run(w.Name(), func(t *testing.T) {
				t.Parallel()
				compareClassSearch(t, w, &handed)
			})
		}
	})
	if handed.Load() == 0 {
		t.Fatal("vacuous table: no twin has a violation")
	}
}

func compareClassSearch(t *testing.T, w gen.Workload, handed *atomic.Int64) {
	ds := w.Dataset()
	rules := w.Sigma()
	for _, r := range slices.Clone(rules.Rules) {
		rules.Add(core.MustNew(r.Name+"-twin", r.Pattern, r.X, r.Y))
	}
	delta := w.Delta(ds, 700)
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
				w.Name(), side.name, keyList(side.got), keyList(side.want))
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
	for _, w := range gen.Workloads() {
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			ds := w.Dataset()
			rules := w.Sigma()
			vio := ref.Detect(ds.G, rules)
			want := ref.Keys(vio)
			for _, p := range []int{1, 2, 4, 8} {
				if got := ref.Keys(par.PDect(ds.G, rules, par.Hybrid(p)).Violations); got != want {
					t.Fatalf("workload %s: PDect(p=%d) != Vio(Σ,G)\nPDect:\n%s\nreference:\n%s",
						w.Name(), p, got, want)
				}
			}

			delta := w.Delta(ds, 500)
			// ΔVio by definition: reconciling it into Vio(Σ,G) must give
			// the oracle's Vio(Σ, G⊕ΔG)
			gotInc := par.PIncDect(ds.G, rules, delta, par.Hybrid(4))
			after := ref.Keys(ref.Detect(graph.NewOverlay(ds.G, delta.Normalize(ds.G)), rules))
			if got := ref.Keys(reconcile(detect.VioKeySet(vio),
				gotInc.Delta.Plus, gotInc.Delta.Minus)); got != after {
				t.Fatalf("workload %s: Vio(Σ,G) ⊕ PIncDect(p=4) != Vio(Σ,G⊕ΔG)\ngot:\n%s\nreference:\n%s",
					w.Name(), got, after)
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
		want := ref.Keys(ref.Detect(ds.G, rules))
		if got := ref.Keys(reconcile(prev, r.Delta.Plus, r.Delta.Minus)); got != want {
			t.Fatalf("batch %d (seed 11): store ⊕ PIncDect != Vio(Σ,G′)\nreconciled:\n%s\nreference:\n%s", b, got, want)
		}
		if store := ref.Keys(sess.Violations()); store != want {
			t.Fatalf("batch %d (seed 11): store != Vio(Σ,G′)\nstore:\n%s\nreference:\n%s", b, store, want)
		}
	}
}
