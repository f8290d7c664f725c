package session_test

// Differential property behind the admission gate's minimization claim
// (DESIGN.md §10): for every Σ and every G,
//
//	Vio(minimize(Σ), G) ≡ Vio(Σ, G)
//
// where minimize drops exactly the unviolable rules (∅ ⊨ φ). The suite
// sweeps the workload table (gen.Workloads) with two planted unviolable rules —
// one with an unsatisfiable precondition, one with an empty consequent —
// and checks that sequential Dect and parallel PDect over minimize(Σ), and a
// committing session handed the full Σ (which minimizes by default), all
// reproduce the reference oracle's Vio(Σ, G) for the full Σ, across every
// committed batch.

import (
	"testing"

	"ngd/internal/analyze"
	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/par"
	"ngd/internal/pattern"
	"ngd/internal/ref"
	"ngd/internal/session"
)

// deadPreRule can never fire: its precondition x.val < 0 ∧ x.val > 0 is
// unsatisfiable, so ∅ ⊨ φ and minimization must drop it.
func deadPreRule() *core.NGD {
	q := pattern.New()
	q.AddNode("x", "integer")
	return core.MustNew("diff-dead-pre", q,
		[]core.Literal{
			core.Lit(expr.V("x", "val"), expr.Lt, expr.C(0)),
			core.Lit(expr.V("x", "val"), expr.Gt, expr.C(0)),
		},
		[]core.Literal{core.Lit(expr.V("x", "val"), expr.Eq, expr.C(1))})
}

// emptyConsRule has Y = ∅: X → ∅ cannot be violated, so it is unviolable
// and must be dropped too.
func emptyConsRule() *core.NGD {
	q := pattern.New()
	q.AddNode("x", "integer")
	return core.MustNew("diff-empty-cons", q,
		[]core.Literal{core.Lit(expr.V("x", "val"), expr.Ge, expr.C(0))}, nil)
}

func TestDifferentialMinimization(t *testing.T) {
	for _, w := range gen.Workloads() {
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			runMinimizeDifferential(t, w)
		})
	}
}

func runMinimizeDifferential(t *testing.T, w gen.Workload) {
	ds := w.Dataset()
	full := w.Sigma()
	full.Add(deadPreRule())
	full.Add(emptyConsRule())

	min, dropped := analyze.MinimizeUnviolable(full)
	if len(dropped) != 2 {
		t.Fatalf("workload %s: expected both planted unviolable rules dropped, got %v",
			w.Name(), dropped)
	}
	if min.Len() != full.Len()-2 {
		t.Fatalf("workload %s: minimize removed a live rule: %d -> %d",
			w.Name(), full.Len(), min.Len())
	}

	// batch equivalence on the seed graph, sequential and parallel
	want := ref.Keys(ref.Detect(ds.G, full))
	if got := ref.Keys(detect.Dect(ds.G, min, detect.Options{}).Violations); got != want {
		t.Fatalf("workload %s: Dect(minΣ) != Vio(Σ,G)\nmin:\n%s\nfull:\n%s", w.Name(), got, want)
	}
	if got := ref.Keys(par.PDect(ds.G, min, par.Hybrid(6)).Violations); got != want {
		t.Fatalf("workload %s: PDect(minΣ) != Vio(Σ,G)\nmin:\n%s\nfull:\n%s", w.Name(), got, want)
	}

	// continuous detection: a session handed the FULL Σ (admission
	// minimization on by default) must track from-scratch detection with
	// the full Σ across every committed batch
	sess := session.New(ds.G, full, session.Options{})
	if got := len(sess.DroppedRules()); got != 2 {
		t.Fatalf("workload %s: session dropped %d rules, want 2", w.Name(), got)
	}
	for b := 0; b < w.Batches; b++ {
		sess.CommitBatch(w.Delta(ds, b), w.AttrOps(ds, b))
		store := ref.Keys(sess.Violations())
		truth := ref.Keys(ref.Detect(ds.G, full))
		if store != truth {
			t.Fatalf("workload %s batch %d: minimized session store != Vio(Σ,G)\nstore:\n%s\ntruth:\n%s",
				w.Name(), b, store, truth)
		}
	}
}
