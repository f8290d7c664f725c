package serve_test

// Repair differential sweep: the repair engine re-runs the differential
// workload table (gen.Workloads — every profile, prunable and unprunable Σ,
// edge-less and literal-path rules, uniform and skewed streams) and, on each
// workload's final state, drains the violation store
// by applying the top-ranked fix per violation through /repair/apply's
// backing call. After every apply the live store must be byte-identical to
// Vio(Σ, G') recomputed by the brute-force oracle (internal/ref) on the
// repaired graph — the repair commit is an ordinary batch, invisible to
// the detection invariant.
// Previews run alongside and must never move the epoch or the store, and
// each apply's commit must be its preview: the keys it removes are the fix's
// Clears, the keys it adds its Introduces.

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/gen"
	"ngd/internal/ref"
	"ngd/internal/repair"
	"ngd/internal/serve"
	"ngd/internal/session"
)

// sweepKeyDiff lists the keys of before missing from after (removed) and
// those of after missing from before (added), both sorted.
func sweepKeyDiff(before, after []core.Violation) (removed, added []string) {
	b, a := detect.VioKeySet(before), detect.VioKeySet(after)
	for k := range b {
		if _, ok := a[k]; !ok {
			removed = append(removed, k)
		}
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			added = append(added, k)
		}
	}
	sort.Strings(removed)
	sort.Strings(added)
	return removed, added
}

// sweepTally counts the applies the preview≡commit check covered, by kind.
type sweepTally struct {
	mu                      sync.Mutex
	applies, attr, edge, in int
}

func (st *sweepTally) add(f repair.Fix) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.applies++
	if f.Kind == repair.KindAttr {
		st.attr++
	} else {
		st.edge++
	}
	if len(f.Introduces) > 0 {
		st.in++
	}
}

func TestRepairDifferentialSweep(t *testing.T) {
	stats := &sweepTally{}
	t.Cleanup(func() {
		t.Logf("preview≡commit over %d applies: %d attribute fixes, %d edge deletions, %d introducing violations",
			stats.applies, stats.attr, stats.edge, stats.in)
	})
	for _, w := range gen.Workloads() {
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			runRepairSweep(t, w, stats)
		})
	}
}

func runRepairSweep(t *testing.T, w gen.Workload, stats *sweepTally) {
	ds := w.Dataset()
	rules := w.Sigma()
	sess := session.New(ds.G, rules, session.Options{})

	// replay the workload's stream first — repair runs against the state a
	// served session would actually be in, not a freshly seeded store
	for b := 0; b < w.Batches; b++ {
		sess.CommitBatch(w.Delta(ds, b), w.AttrOps(ds, b))
	}

	// the server owns the writer from here; applies go through its ingest
	s := serve.New(sess, serve.Options{})
	defer s.Close()

	initial := s.Snapshot().Len()
	skip := map[string]bool{}
	applies := 0
	for applies < 2*initial+8 {
		sn := s.Snapshot()
		key := ""
		for _, v := range sn.Violations() {
			if !skip[v.Key()] {
				key = v.Key()
				break
			}
		}
		if key == "" {
			break
		}

		// preview must be observationally pure: same epoch, same store
		before := ref.Keys(sn.Violations())
		res, err := s.PreviewRepair(key, repair.Options{})
		if err != nil {
			t.Fatalf("workload %s: preview %s: %v", w.Name(), key, err)
		}
		if sn2 := s.Snapshot(); sn2.Epoch != sn.Epoch || ref.Keys(sn2.Violations()) != before {
			t.Fatalf("workload %s: preview of %s moved the session (epoch %d→%d)",
				w.Name(), key, sn.Epoch, sn2.Epoch)
		}
		if res.Unrepairable {
			skip[key] = true
			continue
		}

		applied, err := s.ApplyRepair(key, "", repair.Options{})
		if err != nil {
			t.Fatalf("workload %s: apply %s: %v", w.Name(), key, err)
		}
		applies++
		if top, ok := res.Top(); !ok || applied.Fix.ID != top.ID {
			t.Fatalf("workload %s: applied %s, preview ranked %s first",
				w.Name(), applied.Fix.ID, top.ID)
		}

		// the commit is the preview: it takes out exactly the keys the fix
		// said it clears and adds exactly the ones it said it introduces
		removed, added := sweepKeyDiff(sn.Violations(), s.Snapshot().Violations())
		if !slices.Equal(removed, applied.Fix.Clears) || !slices.Equal(added, applied.Fix.Introduces) {
			t.Fatalf("workload %s apply %d (%s): commit removed %v added %v, preview said clears %v introduces %v",
				w.Name(), applies, applied.Fix.ID, removed, added, applied.Fix.Clears, applied.Fix.Introduces)
		}
		stats.add(applied.Fix)

		// the differential: after the repair commit the live store must be
		// byte-identical to the oracle's answer on the repaired graph
		store := ref.Keys(s.Snapshot().Violations())
		want := ref.Keys(ref.Detect(ds.G, rules))
		if store != want {
			t.Fatalf("workload %s apply %d (%s): store != Vio(Σ,G')\nstore:\n%s\nreference:\n%s",
				w.Name(), applies, applied.Fix.ID, store, want)
		}
		if _, still := s.Snapshot().Get(key); still {
			t.Fatalf("workload %s: applied fix %s did not clear its target %s",
				w.Name(), applied.Fix.ID, key)
		}
	}

	if left := s.Snapshot().Len(); left > len(skip) {
		t.Fatalf("workload %s: drain stalled with %d violations (%d unrepairable) after %d applies",
			w.Name(), left, len(skip), applies)
	}
	s.Close()
	if err := sess.Recheck(); err != nil {
		t.Fatalf("workload %s: store invariant after drain: %v", w.Name(), err)
	}
}
