package serve_test

// Repair differential sweep: the repair engine re-runs the session
// differential fuzz table (internal/session's seeded workloads — every
// profile, prunable and unprunable Σ, edge-less rules, uniform and skewed
// streams) and, on each workload's final state, drains the violation store
// by applying the top-ranked fix per violation through /repair/apply's
// backing call. After every apply the live store must be byte-identical to
// Vio(Σ, G') recomputed by the brute-force oracle (internal/ref) on the
// repaired graph — the repair commit is an ordinary batch, invisible to
// the detection invariant.
// Previews run alongside and must never move the epoch or the store, and
// each apply's commit must be its preview: the keys it removes are the fix's
// Clears, the keys it adds its Introduces.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/pattern"
	"ngd/internal/ref"
	"ngd/internal/repair"
	"ngd/internal/serve"
	"ngd/internal/session"
)

// sweepWorkload mirrors internal/session's diffWorkload table (that suite
// is package session_test, so the table is replicated, not imported; the
// len guard below keeps the two from drifting apart silently).
type sweepWorkload struct {
	profile   gen.Profile
	entities  int
	rules     int
	seed      int64
	batches   int
	batchFrac float64
	gamma     float64 // 0 = 1 (paper default)
	hotspot   float64 // 0 = generator default (burst-skewed); -1 = uniform
	noPrune   bool    // Σ rewritten so no precondition is index-prunable
	parTag    bool    // name carries "par"; see sweepWorkloads
	nodeRule  bool    // append an edge-less rule (per-node absorption path)
}

func (w sweepWorkload) name() string {
	var tags []string
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

func sweepWorkloads() []sweepWorkload {
	var ws []sweepWorkload
	profiles := []gen.Profile{gen.DBpedia, gen.YAGO2, gen.Pokec, gen.Synthetic}
	entities := map[string]int{"dbpedia": 180, "yago2": 180, "pokec": 90, "synthetic": 180}
	for _, p := range profiles {
		for _, seed := range []int64{1, 2} {
			for _, noPrune := range []bool{false, true} {
				ws = append(ws, sweepWorkload{
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
		ws = append(ws, sweepWorkload{
			profile: p, entities: entities[p.Name], rules: 10,
			seed: int64(3 + i), batches: 3, batchFrac: 0.06, parTag: true,
		})
	}
	for _, seed := range []int64{5, 6} {
		ws = append(ws, sweepWorkload{
			profile: gen.YAGO2, entities: 150, rules: 8,
			seed: seed, batches: 3, batchFrac: 0.08, nodeRule: true,
		})
	}
	ws = append(ws,
		sweepWorkload{profile: gen.Synthetic, entities: 180, rules: 10,
			seed: 7, batches: 3, batchFrac: 0.06, hotspot: -1},
		sweepWorkload{profile: gen.DBpedia, entities: 180, rules: 10,
			seed: 8, batches: 3, batchFrac: 0.08, gamma: 3.0},
		sweepWorkload{profile: gen.YAGO2, entities: 180, rules: 10,
			seed: 9, batches: 3, batchFrac: 0.08, gamma: 0.3},
	)
	return ws
}

// sweepNodeRule is session_test's noSevenRule: an edge-less rule whose
// violations flow through per-node absorption rather than ΔVio.
func sweepNodeRule() *core.NGD {
	q := pattern.New()
	q.AddNode("x", "integer")
	return core.MustNew("no-seven", q, nil, []core.Literal{
		core.Lit(expr.V("x", "val"), expr.Ne, expr.C(7)),
	})
}

// sweepUnprunable is session_test's unprunable: every precondition L ⊗ R
// becomes L+0 ⊗ R+0, which means the same but is not the shape the planner
// compiles into candidate filters and index seeds.
func sweepUnprunable(rules *core.Set) *core.Set {
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

// sweepCanon renders a violation key set in canonical byte form.
func sweepCanon(vs []core.Violation) string {
	keys := make([]string, 0, len(vs))
	for k := range detect.VioKeySet(vs) {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

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
	workloads := sweepWorkloads()
	if len(workloads) < 24 {
		t.Fatalf("workload table shrank to %d entries", len(workloads))
	}
	stats := &sweepTally{}
	t.Cleanup(func() {
		t.Logf("preview≡commit over %d applies: %d attribute fixes, %d edge deletions, %d introducing violations",
			stats.applies, stats.attr, stats.edge, stats.in)
	})
	for _, w := range workloads {
		w := w
		t.Run(w.name(), func(t *testing.T) {
			t.Parallel()
			runRepairSweep(t, w, stats)
		})
	}
}

func runRepairSweep(t *testing.T, w sweepWorkload, stats *sweepTally) {
	ds := gen.Generate(w.profile, w.entities, w.seed)
	rules := gen.Rules(w.profile, gen.RuleConfig{Count: w.rules, MaxDiameter: 4, Seed: w.seed})
	if w.nodeRule {
		rules.Add(sweepNodeRule())
	}
	if w.noPrune {
		rules = sweepUnprunable(rules)
	}
	sess := session.New(ds.G, rules, session.Options{})

	// replay the workload's stream first — repair runs against the state a
	// served session would actually be in, not a freshly seeded store
	for b := 0; b < w.batches; b++ {
		sess.Commit(gen.RandomDelta(ds, gen.DeltaConfig{
			Size:    gen.DeltaSize(ds.G, w.batchFrac),
			Gamma:   w.gamma,
			Seed:    w.seed*1000 + int64(b),
			Hotspot: w.hotspot,
		}))
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
		before := sweepCanon(sn.Violations())
		res, err := s.PreviewRepair(key, repair.Options{})
		if err != nil {
			t.Fatalf("workload %s: preview %s: %v", w.name(), key, err)
		}
		if sn2 := s.Snapshot(); sn2.Epoch != sn.Epoch || sweepCanon(sn2.Violations()) != before {
			t.Fatalf("workload %s: preview of %s moved the session (epoch %d→%d)",
				w.name(), key, sn.Epoch, sn2.Epoch)
		}
		if res.Unrepairable {
			skip[key] = true
			continue
		}

		applied, err := s.ApplyRepair(key, "", repair.Options{})
		if err != nil {
			t.Fatalf("workload %s: apply %s: %v", w.name(), key, err)
		}
		applies++
		if top, ok := res.Top(); !ok || applied.Fix.ID != top.ID {
			t.Fatalf("workload %s: applied %s, preview ranked %s first",
				w.name(), applied.Fix.ID, top.ID)
		}

		// the commit is the preview: it takes out exactly the keys the fix
		// said it clears and adds exactly the ones it said it introduces
		removed, added := sweepKeyDiff(sn.Violations(), s.Snapshot().Violations())
		if !slices.Equal(removed, applied.Fix.Clears) || !slices.Equal(added, applied.Fix.Introduces) {
			t.Fatalf("workload %s apply %d (%s): commit removed %v added %v, preview said clears %v introduces %v",
				w.name(), applies, applied.Fix.ID, removed, added, applied.Fix.Clears, applied.Fix.Introduces)
		}
		stats.add(applied.Fix)

		// the differential: after the repair commit the live store must be
		// byte-identical to the oracle's answer on the repaired graph
		store := sweepCanon(s.Snapshot().Violations())
		want := sweepCanon(ref.Detect(ds.G, rules))
		if store != want {
			t.Fatalf("workload %s apply %d (%s): store != Vio(Σ,G')\nstore:\n%s\nreference:\n%s",
				w.name(), applies, applied.Fix.ID, store, want)
		}
		if _, still := s.Snapshot().Get(key); still {
			t.Fatalf("workload %s: applied fix %s did not clear its target %s",
				w.name(), applied.Fix.ID, key)
		}
	}

	if left := s.Snapshot().Len(); left > len(skip) {
		t.Fatalf("workload %s: drain stalled with %d violations (%d unrepairable) after %d applies",
			w.name(), left, len(skip), applies)
	}
	s.Close()
	if err := sess.Recheck(); err != nil {
		t.Fatalf("workload %s: store invariant after drain: %v", w.name(), err)
	}
}
