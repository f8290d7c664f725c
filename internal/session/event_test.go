package session_test

import (
	"sort"
	"testing"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/pattern"
	"ngd/internal/session"
)

// keySet snapshots a violation key set.
func keySet(sn *session.Snapshot) map[string]bool {
	out := make(map[string]bool, sn.Len())
	for _, v := range sn.Violations() {
		out[v.Key()] = true
	}
	return out
}

// applyEvent replays a commit event onto a key set the way a feed
// subscriber would: removals first, then additions. Every op must be
// effective — a removal of an absent key or an addition of a present one
// means the event is not an exact differential. The key each record carries
// must be its violation's key.
func applyEvent(t *testing.T, set map[string]bool, ev *session.CommitEvent) {
	t.Helper()
	for _, rec := range ev.Removed {
		k := rec.Key
		if rec.Violation.Key() != k {
			t.Fatalf("epoch %d: removed record %s holds violation %s", ev.Epoch, k, rec.Violation.Key())
		}
		if !set[k] {
			t.Fatalf("epoch %d: event removes %s which the subscriber never had", ev.Epoch, k)
		}
		delete(set, k)
	}
	for _, rec := range ev.Added {
		k := rec.Key
		if rec.Violation.Key() != k {
			t.Fatalf("epoch %d: added record %s holds violation %s", ev.Epoch, k, rec.Violation.Key())
		}
		if set[k] {
			t.Fatalf("epoch %d: event adds %s which the subscriber already has", ev.Epoch, k)
		}
		set[k] = true
	}
}

// TestCommitEventDifferential drives seeded update streams through a
// session and checks that every commit's Event is the exact reconciled
// delta: replaying it onto the previous epoch's violation set yields the
// next epoch's set, on two profiles. The subtests keep the "parallel=false"
// suffix from when a second routing mode ran beside them, so their test ids
// do not change.
func TestCommitEventDifferential(t *testing.T) {
	for _, profile := range []gen.Profile{gen.YAGO2, gen.Pokec} {
		t.Run(profile.Name+"/parallel=false", func(t *testing.T) {
			ds := gen.Generate(profile, 160, 11)
			rules := gen.Rules(profile, gen.RuleConfig{Count: 8, MaxDiameter: 4, Seed: 11})
			sess := session.New(ds.G, rules, session.Options{})

			mirror := keySet(sess.Snapshot())
			for b := 0; b < 6; b++ {
				d := gen.RandomDelta(ds, gen.DeltaConfig{
					Size: gen.DeltaSize(ds.G, 0.05), Gamma: 1, Seed: int64(300*b + 7),
				})
				st := sess.Commit(d)
				if st.Event == nil {
					t.Fatalf("batch %d: no commit event", st.Batch)
				}
				if st.Event.Epoch != st.Batch {
					t.Fatalf("batch %d: event epoch %d", st.Batch, st.Event.Epoch)
				}
				if !sort.SliceIsSorted(st.Event.Added, func(i, j int) bool {
					return st.Event.Added[i].Key < st.Event.Added[j].Key
				}) {
					t.Fatalf("batch %d: Added not sorted by key", st.Batch)
				}
				applyEvent(t, mirror, st.Event)
				now := keySet(sess.Snapshot())
				if len(mirror) != len(now) {
					t.Fatalf("batch %d: replayed set has %d keys, store %d", st.Batch, len(mirror), len(now))
				}
				for k := range now {
					if !mirror[k] {
						t.Fatalf("batch %d: replayed set missing %s", st.Batch, k)
					}
				}
			}
			if err := sess.Recheck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCommitEventCoversAbsorbedNodes pins that violations found by the
// arriving-node absorption searches (isolated pattern slots — invisible to
// edge-driven pivots) ride the commit event too: the feed would silently
// diverge from the store without them.
func TestCommitEventCoversAbsorbedNodes(t *testing.T) {
	q := pattern.New()
	q.AddNode("x", "person")
	nonneg := core.MustNew("nonneg-age", q, nil, []core.Literal{
		core.Lit(expr.V("x", "age"), expr.Ge, expr.C(0)),
	})

	g := graph.New()
	ok := g.AddNode("person")
	g.SetAttr(ok, "age", graph.Int(30))
	sess := session.New(g, core.NewSet(nonneg), session.Options{})
	if sess.Len() != 0 {
		t.Fatalf("seed store: %d violations", sess.Len())
	}

	// a violating node arrives between commits
	bad := g.AddNode("person")
	g.SetAttr(bad, "age", graph.Int(-4))
	st := sess.Commit(nil)
	if st.Absorbed != 1 {
		t.Fatalf("Absorbed = %d, want 1", st.Absorbed)
	}
	if len(st.Event.Added) != 1 || len(st.Event.Removed) != 0 {
		t.Fatalf("event = +%d/−%d, want +1/−0", len(st.Event.Added), len(st.Event.Removed))
	}
	if got := st.Event.Added[0].Match[0]; got != bad {
		t.Fatalf("event binds node %d, want %d", got, bad)
	}
	if err := sess.Recheck(); err != nil {
		t.Fatal(err)
	}
}
