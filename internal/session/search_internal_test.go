package session

import (
	"testing"

	"ngd/internal/detect"
	"ngd/internal/gen"
	"ngd/internal/plan"
)

// TestSearcherCacheHoldsOneWalkerPerKey: under ChurnThreshold 1 nearly every
// commit rebuilds the plans its searches draw, and with them their chains.
// The session's searcher cache must replace a walker whose chain went
// stale, not keep it beside the new one: after the stream it holds at most
// one walker per (rule, slots, side) key the commits can search — pivot
// searches on the ΔVio⁺ side, one-slot searches from arrivals and
// attribute changes.
func TestSearcherCacheHoldsOneWalkerPerKey(t *testing.T) {
	w := gen.Workload{Profile: gen.YAGO2, Entities: 150, Rules: 8, Seed: 5,
		BatchFrac: 0.06, NodeRule: true, LitPaths: true}
	ds := w.Dataset()
	s := New(ds.G, w.Sigma(), Options{Plan: plan.Options{ChurnThreshold: 1}})
	commits := 40
	for b := range commits {
		s.CommitBatch(w.Delta(ds, b), w.AttrOps(ds, b))
	}
	keys := make(map[detect.SearcherKey]bool)
	for _, r := range s.rules.Rules {
		for _, e := range r.Pattern.Edges {
			keys[detect.EdgeSlotKey(r, e.Src, e.Dst, true)] = true
		}
		for slot := range r.Pattern.Nodes {
			keys[detect.SlotKey(r, slot)] = true
		}
	}
	walkers := s.search.Searchers.Len()
	if inv := s.PlanStats().Invalidations; inv < int64(commits) || walkers == 0 {
		t.Fatalf("vacuous: %d plan invalidations over %d commits, %d cached walkers", inv, commits, walkers)
	}
	if walkers > len(keys) {
		t.Fatalf("the searcher cache holds %d walkers for %d keys: stale walkers leak", walkers, len(keys))
	}
	t.Logf("%d walkers for %d keys", walkers, len(keys))
}
