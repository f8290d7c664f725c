package session_test

import (
	"testing"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/pattern"
	"ngd/internal/session"
)

// TestSnapshotIsolation: a snapshot taken before a commit must be
// untouched by it — same epoch, same violations — while the post-commit
// snapshot reflects the new store.
func TestSnapshotIsolation(t *testing.T) {
	ds, rules := mkStreamWorkload(t, gen.YAGO2, 200, 8, 21)
	s := session.New(ds.G, rules, session.Options{})

	before := s.Snapshot()
	if before.Epoch != 0 {
		t.Fatalf("seed snapshot epoch %d, want 0", before.Epoch)
	}
	if before.Len() != s.Len() {
		t.Fatalf("seed snapshot len %d != store %d", before.Len(), s.Len())
	}
	beforeKeys := make([]string, before.Len())
	for i, v := range before.Violations() {
		beforeKeys[i] = v.Key()
	}

	d := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.1), Gamma: 1, Seed: 22})
	st := s.Commit(d)

	// the old epoch is immutable
	if before.Epoch != 0 || before.Len() != len(beforeKeys) {
		t.Fatal("published snapshot mutated by Commit")
	}
	for i, v := range before.Violations() {
		if v.Key() != beforeKeys[i] {
			t.Fatalf("snapshot violation %d changed after Commit", i)
		}
	}

	after := s.Snapshot()
	if after.Epoch != 1 {
		t.Fatalf("post-commit snapshot epoch %d, want 1", after.Epoch)
	}
	if after.Len() != st.StoreSize {
		t.Fatalf("post-commit snapshot len %d != StoreSize %d", after.Len(), st.StoreSize)
	}
	// cached until the next commit
	if s.Snapshot() != after {
		t.Error("repeated Snapshot() rebuilt the same epoch")
	}
	// keyed lookup agrees with the store
	for _, v := range after.Violations() {
		got, ok := after.Get(v.Key())
		if !ok || got.Key() != v.Key() {
			t.Fatalf("snapshot Get(%q) missing", v.Key())
		}
	}
	if _, ok := after.Get("no-such-violation:0"); ok {
		t.Error("snapshot Get returned a violation for a bogus key")
	}
}

// TestSnapshotSizesAreAsOfCommit: Nodes and Edges are captured by the commit
// that produced the epoch. A node that reaches the graph after it belongs to
// the next epoch, whenever Snapshot() happens to be called.
func TestSnapshotSizesAreAsOfCommit(t *testing.T) {
	ds, rules := mkStreamWorkload(t, gen.YAGO2, 120, 4, 61)
	s := session.New(ds.G, rules, session.Options{})
	s.Commit(nil)
	nodes := ds.G.NumNodes()
	ds.G.AddNode("late")
	if sn := s.Snapshot(); sn.Epoch != 1 || sn.Nodes != nodes {
		t.Fatalf("epoch %d counts %d nodes, want the %d it committed over", sn.Epoch, sn.Nodes, nodes)
	}
	s.Commit(nil)
	if sn := s.Snapshot(); sn.Epoch != 2 || sn.Nodes != nodes+1 {
		t.Fatalf("epoch %d counts %d nodes, want %d", sn.Epoch, sn.Nodes, nodes+1)
	}
}

// TestPublishAllocsIndependentOfStoreSize: publishing an effective commit
// (Δ = 16 violations) allocates one record per added violation and one
// posting per touched node, but no object per stored violation — the same
// ceiling holds over a store of 1k and of 20k. A per-epoch rebuild (keys
// slice, sort, key→position map) does not fit it, nor do postings that
// copy their violations.
func TestPublishAllocsIndependentOfStoreSize(t *testing.T) {
	q := pattern.New()
	q.AddNode("x", "item")
	rule := core.MustNew("cap", q, nil, []core.Literal{core.Lit(expr.V("x", "val"), expr.Le, expr.C(10))})
	measure := func(size int) float64 {
		g := graph.New()
		for i := 0; i < size+16; i++ {
			g.SetAttr(g.AddNode("item"), "val", graph.Int(20))
		}
		s := session.New(g, core.NewSet(rule), session.Options{})
		val := g.Symbols().Attr("val")
		flip := func(to int64) { // the first 16 items: all fixed, or all broken again
			ops := make([]graph.AttrOp, 16)
			for i := range ops {
				ops[i] = graph.AttrOp{Node: graph.NodeID(i), Attr: val, Val: graph.Int(to)}
			}
			if st := s.CommitBatch(nil, ops); len(st.Event.Added)+len(st.Event.Removed) != 16 {
				t.Fatalf("commit changed %d violations, want 16", len(st.Event.Added)+len(st.Event.Removed))
			}
			s.Snapshot()
		}
		flip(1)
		flip(20) // warm: plans, searchers
		if s.Len() != size+16 {
			t.Fatalf("store holds %d, want %d", s.Len(), size+16)
		}
		to := int64(20)
		return testing.AllocsPerRun(10, func() {
			to = 21 - to
			flip(to)
		})
	}
	small, large := measure(1_000), measure(20_000)
	t.Logf("allocs per effective commit: %.0f at 1k, %.0f at 20k", small, large)
	// 77 and 103 measured with postings of shared records; 127 and 153 when
	// each posting copied its violations, 211 and 275 with the per-epoch
	// rebuild before that
	const ceiling = 125
	if small > ceiling || large > ceiling {
		t.Fatalf("publishing allocated %.0f objects at |Vio|=1k and %.0f at 20k, ceiling %d", small, large, ceiling)
	}
}
