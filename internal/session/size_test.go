package session_test

// A commit's work is its ΔG's, not its graph's: the paper's IncDect is
// localizable, and so must be what a commit pays to keep the indexes and the
// store. This test commits the same three kinds of batch on a 16k-node and a
// 128k-node yago2 graph, with and without a held fork, and holds every
// deterministic quantity to at most 1.5× between the sizes. Wall time is
// printed, never asserted.

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/session"
	"ngd/internal/sorted"
)

// sizeRow is one kind of commit measured at one size.
type sizeRow struct {
	bytes, cost float64 // per commit
	wall        time.Duration
}

// sizeCommits commits gen.SweepCommits on a session over gen.Sweep(n) and
// returns each kind's per-commit bytes, cost units and wall time, without
// and with a held fork, beside |V| and the attribute index's length.
func sizeCommits(n int) (rows map[string]sizeRow, nodes, indexed int) {
	ds, sigma := gen.Sweep(n)
	g := ds.G
	s := session.New(g, sigma, session.Options{})
	kinds := gen.SweepCommits(ds, rand.New(rand.NewSource(7)))
	const warm, measured = 4, 32
	rows = make(map[string]sizeRow)
	var m0, m1 runtime.MemStats
	for _, k := range kinds {
		for _, held := range []bool{false, true} {
			var row sizeRow
			for i := range warm + measured {
				d, ops := k.Next()
				var fork *graph.Graph
				if held {
					fork = g.Clone()
				}
				runtime.ReadMemStats(&m0)
				start := time.Now()
				st := s.CommitBatch(d, ops)
				wall := time.Since(start)
				runtime.ReadMemStats(&m1)
				if fork != nil {
					fork.Release()
				}
				if i >= warm {
					row.bytes += float64(m1.TotalAlloc-m0.TotalAlloc) / measured
					row.cost += st.Cost / measured
					row.wall += wall / measured
				}
			}
			name := k.Name
			if held {
				name += "/held-fork"
			}
			rows[name] = row
		}
	}
	syms := g.Symbols()
	return rows, g.NumNodes(), g.AttrIndexFor(syms.Label("integer"), syms.Attr("val")).Len()
}

// TestCommitCostFlatInGraphSize: each commit kind's bytes allocated and cost
// units at 128k nodes stay within 1.5× of the same commit's at 16k, with or
// without a fork held across it. Two terms grow with the graph by design and
// are allowed on top, each with its constant: a write beside a held fork may
// copy the graph's page tables (three of them, one pointer per 256 nodes)
// and each index's top level (a slice header and an offset per chunk of
// sorted.Bound entries, two indexes).
func TestCommitCostFlatInGraphSize(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 128k-node graph")
	}
	small, _, _ := sizeCommits(2_000)
	large, nodes, indexed := sizeCommits(16_000)
	const (
		pageTables = 3 * 8  // bytes per 256 nodes
		topLevel   = 2 * 32 // bytes per chunk of index entries
	)
	allowance := float64(nodes/256*pageTables + (indexed/sorted.Bound+1)*topLevel)
	for _, name := range []string{"edge", "edge/held-fork", "arrival", "arrival/held-fork", "setattr", "setattr/held-fork"} {
		s, l := small[name], large[name]
		t.Logf("%-18s 16k: %8.0f B %7.1f units %8v   128k: %8.0f B %7.1f units %8v",
			name, s.bytes, s.cost, s.wall, l.bytes, l.cost, l.wall)
		if l.bytes > 1.5*s.bytes+allowance {
			t.Errorf("%s: %.0f B per commit at 128k nodes, %.0f at 16k (budget %.0f)", name, l.bytes, s.bytes, 1.5*s.bytes+allowance)
		}
		if l.cost > 1.5*s.cost {
			t.Errorf("%s: %.1f cost units per commit at 128k nodes, %.1f at 16k", name, l.cost, s.cost)
		}
	}
}
