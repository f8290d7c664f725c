package session_test

import (
	"fmt"
	"testing"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/plan"
	"ngd/internal/session"
)

// searchCountersGolden pins the work counters of every sequential search on
// a few rows of the differential table: Dect on the row's graph, IncDect on
// each batch of its stream against the graph before that batch, and the
// stream's session commits summed, once over the warm plan cache and once
// replanning on every lookup (ChurnThreshold 1), then the one-slot searches
// inc.Attr runs from every node that arrived during the stream (the seeded
// search absorption and the repair preview run too). BatchStats.Cost, the fig4
// series and the golden tables elsewhere are built from these counters, so
// a change to how a search runs that moves any of them moves this table.
// Captured from the running code and pasted here; a refactor of the search
// must leave it as it is.
var searchCountersGolden = map[string]string{
	"dbpedia/seed1":                "dect 1673/20/1/1217 inc 167/2/53/60 pivots 268 | cost 113 pivots 143 cuts 24 plus 31 minus 4 absorbed 0 attr +0 -0 plan 25/16/0 | seeded 80: 265/0/14/196 gone 0 found 14",
	"dbpedia/seed1/churn1":         "dect 1673/20/1/1217 inc 167/2/53/60 pivots 268 | cost 113 pivots 143 cuts 24 plus 31 minus 4 absorbed 0 attr +0 -0 plan 3/16/22 | seeded 80: 265/0/14/196 gone 0 found 14",
	"pokec/seed2/noprune":          "dect 813/12/0/640 inc 86/0/28/28 pivots 136 | cost 71 pivots 71 cuts 8 plus 17 minus 1 absorbed 0 attr +0 -0 plan 23/14/0 | seeded 32: 101/0/6/89 gone 0 found 6",
	"pokec/seed2/noprune/churn1":   "dect 813/12/0/640 inc 86/0/28/28 pivots 136 | cost 71 pivots 71 cuts 8 plus 17 minus 1 absorbed 0 attr +0 -0 plan 2/14/21 | seeded 32: 101/0/6/89 gone 0 found 6",
	"yago2/seed5/noderule":         "dect 1550/26/47/1003 inc 198/6/47/58 pivots 287 | cost 116 pivots 150 cuts 30 plus 28 minus 2 absorbed 0 attr +0 -0 plan 29/18/0 | seeded 88: 261/0/16/196 gone 0 found 16",
	"yago2/seed5/noderule/churn1":  "dect 1550/26/47/1003 inc 198/6/47/58 pivots 287 | cost 116 pivots 150 cuts 30 plus 28 minus 2 absorbed 0 attr +0 -0 plan 3/18/26 | seeded 88: 261/0/16/196 gone 0 found 16",
	"yago2/seed10/litpaths":        "dect 4015/30/67/1443 inc 491/6/101/53 pivots 563 | cost 289 pivots 292 cuts 294 plus 59 minus 17 absorbed 0 attr +3 -0 plan 57/25/0 | seeded 72: 535/0/30/184 gone 0 found 30",
	"yago2/seed10/litpaths/churn1": "dect 4015/30/67/1443 inc 491/6/101/53 pivots 563 | cost 289 pivots 292 cuts 294 plus 59 minus 17 absorbed 0 attr +3 -0 plan 21/25/36 | seeded 72: 537/0/30/184 gone 0 found 30",
	"yago2/seed11/band":            "dect 6131/24/686/76 inc 3852/5/338/44 pivots 521 | cost 2909 pivots 253 cuts 298 plus 68 minus 220 absorbed 0 attr +334 -496 plan 63/21/0 | seeded 112: 494/0/28/44 gone 0 found 28",
	"yago2/seed11/band/churn1":     "dect 6131/24/686/76 inc 3852/5/338/44 pivots 521 | cost 1651 pivots 253 cuts 36 plus 68 minus 220 absorbed 0 attr +334 -496 plan 20/21/43 | seeded 112: 438/0/28/44 gone 0 found 28",
}

// rowCounters renders one row's counters (see searchCountersGolden).
func rowCounters(w gen.Workload, po plan.Options) string {
	ds := w.Dataset()
	rules := w.Sigma()
	dect := detect.Dect(ds.G, rules, detect.Options{}).Counters
	s := session.New(ds.G, rules, session.Options{Plan: po})
	before := ds.G.NumNodes()
	var incSum struct {
		c      [4]int
		pivots int
	}
	var sum session.BatchStats
	for b := 0; b < w.Batches; b++ {
		delta := w.Delta(ds, b)
		r := inc.IncDect(ds.G, s.Rules(), delta, inc.Options{})
		incSum.c[0] += r.Counters.Candidates
		incSum.c[1] += r.Counters.Checks
		incSum.c[2] += r.Counters.Matches
		incSum.c[3] += r.Counters.Cuts
		incSum.pivots += r.Pivots
		st := s.CommitBatch(delta, w.AttrOps(ds, b))
		sum.Cost += st.Cost
		sum.Pivots += st.Pivots
		sum.Cuts += st.Cuts
		sum.Plus += st.Plus
		sum.Minus += st.Minus
		sum.Absorbed += st.Absorbed
		sum.AttrPlus += st.AttrPlus
		sum.AttrMinus += st.AttrMinus
		sum.PlanHits += st.PlanHits
		sum.PlanMisses += st.PlanMisses
		sum.PlanInvalidations += st.PlanInvalidations
	}
	var arrived []graph.NodeID
	for n := before; n < ds.G.NumNodes(); n++ {
		arrived = append(arrived, graph.NodeID(n))
	}
	var gone, found int
	seeded := inc.Attr(ds.G, s.Rules(), s.Snapshot(), arrived, inc.Reusing(s.Program()),
		func(string, core.Violation) { gone++ },
		func(*core.NGD, core.Match) { found++ })
	return fmt.Sprintf("dect %d/%d/%d/%d inc %d/%d/%d/%d pivots %d | "+
		"cost %g pivots %d cuts %d plus %d minus %d absorbed %d attr +%d -%d plan %d/%d/%d | "+
		"seeded %d: %d/%d/%d/%d gone %d found %d",
		dect.Candidates, dect.Checks, dect.Matches, dect.Cuts,
		incSum.c[0], incSum.c[1], incSum.c[2], incSum.c[3], incSum.pivots,
		sum.Cost, sum.Pivots, sum.Cuts, sum.Plus, sum.Minus, sum.Absorbed,
		sum.AttrPlus, sum.AttrMinus, sum.PlanHits, sum.PlanMisses, sum.PlanInvalidations,
		len(arrived), seeded.Candidates, seeded.Checks, seeded.Matches, seeded.Cuts, gone, found)
}

// TestSearchCountersGolden holds the rows named in searchCountersGolden to
// their pasted counters: a plain row, an unprunable one, the arrival
// (NodeRule) row, the literal-path row with its attribute ops and the ¬Y cut
// (band) row.
func TestSearchCountersGolden(t *testing.T) {
	rows := map[string]bool{
		"dbpedia/seed1":         true,
		"pokec/seed2/noprune":   true,
		"yago2/seed5/noderule":  true,
		"yago2/seed10/litpaths": true,
		"yago2/seed11/band":     true,
	}
	seen := 0
	for _, w := range gen.Workloads() {
		if !rows[w.Name()] {
			continue
		}
		seen++
		for _, cold := range []bool{false, true} {
			name, po := w.Name(), plan.Options{}
			if cold {
				name, po = name+"/churn1", plan.Options{ChurnThreshold: 1}
			}
			got := rowCounters(w, po)
			if want := searchCountersGolden[name]; got != want {
				t.Errorf("%s:\n got  %s\n want %s", name, got, want)
			}
		}
	}
	if seen != len(rows) {
		t.Fatalf("%d of the %d golden rows are in gen.Workloads()", seen, len(rows))
	}
}
