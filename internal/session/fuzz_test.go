package session_test

import (
	"strconv"
	"testing"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/paperdata"
	"ngd/internal/pattern"
	"ngd/internal/ref"
	"ngd/internal/session"
)

// The sequential commit derives ΔVio⁻ from the store invariant instead of
// re-establishing it beside the store, so a removal it missed would stay
// until the next Recheck. FuzzCommitSequence decodes its input into a short
// sequence of batches over the paper's merged example graph and holds every
// commit to the oracle.
//
// One byte selects an op (mod 8), the bytes after it are the op's operands,
// each reduced modulo the range it indexes; a truncated op ends the input.

const (
	fzCommit    = iota // end the batch and commit it
	fzInsert           // src dst label: insert an edge (may exist already)
	fzDelete           // src dst label: delete an edge (most likely absent)
	fzDeleteAt         // node i: delete the node's i-th out-edge
	fzBoth             // src dst label: insert and delete one edge in this batch
	fzArrive           // label val: a node arrives, with val·4096 set
	fzSetAttr          // node attr val: attribute op riding the batch; attr's top three bits pick the value's kind (fzValue)
	fzLoopOrDup        // node label: insert a self-loop; label ≥ 128 repeats the batch's last edge op
)

// fuzz bounds: a sequence that inserts every edge at one hub multiplies φ3's
// and φ4's matches, so it is kept short.
const (
	fzMaxOps     = 48
	fzMaxCommits = 6
)

var (
	fzEdgeLabels = []string{"partof", "population", "populationRank", "date", "keys", "status", "follower",
		"following", "femalePopulation", "malePopulation", "populationTotal", "wasCreatedOnDate",
		"wasDestroyedOnDate", "unused"}
	fzNodeLabels = []string{"integer", "date", "place", "account", "boolean", "company", "area", "institution"}
	fzAttrs      = []string{"val", "cap"}
)

// fzValue decodes a set-attribute op's value: an int in [-128, 127] unless
// the attr byte's top three bits ask for a string, a number written as a
// string, a far outlier or no value — the values the ¬Y cut must see uncovered or
// outside fzBandRule's band.
func fzValue(attr, val byte) graph.Value {
	switch attr >> 5 {
	case 2:
		return graph.Str("s")
	case 3:
		return graph.Str(strconv.Itoa(int(val)))
	case 4:
		return graph.Int((int64(val) - 128) << 44)
	case 5:
		return graph.Value{}
	}
	return graph.Int(int64(val) - 128)
}

// fzBandRule is the follower shape over G4's accounts: two accounts keyed
// to one company, whose follower counts differ by at most 2⁴⁰ — a band that
// holds every value but fzValue's outliers, so the ¬Y cut takes its branches
// whenever every follower edge's target holds an integer in it.
func fzBandRule() *core.NGD {
	q := pattern.New()
	x, y, w := q.AddNode("x", "account"), q.AddNode("y", "account"), q.AddNode("w", "company")
	a, b := q.AddNode("a", "integer"), q.AddNode("b", "integer")
	q.AddEdge(x, w, "keys")
	q.AddEdge(y, w, "keys")
	q.AddEdge(x, a, "follower")
	q.AddEdge(y, b, "follower")
	return core.MustNew("band", q, nil, []core.Literal{core.MustLiteral("abs(a.val - b.val) <= 1099511627776")})
}

func FuzzCommitSequence(f *testing.F) {
	// Node ids of the merged graph: 0–2 G1 (institution, two dates), 3–6 G2
	// (area, three integers), 7–14 G3 (California, Corona, Downey, census,
	// cPop, cRank, dPop, dRank), 15–23 G4 (company, real, fake, rs, rf, rg,
	// fs, ff, fg).
	for _, seed := range [][]byte{
		// delete φ1's and φ2's edges, then put φ1's back
		{fzDeleteAt, 0, 0, fzDeleteAt, 3, 1, fzCommit, fzInsert, 0, 1, 11, fzCommit},
		// one φ3 violation loses two of its edges in one batch; duplicates
		{fzDeleteAt, 8, 0, fzDeleteAt, 9, 0, fzLoopOrDup, 0, 200, fzDelete, 8, 7, 0, fzCommit},
		// insert+delete of one edge in one batch: a present edge, an absent
		// one, and delete-then-insert of a present one
		{fzBoth, 16, 15, 4, fzBoth, 16, 7, 4, fzBoth, 17, 15, 130, fzCommit},
		// a date arrives while an edge under "apart" goes; then an integer
		// arrives and gets a population edge in the same batch
		{fzArrive, 1, 200, fzDeleteAt, 8, 2, fzCommit, fzArrive, 0, 20, fzInsert, 9, 25, 1, fzCommit},
		// self-loops on a node without val and one with; the loop goes again
		{fzLoopOrDup, 7, 0, fzLoopOrDup, 11, 0, fzCommit, fzDelete, 7, 7, 0, fzCommit},
		// attribute ops beside a deletion: φ2 repaired by value (1 + 1 = 2),
		// φ4's fake account marked and one of its edges deleted in one batch
		{fzSetAttr, 4, 0, 129, fzSetAttr, 5, 0, 129, fzSetAttr, 6, 0, 130, fzCommit,
			fzSetAttr, 21, 0, 128, fzDeleteAt, 17, 0, fzCommit},
		// both clone classes violated by insertions: a self-loop on California
		// (no val) for loop and loop-renamed, then Corona's census-date edge
		// back after its deletion for φ3 and phi3-copy
		{fzLoopOrDup, 7, 0, fzDeleteAt, 8, 0, fzCommit, fzInsert, 8, 10, 3, fzCommit},
		// band: the fake account's follower count leaves the band and comes
		// back
		{fzSetAttr, 22, 0x80, 0x90, fzCommit, fzSetAttr, 22, 0, 130, fzCommit},
		// band: the real account's follower count turns into a string, a
		// number written as a string, then no value, while the fake account's keys
		// edge goes and comes back — each re-insertion's pivot binds a
		// follower count inside the band while an uncovered one waits across
		// the company
		{fzSetAttr, 19, 0x40, 0, fzDelete, 17, 15, 4, fzCommit, fzInsert, 17, 15, 4, fzCommit,
			fzSetAttr, 19, 0x60, 0, fzDelete, 17, 15, 4, fzCommit, fzInsert, 17, 15, 4, fzCommit,
			fzSetAttr, 19, 0xa0, 0, fzDelete, 17, 15, 4, fzCommit, fzInsert, 17, 15, 4, fzCommit},
		// band: a third account arrives, is keyed to the company and follows
		// an arriving count: all inside the band, so the cut takes it
		{fzArrive, 3, 0, fzArrive, 0, 9, fzCommit, fzInsert, 24, 15, 4, fzInsert, 24, 25, 6, fzCommit},
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g := paperdata.MergedGraph()
		rules := paperdata.ExtendedRules()
		rules.Add(fzBandRule())
		s := session.New(g, rules, session.Options{})
		syms := g.Symbols()
		prev := keySet(s.Snapshot())
		if got, want := ref.Keys(s.Violations()), ref.Keys(ref.Detect(g, rules)); got != want {
			t.Fatalf("seed store != reference\nstore:\n%s\nreference:\n%s", got, want)
		}

		// take reads the next n operand bytes, nil when the input ends first
		take := func(n int) []byte {
			if len(data) < n {
				data = nil
				return nil
			}
			b := data[:n]
			data = data[n:]
			return b
		}
		node := func(b byte) graph.NodeID { return graph.NodeID(int(b) % g.NumNodes()) }
		label := func(b byte) graph.LabelID { return syms.Label(fzEdgeLabels[int(b)%len(fzEdgeLabels)]) }

		d := &graph.Delta{}
		var attrs []graph.AttrOp
		commit := func() {
			st := s.CommitBatch(d, attrs)
			now := keySet(s.Snapshot())
			if got, want := ref.Keys(s.Violations()), ref.Keys(ref.Detect(g, rules)); got != want {
				t.Fatalf("commit %d (%v, %v): store != reference\nstore:\n%s\nreference:\n%s", st.Batch, d.Ops, attrs, got, want)
			}
			// the event is the exact difference of consecutive stores: every op
			// effective (applyEvent), nothing on both sides, and the result is
			// the new store
			for _, v := range st.Event.Removed {
				if now[v.Key()] {
					t.Fatalf("commit %d: event removes %s, which the store still holds", st.Batch, v.Key())
				}
			}
			applyEvent(t, prev, st.Event)
			if len(prev) != len(now) {
				t.Fatalf("commit %d: event replays to %d keys, store has %d", st.Batch, len(prev), len(now))
			}
			for k := range now {
				if !prev[k] {
					t.Fatalf("commit %d: event replay misses %s", st.Batch, k)
				}
			}
			if err := s.Recheck(); err != nil {
				t.Fatalf("commit %d: %v", st.Batch, err)
			}
			d, attrs = &graph.Delta{}, nil
		}

		commits := 0
		for ops := 0; ops < fzMaxOps && commits < fzMaxCommits; ops++ {
			op := take(1)
			if op == nil {
				break
			}
			switch kind := op[0] % 8; kind {
			case fzCommit:
				commit()
				commits++
			case fzInsert, fzDelete, fzBoth:
				b := take(3)
				if b == nil {
					break
				}
				// one op, or both with the label byte's high bit picking which
				// comes first
				e := graph.EdgeOp{Insert: kind == fzInsert || kind == fzBoth && b[2] < 128,
					Src: node(b[0]), Dst: node(b[1]), Label: label(b[2])}
				d.Ops = append(d.Ops, e)
				if kind == fzBoth {
					e.Insert = !e.Insert
					d.Ops = append(d.Ops, e)
				}
			case fzDeleteAt:
				if b := take(2); b != nil {
					if out := g.Out(node(b[0])); len(out) > 0 {
						h := out[int(b[1])%len(out)]
						d.Delete(node(b[0]), h.To, h.Label)
					}
				}
			case fzArrive:
				if b := take(2); b != nil {
					v := g.AddNode(fzNodeLabels[int(b[0])%len(fzNodeLabels)])
					g.SetAttr(v, "val", graph.Int(int64(b[1])<<12)) // up to the dates' day numbers
				}
			case fzSetAttr:
				if b := take(3); b != nil {
					attrs = append(attrs, graph.AttrOp{
						Node: node(b[0]),
						Attr: syms.Attr(fzAttrs[int(b[1])%len(fzAttrs)]),
						Val:  fzValue(b[1], b[2]),
					})
				}
			case fzLoopOrDup:
				b := take(2)
				if b == nil {
					break
				}
				if b[1] >= 128 && len(d.Ops) > 0 {
					d.Ops = append(d.Ops, d.Ops[len(d.Ops)-1])
				} else {
					d.Insert(node(b[0]), node(b[0]), label(b[1]))
				}
			}
		}
		if commits < fzMaxCommits {
			commit() // what the input left open, arrivals included
		}
	})
}
