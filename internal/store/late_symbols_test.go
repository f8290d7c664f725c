package store_test

// Late-symbol differential: a session compiles Σ once, so a rule whose edge
// label or attribute name the graph has not seen yet at session open must
// still fire once a later batch introduces it — live, and in a session
// rebuilt by recovery before the symbol arrived.
// Ground truth is the brute-force oracle after every commit.

import (
	"sort"
	"strings"
	"testing"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/pattern"
	"ngd/internal/ref"
	"ngd/internal/session"
	"ngd/internal/store"
)

// TestLateSymbolsDifferential keeps its "seq" subtest from when a parallel
// session route ran beside it, so its test id does not change.
func TestLateSymbolsDifferential(t *testing.T) {
	t.Run("seq", runLateSymbols)
}

func runLateSymbols(t *testing.T) {
	// eight accounts with a balance, chained by "pays" edges; neither the
	// edge label "audits" nor the attribute "risk" exists anywhere yet
	g := graph.New()
	var accts []graph.NodeID
	for i := 0; i < 8; i++ {
		a := g.AddNode("acct")
		g.SetAttr(a, "bal", graph.Int(int64(50*i)))
		accts = append(accts, a)
	}
	for i := 0; i+1 < len(accts); i++ {
		g.AddEdge(accts[i], accts[i+1], "pays")
	}
	audited := pattern.New()
	audited.AddEdge(audited.AddNode("a", "acct"), audited.AddNode("b", "acct"), "audits")
	chain := pattern.New()
	a, b, c := chain.AddNode("a", "acct"), chain.AddNode("b", "acct"), chain.AddNode("c", "acct")
	chain.AddEdge(a, b, "pays")
	chain.AddEdge(b, c, "pays")
	rules := core.NewSet(
		// late edge label: an audited account must hold at least 200
		core.MustNew("late-label", audited, nil,
			[]core.Literal{core.MustLiteral("b.bal >= 200")}),
		// late attribute, in the constant shape the planner compiles into a
		// candidate filter: two hops downstream of a risky payer, an account
		// must hold at least 200
		core.MustNew("late-attr", chain,
			[]core.Literal{core.MustLiteral("a.risk = 1")},
			[]core.Literal{core.MustLiteral("c.bal >= 200")}),
	)

	opts := store.Options{}
	dir := t.TempDir()
	st, _, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess := session.New(g, rules, opts.Session)
	if err := st.Bootstrap(sess, rules, nil); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, sess *session.Session) map[string]int {
		t.Helper()
		byRule := map[string]int{}
		var want, got []string
		for _, v := range ref.Detect(sess.Graph(), rules) {
			want = append(want, v.Key())
			byRule[v.Rule.Name]++
		}
		for _, v := range sess.Violations() {
			got = append(got, v.Key())
		}
		sort.Strings(want)
		if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
			t.Fatalf("%s: store != Vio(Σ,G)\nstore:\n%s\nreference:\n%s", stage, g, w)
		}
		return byRule
	}
	commit := func(stage string, sess *session.Session, d *graph.Delta, attrs []graph.AttrOp) {
		t.Helper()
		if bs := sess.CommitBatch(d, attrs); bs.LogErr != nil {
			t.Fatalf("%s: WAL append failed: %v", stage, bs.LogErr)
		}
	}

	// batch 1: known symbols only
	check("seed", sess)
	d1 := &graph.Delta{}
	d1.Insert(accts[7], accts[0], g.Symbols().Label("pays"))
	commit("batch 1", sess, d1, nil)
	check("batch 1", sess)

	// crash and recover before the late symbols arrive: the restored
	// session compiles Σ against a graph that still lacks them
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, rec, err := store.Open(dir, opts)
	if err != nil || rec == nil {
		t.Fatalf("recover: %v (recovered=%v)", err, rec != nil)
	}
	sess = rec.Session
	check("recovered", sess)

	// batch 2: "audits" edges and "risk" values appear for the first time
	rg := sess.Graph()
	d2 := &graph.Delta{}
	audits := rg.Symbols().Label("audits")
	d2.Insert(accts[5], accts[1], audits) // bal 50: violates
	d2.Insert(accts[5], accts[6], audits) // bal 300: holds
	risk := rg.Symbols().Attr("risk")
	commit("batch 2", sess, d2, []graph.AttrOp{
		{Node: accts[0], Attr: risk, Val: graph.Int(1)}, // 0→1→2 (bal 100): violates
		{Node: accts[4], Attr: risk, Val: graph.Int(1)}, // 4→5→6 (bal 300): holds
		{Node: accts[2], Attr: risk, Val: graph.Int(0)},
	})
	check("batch 2", sess)

	// batch 3: an edge whose pivot binds only b and c, so the risky payer a
	// is reached by the matcher — through the compiled a.risk filter
	d3 := &graph.Delta{}
	d3.Insert(accts[1], accts[3], rg.Symbols().Label("pays")) // 0→1→3 (bal 150): violates
	commit("batch 3", sess, d3, nil)
	if by := check("batch 3", sess); by["late-label"] != 1 || by["late-attr"] != 2 {
		t.Fatalf("reference violations by rule = %v, want late-label 1, late-attr 2", by)
	}

	// and the batches that introduced and used them replay through a second
	// recovery
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, rec, err = store.Open(dir, opts)
	if err != nil || rec == nil {
		t.Fatalf("second recover: %v (recovered=%v)", err, rec != nil)
	}
	defer st.Close()
	check("replayed", rec.Session)
}
