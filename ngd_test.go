package ngd_test

import (
	"strings"
	"testing"

	"ngd"
)

const quickRules = `
rule sum {
  match {
    x: area
    f: integer
    m: integer
    t: integer
    x -female-> f
    x -male-> m
    x -total-> t
  }
  when {
  }
  then {
    f.val + m.val = t.val
  }
}
`

func buildArea(g *ngd.Graph, f, m, tot int64) ngd.NodeID {
	area := g.AddNode("area")
	fn := g.AddNode("integer")
	g.SetAttr(fn, "val", ngd.Int(f))
	mn := g.AddNode("integer")
	g.SetAttr(mn, "val", ngd.Int(m))
	tn := g.AddNode("integer")
	g.SetAttr(tn, "val", ngd.Int(tot))
	g.AddEdge(area, fn, "female")
	g.AddEdge(area, mn, "male")
	g.AddEdge(area, tn, "total")
	return area
}

func TestPublicAPIBatch(t *testing.T) {
	g := ngd.NewGraph()
	buildArea(g, 600, 722, 1322) // consistent
	bad := buildArea(g, 600, 722, 1572)

	rules, err := ngd.ParseRules(strings.NewReader(quickRules))
	if err != nil {
		t.Fatal(err)
	}
	if ngd.Validate(g, rules) {
		t.Fatal("inconsistent graph validated")
	}
	res := ngd.Detect(g, rules)
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %d, want 1", len(res.Violations))
	}
	v := res.Violations[0]
	if v.Match[v.Rule.Pattern.VarIndex("x")] != bad {
		t.Error("wrong entity flagged")
	}
	if got := ngd.DetectLimit(g, rules, 1); len(got.Violations) != 1 {
		t.Error("DetectLimit mismatch")
	}
}

func TestPublicAPIIncremental(t *testing.T) {
	g := ngd.NewGraph()
	buildArea(g, 1, 2, 3)
	rules, err := ngd.ParseRules(strings.NewReader(quickRules))
	if err != nil {
		t.Fatal(err)
	}

	// a new inconsistent area arrives via ΔG
	area := g.AddNode("area")
	fn := g.AddNode("integer")
	g.SetAttr(fn, "val", ngd.Int(10))
	mn := g.AddNode("integer")
	g.SetAttr(mn, "val", ngd.Int(20))
	tn := g.AddNode("integer")
	g.SetAttr(tn, "val", ngd.Int(99))
	d := &ngd.Delta{}
	d.Insert(area, fn, g.Symbols().Label("female"))
	d.Insert(area, mn, g.Symbols().Label("male"))
	d.Insert(area, tn, g.Symbols().Label("total"))

	dv := ngd.IncDetect(g, rules, d)
	if len(dv.Plus) != 1 || len(dv.Minus) != 0 {
		t.Fatalf("ΔVio = +%d/-%d, want +1/-0", len(dv.Plus), len(dv.Minus))
	}
	// parallel agrees
	pdv, met := ngd.PIncDetect(g, rules, d, ngd.Parallel(4))
	if len(pdv.Plus) != 1 || len(pdv.Minus) != 0 {
		t.Fatal("PIncDetect disagrees")
	}
	if met.Units == 0 {
		t.Error("metrics not populated")
	}
	// batch parallel on the updated view
	d.Apply(g)
	pres, _ := ngd.PDetect(g, rules, ngd.Parallel(4))
	if len(pres.Violations) != 1 {
		t.Fatalf("PDetect after apply: %d violations", len(pres.Violations))
	}
}

func TestPublicAPIReasoning(t *testing.T) {
	q1 := ngd.NewPattern()
	q1.AddNode("x", "_")
	r1 := ngd.MustRule("a", q1, nil, []ngd.Literal{ngd.MustLiteral("x.v = 7")})
	q2 := ngd.NewPattern()
	q2.AddNode("x", "_")
	r2 := ngd.MustRule("b", q2, nil, []ngd.Literal{ngd.MustLiteral("x.v = 8")})

	if v, err := ngd.Satisfiable(ngd.NewRuleSet(r1)); err != nil || v != ngd.Yes {
		t.Fatalf("single rule satisfiable: %v %v", v, err)
	}
	if v, err := ngd.Satisfiable(ngd.NewRuleSet(r1, r2)); err != nil || v != ngd.No {
		t.Fatalf("conflicting rules: %v %v", v, err)
	}
	if v, err := ngd.StronglySatisfiable(ngd.NewRuleSet(r1)); err != nil || v != ngd.Yes {
		t.Fatalf("strong: %v %v", v, err)
	}
	q3 := ngd.NewPattern()
	q3.AddNode("x", "_")
	weaker := ngd.MustRule("c", q3, nil, []ngd.Literal{ngd.MustLiteral("x.v >= 7")})
	if v, err := ngd.Implies(ngd.NewRuleSet(r1), weaker); err != nil || v != ngd.Yes {
		t.Fatalf("implication: %v %v", v, err)
	}
}

func TestPublicAPIGraphIO(t *testing.T) {
	g := ngd.NewGraph()
	buildArea(g, 5, 6, 11)
	var sb strings.Builder
	if err := ngd.WriteGraph(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, ids, err := ngd.LoadGraph(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || len(ids) != g.NumNodes() {
		t.Fatal("graph IO round trip failed")
	}
	rules, _ := ngd.ParseRules(strings.NewReader(quickRules))
	if !ngd.Validate(g2, rules) {
		t.Error("consistent graph failed validation after round trip")
	}
	// rule formatting round-trips
	again, err := ngd.ParseRules(strings.NewReader(ngd.FormatRules(rules)))
	if err != nil || again.Len() != rules.Len() {
		t.Fatalf("rule format round trip: %v", err)
	}
}

func TestPublicAPISession(t *testing.T) {
	g := ngd.NewGraph()
	buildArea(g, 600, 722, 1322) // consistent
	bad := buildArea(g, 600, 722, 1572)
	rules, err := ngd.ParseRules(strings.NewReader(quickRules))
	if err != nil {
		t.Fatal(err)
	}

	s := ngd.NewSession(g, rules, ngd.SessionOptions{})
	if s.Len() != 1 {
		t.Fatalf("seeded store = %d, want 1", s.Len())
	}

	// repair the bad area by rewiring its total to a correct node
	totLbl := g.Symbols().Label("total")
	var oldTot ngd.NodeID = -1
	for _, h := range g.Out(bad) {
		if h.Label == totLbl {
			oldTot = h.To
		}
	}
	fixed := g.AddNode("integer")
	g.SetAttr(fixed, "val", ngd.Int(1322))
	d := &ngd.Delta{}
	d.Delete(bad, oldTot, totLbl)
	d.Insert(bad, fixed, totLbl)
	st := s.Commit(d)
	if st.Minus != 1 || st.Plus != 0 || s.Len() != 0 {
		t.Fatalf("commit stats %+v, store %d; want the violation repaired away", st, s.Len())
	}
	if got := ngd.Detect(s.Graph(), rules); len(got.Violations) != 0 {
		t.Fatalf("graph still violates after in-place commit: %d", len(got.Violations))
	}
}

func TestPublicAPIServe(t *testing.T) {
	g := ngd.NewGraph()
	buildArea(g, 600, 722, 1322) // consistent
	buildArea(g, 600, 722, 1572) // violating
	rules, err := ngd.ParseRules(strings.NewReader(quickRules))
	if err != nil {
		t.Fatal(err)
	}

	sess := ngd.NewSession(g, rules, ngd.SessionOptions{})
	srv := ngd.Serve(sess, ngd.ServeOptions{})
	defer srv.Close()

	sn := srv.Snapshot()
	if sn.Epoch != 0 || sn.Len() != 1 {
		t.Fatalf("seed snapshot: epoch %d, %d violations; want 0, 1", sn.Epoch, sn.Len())
	}
	key := sn.Violations()[0].Key()
	if _, ok := sn.Get(key); !ok {
		t.Fatal("snapshot Get missed a listed violation")
	}

	// a third, violating area arrives through the ingest queue: a node
	// star plus its edges, referencing nodes by registered and numeric ids
	done, err := srv.Enqueue([]ngd.UpdateOp{
		{Op: "node", ID: "area3", Label: "area"},
		{Op: "node", ID: "f3", Label: "integer", Attrs: map[string]any{"val": 1}},
		{Op: "node", ID: "m3", Label: "integer", Attrs: map[string]any{"val": 2}},
		{Op: "node", ID: "t3", Label: "integer", Attrs: map[string]any{"val": 5}},
		{Op: "insert", Src: "area3", Dst: "f3", Label: "female"},
		{Op: "insert", Src: "area3", Dst: "m3", Label: "male"},
		{Op: "insert", Src: "area3", Dst: "t3", Label: "total"},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done.Done()
	sn2 := srv.Snapshot()
	if sn2.Epoch != 1 || sn2.Len() != 2 {
		t.Fatalf("post-commit snapshot: epoch %d, %d violations; want 1, 2", sn2.Epoch, sn2.Len())
	}
	// the old snapshot is untouched
	if sn.Epoch != 0 || sn.Len() != 1 {
		t.Fatal("published snapshot mutated by a commit")
	}
	if st := srv.Stats(); st.Commits != 1 || st.StoreSize != 2 {
		t.Fatalf("server stats: %+v", st)
	}
}

func TestPublicAPIDurableStore(t *testing.T) {
	dir := t.TempDir()
	g := ngd.NewGraph()
	buildArea(g, 600, 722, 1322) // consistent
	buildArea(g, 600, 722, 1572) // violating
	rules, err := ngd.ParseRules(strings.NewReader(quickRules))
	if err != nil {
		t.Fatal(err)
	}

	// first boot: nothing to recover, bootstrap and serve durably
	st, rec, err := ngd.Open(dir, ngd.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatal("fresh directory reported recoverable state")
	}
	sess := ngd.NewSession(g, rules, ngd.SessionOptions{})
	names := make(map[string]ngd.NodeID)
	if err := st.Bootstrap(sess, rules, names); err != nil {
		t.Fatal(err)
	}
	srv := ngd.Serve(sess, ngd.ServeOptions{
		Names:       names,
		OnNewNode:   st.NoteName,
		AfterCommit: func(bs ngd.BatchStats) { st.MaybeCheckpoint() },
	})
	done, err := srv.Enqueue([]ngd.UpdateOp{
		{Op: "node", ID: "area3", Label: "area"},
		{Op: "node", ID: "f3", Label: "integer", Attrs: map[string]any{"val": 1}},
		{Op: "node", ID: "m3", Label: "integer", Attrs: map[string]any{"val": 2}},
		{Op: "node", ID: "t3", Label: "integer", Attrs: map[string]any{"val": 5}},
		{Op: "insert", Src: "area3", Dst: "f3", Label: "female"},
		{Op: "insert", Src: "area3", Dst: "m3", Label: "male"},
		{Op: "insert", Src: "area3", Dst: "t3", Label: "total"},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done.Done()
	wantKeys := make([]string, 0, 2)
	for _, v := range srv.Snapshot().Violations() {
		wantKeys = append(wantKeys, v.Key())
	}
	srv.Close()
	if err := st.Close(); err != nil { // crash: no final checkpoint
		t.Fatal(err)
	}
	if ss := st.Stats(); ss.Batches != 1 || ss.Seq != 1 {
		t.Fatalf("store stats after one batch: %+v", ss)
	}

	// second boot: recovery reproduces the store and the id map
	st2, rec2, err := ngd.Open(dir, ngd.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec2 == nil {
		t.Fatal("nothing recovered")
	}
	if rec2.Replayed != 1 {
		t.Errorf("replayed %d batches, want 1", rec2.Replayed)
	}
	vios := rec2.Session.Violations()
	if len(vios) != len(wantKeys) {
		t.Fatalf("recovered %d violations, want %d", len(vios), len(wantKeys))
	}
	for i, v := range vios {
		if v.Key() != wantKeys[i] {
			t.Fatalf("violation %d = %s, want %s", i, v.Key(), wantKeys[i])
		}
	}
	if _, ok := rec2.Names["area3"]; !ok {
		t.Fatal("external id area3 lost in recovery")
	}
	if err := ngd.Checkpoint(st2); err != nil {
		t.Fatal(err)
	}
	if ss := st2.Stats(); ss.SnapshotSeq != 1 || ss.Checkpoints != 1 {
		t.Fatalf("store stats after checkpoint: %+v", ss)
	}
}

func TestPublicAPIProgram(t *testing.T) {
	g := ngd.NewGraph()
	buildArea(g, 600, 722, 1322)
	bad := buildArea(g, 1, 2, 4)
	rules, err := ngd.ParseRules(strings.NewReader(quickRules))
	if err != nil {
		t.Fatal(err)
	}
	prog := ngd.NewProgram(g, rules, ngd.PlanOptions{})
	res1 := ngd.DetectWith(g, rules, prog, 0)
	res2 := ngd.DetectWith(g, rules, prog, 0)
	if len(res1.Violations) != 1 || len(res2.Violations) != 1 {
		t.Fatalf("violations = %d / %d, want 1 each", len(res1.Violations), len(res2.Violations))
	}
	v := res1.Violations[0]
	if v.Match[v.Rule.Pattern.VarIndex("x")] != bad {
		t.Error("wrong entity flagged")
	}
	c := prog.Counters()
	if c.Hits == 0 {
		t.Fatalf("second DetectWith run produced no plan-cache hits: %+v", c)
	}
	if got := ngd.DetectWith(g, rules, prog, 1); len(got.Violations) != 1 {
		t.Error("DetectWith limit mismatch")
	}

	// sessions surface the same program and its per-batch counters
	sess := ngd.NewSession(g, rules, ngd.SessionOptions{})
	if sess.Program() == nil {
		t.Fatal("session has no program")
	}
	var ps ngd.PlanCounters = sess.PlanStats()
	if ps.Rules == 0 {
		t.Fatal("session program compiled no rules")
	}
}

func TestPublicAPIAnalysis(t *testing.T) {
	mk := func(name, lit string) *ngd.Rule {
		q := ngd.NewPattern()
		q.AddNode("x", "_")
		return ngd.MustRule(name, q, nil, []ngd.Literal{ngd.MustLiteral(lit)})
	}
	conflict := ngd.NewRuleSet(mk("a", "x.v = 7"), mk("b", "x.v = 8"))

	rep := ngd.AnalyzeRules(conflict, ngd.AnalysisOptions{})
	if rep.Satisfiable != ngd.No || rep.Core == nil || len(rep.Core.Rules) != 2 {
		t.Fatalf("report = %+v", rep)
	}

	// located parsing feeds diagnostics
	rules, lines, err := ngd.ParseRulesLocated(strings.NewReader(quickRules))
	if err != nil || lines["sum"] == 0 {
		t.Fatalf("ParseRulesLocated: %v lines=%v", err, lines)
	}
	if rep := ngd.AnalyzeRules(rules, ngd.AnalysisOptions{Lines: lines}); rep.Satisfiable != ngd.Yes {
		t.Fatalf("quickRules analysis: %+v", rep)
	}
}

func TestPublicAPIRepair(t *testing.T) {
	g := ngd.NewGraph()
	buildArea(g, 600, 722, 1322) // consistent
	buildArea(g, 600, 722, 1572) // violating: 600 + 722 ≠ 1572
	rules, err := ngd.ParseRules(strings.NewReader(quickRules))
	if err != nil {
		t.Fatal(err)
	}

	sess := ngd.NewSession(g, rules, ngd.SessionOptions{})
	srv := ngd.Serve(sess, ngd.ServeOptions{})
	defer srv.Close()

	key := srv.Snapshot().Violations()[0].Key()

	// preview: ranked fixes without mutating anything
	var res *ngd.RepairResult
	res, err = srv.PreviewRepair(key, ngd.RepairOptions{MaxFixes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fixes) == 0 {
		t.Fatalf("no fixes: %+v", res)
	}
	if srv.Snapshot().Epoch != 0 || srv.Snapshot().Len() != 1 {
		t.Fatal("preview mutated the server")
	}

	// apply the top-ranked fix: an ordinary commit clears the store
	var applied *ngd.RepairApplied
	applied, err = srv.ApplyRepair(key, "", ngd.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if applied.Remaining != 0 || srv.Snapshot().Len() != 0 {
		t.Fatalf("store after repair: %d (%+v)", srv.Snapshot().Len(), applied)
	}
	if got := ngd.Detect(sess.Graph(), rules); len(got.Violations) != 0 {
		t.Fatalf("graph still violates after repair: %d", len(got.Violations))
	}
}
