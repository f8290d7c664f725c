package inc

import (
	"fmt"
	"slices"
	"testing"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/paperdata"
	"ngd/internal/pattern"
	"ngd/internal/plan"
	"ngd/internal/ref"
)

// TestPaperExample6 reproduces Example 6: deleting the status edge of the
// real NatWest account removes the φ4 violation (ΔVio⁻), and inserting a
// parallel clean account adds no new violations.
func TestPaperExample6(t *testing.T) {
	g, realAcc, _ := paperdata.G4()
	rules := core.NewSet(paperdata.Phi4(1, 1, 10000))

	// the deleted edge (NatWest Help) -status-> (1)
	statusLbl := g.Symbols().LookupLabel("status")
	var statusNode graph.NodeID = -1
	for _, h := range g.Out(realAcc) {
		if h.Label == statusLbl {
			statusNode = h.To
		}
	}
	if statusNode < 0 {
		t.Fatal("fixture: status edge not found")
	}

	d := &graph.Delta{}
	d.Delete(realAcc, statusNode, statusLbl)

	res := IncDect(g, rules, d, Options{})
	if len(res.Plus) != 0 {
		t.Errorf("ΔVio⁺ = %v, want empty", res.Plus)
	}
	if len(res.Minus) != 1 {
		t.Fatalf("ΔVio⁻ = %v, want exactly the φ4 violation", res.Minus)
	}

	// second part of Example 6: also insert a clean sibling account
	// NatWest_Help1 (status 1, 1 following, 2 followers): still only the
	// removed violation.
	d2 := &graph.Delta{}
	d2.Delete(realAcc, statusNode, statusLbl)
	company := func() graph.NodeID {
		keys := g.Symbols().LookupLabel("keys")
		for _, h := range g.Out(realAcc) {
			if h.Label == keys {
				return h.To
			}
		}
		return -1
	}()
	acc := g.AddNode("account")
	g.SetAttr(acc, "name", graph.Str("NatWest_Help1"))
	st := g.AddNode("boolean")
	g.SetAttr(st, "val", graph.Bool(true))
	fo := g.AddNode("integer")
	g.SetAttr(fo, "val", graph.Int(2))
	fg := g.AddNode("integer")
	g.SetAttr(fg, "val", graph.Int(1))
	d2.Insert(acc, company, g.Symbols().LookupLabel("keys"))
	d2.Insert(acc, st, statusLbl)
	d2.Insert(acc, fo, g.Symbols().LookupLabel("follower"))
	d2.Insert(acc, fg, g.Symbols().LookupLabel("following"))

	res2 := IncDect(g, rules, d2, Options{})
	if len(res2.Plus) != 0 {
		t.Errorf("ΔVio⁺ after clean insert = %v, want empty", res2.Plus)
	}
	if len(res2.Minus) != 1 {
		t.Errorf("ΔVio⁻ after mixed batch = %v, want 1", res2.Minus)
	}
}

// TestInsertionCreatesViolation: inserting the edges of a fresh fake
// account referencing the same company must surface a new φ4 violation.
func TestInsertionCreatesViolation(t *testing.T) {
	g, realAcc, _ := paperdata.G4()
	rules := core.NewSet(paperdata.Phi4(1, 1, 10000))

	keys := g.Symbols().LookupLabel("keys")
	var company graph.NodeID = -1
	for _, h := range g.Out(realAcc) {
		if h.Label == keys {
			company = h.To
		}
	}

	acc := g.AddNode("account")
	st := g.AddNode("boolean")
	g.SetAttr(st, "val", graph.Bool(true)) // claims real: violates Y (s2=0)
	fo := g.AddNode("integer")
	g.SetAttr(fo, "val", graph.Int(3))
	fg := g.AddNode("integer")
	g.SetAttr(fg, "val", graph.Int(4))

	d := &graph.Delta{}
	d.Insert(acc, company, keys)
	d.Insert(acc, st, g.Symbols().LookupLabel("status"))
	d.Insert(acc, fo, g.Symbols().LookupLabel("follower"))
	d.Insert(acc, fg, g.Symbols().LookupLabel("following"))

	res := IncDect(g, rules, d, Options{})
	if len(res.Minus) != 0 {
		t.Errorf("ΔVio⁻ = %v, want empty", res.Minus)
	}
	if len(res.Plus) != 1 {
		t.Fatalf("ΔVio⁺ = %v, want 1 new violation", res.Plus)
	}
	// the new violation must equal the brute-force diff
	plus, minus := ref.Delta(g, rules, d)
	if ref.Keys(res.Plus) != ref.Keys(plus) || ref.Keys(res.Minus) != ref.Keys(minus) {
		t.Error("IncDect disagrees with batch diff")
	}
}

// TestNoDuplicateAcrossPivots: a match containing several Δ-edges must be
// reported exactly once.
func TestNoDuplicateAcrossPivots(t *testing.T) {
	g := graph.New()
	x := g.AddNode("A")
	y := g.AddNode("B")
	z := g.AddNode("C")
	a := g.AddNode("V")
	g.SetAttr(a, "val", graph.Int(1))
	g.AddEdge(z, a, "p")

	// rule: A -e-> B -e-> C with C -p-> a requires a.val = 0
	q := pattern.New()
	px := q.AddNode("x", "A")
	py := q.AddNode("y", "B")
	pz := q.AddNode("z", "C")
	pa := q.AddNode("a", "V")
	q.AddEdge(px, py, "e")
	q.AddEdge(py, pz, "e")
	q.AddEdge(pz, pa, "p")
	rules := core.NewSet(core.MustNew("r", q, nil, []core.Literal{core.MustLiteral("a.val = 0")}))

	// both pattern edges arrive in the same batch: one match, two pivots
	d := &graph.Delta{}
	e := g.Symbols().Label("e")
	d.Insert(x, y, e)
	d.Insert(y, z, e)

	res := IncDect(g, rules, d, Options{})
	if len(res.Plus) != 1 {
		t.Fatalf("ΔVio⁺ = %d violations, want exactly 1 (no duplicates)", len(res.Plus))
	}
	plus, _ := ref.Delta(g, rules, d)
	if ref.Keys(res.Plus) != ref.Keys(plus) {
		t.Error("IncDect disagrees with diff")
	}
}

// IncDect/recomputation equivalence on generated graphs — the central correctness
// property of the incremental algorithm (paper §6.2 correctness argument).
func TestIncDectEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	profiles := []gen.Profile{gen.YAGO2, gen.Pokec, gen.Synthetic}
	for trial := 0; trial < 6; trial++ {
		p := profiles[trial%len(profiles)]
		seed := int64(1000 + trial)
		ds := gen.Generate(p, 120, seed)
		rules := gen.Rules(p, gen.RuleConfig{Count: 12, MaxDiameter: 5, Seed: seed})
		d := gen.RandomDelta(ds, gen.DeltaConfig{
			Size:  gen.DeltaSize(ds.G, 0.15),
			Gamma: 1,
			Seed:  seed * 3,
		})
		// and the same ΔG with its first half named again, reversed: the
		// last op on an edge decides, so those edges end as the reversal says
		half := d.Ops[:len(d.Ops)/2]
		again := &graph.Delta{Ops: slices.Clone(d.Ops)}
		for _, op := range half {
			op.Insert = !op.Insert
			again.Ops = append(again.Ops, op)
		}
		t.Run(fmt.Sprintf("%s-%d", p.Name, trial), func(t *testing.T) {
			for _, d := range []*graph.Delta{d, again} {
				incRes := IncDect(ds.G, rules, d, Options{})
				plus, minus := ref.Delta(ds.G, rules, d)
				if ref.Keys(incRes.Plus) != ref.Keys(plus) {
					t.Errorf("ΔVio⁺ mismatch: inc=%d diff=%d\ninc:\n%s\ndiff:\n%s",
						len(incRes.Plus), len(plus), ref.Keys(incRes.Plus), ref.Keys(plus))
				}
				if ref.Keys(incRes.Minus) != ref.Keys(minus) {
					t.Errorf("ΔVio⁻ mismatch: inc=%d diff=%d",
						len(incRes.Minus), len(minus))
				}
			}
		})
	}
}

// TestGammaInsensitivity pins the paper's Exp-1(e): incremental results stay
// correct across insert:delete ratios.
func TestGammaInsensitivity(t *testing.T) {
	for _, gamma := range []float64{0.25, 1, 4} {
		ds := gen.Generate(gen.YAGO2, 100, 5)
		rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 9, MaxDiameter: 4, Seed: 5})
		d := gen.RandomDelta(ds, gen.DeltaConfig{Size: 60, Gamma: gamma, Seed: 11})
		incRes := IncDect(ds.G, rules, d, Options{})
		plus, minus := ref.Delta(ds.G, rules, d)
		if ref.Keys(incRes.Plus) != ref.Keys(plus) || ref.Keys(incRes.Minus) != ref.Keys(minus) {
			t.Errorf("γ=%v: IncDect != diff", gamma)
		}
	}
}

// perRule is IncDect with one search per rule: the paper's loop, which the
// class search must reproduce list for list.
func perRule(g *graph.Graph, rules *core.Set, d *graph.Delta) *Result {
	norm := d.Normalize(g)
	opts := Options{Program: plan.New(g, rules, plan.Options{})}
	res := &Result{}
	search := func(v *graph.Graph, ops []graph.EdgeOp, plus bool) {
		idx := NewEdgeIndex(ops)
		for _, r := range rules.Rules {
			res.searchRule(v, opts.Program.CompiledFor(r), ops, idx, plus, opts)
		}
	}
	search(g, norm.Deletions(), false)
	after := g.Clone()
	defer after.Release()
	after.Apply(norm)
	search(after, norm.Insertions(), true)
	return res
}

func keysInOrder(vs []core.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Key()
	}
	return out
}

// TestClassSearchMatchesPerRule: searched once per clone class, both sides
// list the violations of one search per rule in the same order, and expand
// fewer pivots doing it.
func TestClassSearchMatchesPerRule(t *testing.T) {
	// a generated Σ, whose follower, peer and sum shapes repeat
	p := gen.YAGO2
	p.ErrorRate = 0.3
	ds := gen.Generate(p, 150, 4)
	rules := gen.Rules(p, gen.RuleConfig{Count: 50, MaxDiameter: 4, Seed: 4})
	d := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.2), Gamma: 1, Seed: 41})
	handed := map[*core.NGD]bool{} // the rules a class search answers for unsearched
	classes, of := plan.New(ds.G, rules, plan.Options{}).Classes(rules)
	for i, r := range rules.Rules {
		handed[r] = classes[of[i]].C.Rule != r
	}
	got, want := IncDect(ds.G, rules, d, Options{}), perRule(ds.G, rules, d)
	for _, side := range []struct {
		name      string
		got, want []core.Violation
	}{{"ΔVio⁺", got.Plus, want.Plus}, {"ΔVio⁻", got.Minus, want.Minus}} {
		if !slices.Equal(keysInOrder(side.got), keysInOrder(side.want)) {
			t.Fatalf("%s by class\n%v\nper rule\n%v", side.name, keysInOrder(side.got), keysInOrder(side.want))
		}
		if !slices.ContainsFunc(side.got, func(v core.Violation) bool { return handed[v.Rule] }) {
			t.Fatalf("vacuous workload: %s has no violation of a clone class's later member", side.name)
		}
	}
	t.Logf("|ΔVio⁺| %d, |ΔVio⁻| %d; pivots %d by class, %d by rule", len(got.Plus), len(got.Minus), got.Pivots, want.Pivots)
	if got.Pivots >= want.Pivots {
		t.Fatal("the class search expanded no fewer pivots than the per-rule search")
	}
}

// TestLocalizability: the work IncDect performs must not grow with graph
// size when ΔG and its neighborhood stay fixed (paper §6.1/§6.2: cost is
// determined by |Σ| and the dΣ-neighbors of ΔG, not |G|).
func TestLocalizability(t *testing.T) {
	mkDelta := func(ds *gen.Dataset) *graph.Delta {
		// one relation edge between entities 0 and 1 (constant-size ΔG in a
		// constant-radius region regardless of |G|)
		g := ds.G
		t0 := gen.EntityType(g, ds.Entities[0])
		t1 := gen.EntityType(g, ds.Entities[1])
		lbl := g.Symbols().Label(gen.RelForTypes(ds.Profile, t0, t1))
		d := &graph.Delta{}
		d.Insert(ds.Entities[0], ds.Entities[1], lbl)
		return d
	}
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 10, MaxDiameter: 4, Seed: 3})

	dsSmall := gen.Generate(gen.YAGO2, 200, 3)
	resSmall := IncDect(dsSmall.G, rules, mkDelta(dsSmall), Options{})

	dsBig := gen.Generate(gen.YAGO2, 2000, 3)
	resBig := IncDect(dsBig.G, rules, mkDelta(dsBig), Options{})

	small := resSmall.Counters.Candidates + resSmall.Counters.Checks
	big := resBig.Counters.Candidates + resBig.Counters.Checks
	// allow slack for density differences, but reject linear growth (10×)
	if big > small*4+200 {
		t.Errorf("incremental work grew with |G|: small=%d big=%d", small, big)
	}
	_ = resBig
}

// TestBatchUnaffectedByNoOpDelta: an empty ΔG yields empty ΔVio.
func TestEmptyDelta(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 50, 1)
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 6, MaxDiameter: 3, Seed: 1})
	res := IncDect(ds.G, rules, &graph.Delta{}, Options{})
	if len(res.Plus) != 0 || len(res.Minus) != 0 {
		t.Errorf("empty delta produced changes: %+v", res.DeltaVio)
	}
}

// TestDeleteThenReinsert: net no-op batches produce no changes after
// normalization.
func TestDeleteThenReinsert(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 80, 9)
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 6, MaxDiameter: 3, Seed: 9})
	g := ds.G
	// pick an existing edge
	var u graph.NodeID = -1
	var h graph.Half
	for v := 0; v < g.NumNodes(); v++ {
		if len(g.Out(graph.NodeID(v))) > 0 {
			u = graph.NodeID(v)
			h = g.Out(u)[0]
			break
		}
	}
	if u < 0 {
		t.Fatal("no edges")
	}
	d := &graph.Delta{}
	d.Delete(u, h.To, h.Label)
	d.Insert(u, h.To, h.Label)
	res := IncDect(g, rules, d, Options{})
	if len(res.Plus) != 0 || len(res.Minus) != 0 {
		t.Errorf("net no-op delta produced changes: %+v", res.DeltaVio)
	}
}

// TestVioUpdateConsistency: Vio(G) ⊕ ΔVio == Vio(G ⊕ ΔG) as key sets.
func TestVioUpdateConsistency(t *testing.T) {
	ds := gen.Generate(gen.Pokec, 100, 21)
	rules := gen.Rules(gen.Pokec, gen.RuleConfig{Count: 10, MaxDiameter: 4, Seed: 21})
	d := gen.RandomDelta(ds, gen.DeltaConfig{Size: 40, Gamma: 1, Seed: 22})

	before := detect.Dect(ds.G, rules, detect.Options{})
	inc := IncDect(ds.G, rules, d, Options{})

	// apply ΔVio to the before-set
	vio := detect.VioKeySet(before.Violations)
	for _, v := range inc.Plus {
		vio[v.Key()] = v
	}
	for _, v := range inc.Minus {
		delete(vio, v.Key())
	}

	applied := ds.G.Clone()
	applied.Apply(d)
	after := detect.Dect(applied, rules, detect.Options{})
	want := detect.VioKeySet(after.Violations)

	if len(vio) != len(want) {
		t.Fatalf("Vio⊕ΔVio has %d entries, recompute has %d", len(vio), len(want))
	}
	for k := range want {
		if _, ok := vio[k]; !ok {
			t.Fatalf("missing violation %s after incremental update", k)
		}
	}
}
