package ref_test

import (
	"testing"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/paperdata"
	"ngd/internal/pattern"
	"ngd/internal/ref"
)

// TestPaperExamples checks the oracle against something that is not the
// engine: the violations of the paper's Example 4 (G1–G4 ⊭ φ1–φ4), with the
// expected keys worked out by hand from the fixtures' node ids. In the merged
// graph G1 occupies ids 0–2, G2 3–6, G3 7–14 and G4 15–23.
func TestPaperExamples(t *testing.T) {
	want := []string{
		// x=BBC_Trust, y=created 2007, z=destroyed 1946
		"phi1:0:1:2",
		// x=Bhonpur, y=600, z=722, w=1572: 600+722 ≠ 1572
		"phi2:3:4:5:6",
		// x=Downey, y=Corona, z=California, w=census; Downey has the smaller
		// population (m1 < m2) but rank 11 is not > 33. The mirrored binding
		// fails X, and x=y fails it too (m1 < m1).
		"phi3:9:8:7:10:13:14:11:12",
		// x=real account, y=fake: the follower/following gap exceeds c and
		// y's status is not 0. Mirrored, the gap is negative.
		"phi4:16:17:15:18:20:19:21:23:22",
	}
	got := ref.Detect(paperdata.MergedGraph(), paperdata.AllRules())
	if len(got) != len(want) {
		t.Fatalf("got %d violations %v, want %d", len(got), got, len(want))
	}
	for i, v := range got {
		if v.Key() != want[i] {
			t.Errorf("violation %d = %s, want %s", i, v.Key(), want[i])
		}
	}
}

// TestConsistentAndUnknown: a repaired G2 has no violation, and a rule whose
// labels the graph has never seen matches nothing (rather than everything).
func TestConsistentAndUnknown(t *testing.T) {
	g2, area := paperdata.G2()
	for _, h := range g2.Out(area) {
		if g2.Symbols().LabelName(h.Label) == "populationTotal" {
			g2.SetAttr(h.To, "val", graph.Int(600+722))
		}
	}
	if got := ref.Detect(g2, core.NewSet(paperdata.Phi2())); len(got) != 0 {
		t.Fatalf("repaired G2 still violates φ2: %v", got)
	}
	if got := ref.Detect(g2, core.NewSet(paperdata.Phi1(365), paperdata.Phi4(1, 1, 10000))); len(got) != 0 {
		t.Fatalf("rules over unseen labels matched: %v", got)
	}
}

// TestPatternShapes: homomorphisms need not be injective, a self-loop binds
// one node to both ends, and an isolated pattern node ranges over all of V.
func TestPatternShapes(t *testing.T) {
	g := graph.New()
	n0, n1 := g.AddNode("n"), g.AddNode("n")
	g.SetAttr(n0, "val", graph.Int(1))
	g.SetAttr(n1, "val", graph.Int(2))
	g.AddEdge(n0, n0, "e")
	g.AddEdge(n0, n1, "e")

	pair := pattern.New()
	pair.AddEdge(pair.AddNode("x", "n"), pair.AddNode("y", "n"), "e")
	loop := pattern.New()
	x := loop.AddNode("x", "_")
	loop.AddEdge(x, x, "e")
	loop.AddNode("z", "n")
	rules := core.NewSet(
		// matches (0,0) and (0,1); only the second has x.val ≠ y.val
		core.MustNew("pair", pair, nil, []core.Literal{core.MustLiteral("x.val = y.val")}),
		// x=0 is the only self-loop; z ranges over both nodes, z=1 has val 2
		core.MustNew("loop", loop, nil, []core.Literal{core.MustLiteral("z.val = 1")}),
	)
	got := ref.Detect(g, rules)
	if len(got) != 2 || got[0].Key() != "pair:0:1" || got[1].Key() != "loop:0:1" {
		t.Fatalf("got %v, want [pair:0:1 loop:0:1]", got)
	}
}
