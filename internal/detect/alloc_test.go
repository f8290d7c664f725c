package detect

// Allocation budget for the innermost call of all four detectors: EvalLevel
// runs once per candidate per plan step, and on the kernel path — every
// literal compiled, no overflow — it must never allocate. (The fallback to
// Literal.Satisfied builds one binding closure per literal and is not
// budgeted: it runs on refused literals and overflowing values only.)

import (
	"testing"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/pattern"
	"ngd/internal/plan"
)

func TestEvalLevelKernelPathAllocFree(t *testing.T) {
	g := graph.New()
	x := g.AddNode("person")
	a, b := g.AddNode("integer"), g.AddNode("integer")
	g.SetAttr(x, "tag", graph.Str("person"))
	g.SetAttr(a, "val", graph.Int(3))
	g.SetAttr(b, "val", graph.Int(5))
	g.AddEdge(x, a, "p1")
	g.AddEdge(x, b, "p2")

	p := pattern.New()
	px := p.AddNode("x", "person")
	pa, pb := p.AddNode("a", "integer"), p.AddNode("b", "integer")
	p.AddEdge(px, pa, "p1")
	p.AddEdge(px, pb, "p2")
	rule := core.MustNew("r", p,
		[]core.Literal{core.MustLiteral("abs(a.val - b.val) >= 1")},
		[]core.Literal{
			core.MustLiteral("a.val / 2 + 2 * b.val <= 10"),
			core.MustLiteral("a.val < b.val"),
			core.MustLiteral(`x.tag != "living people"`),
		})

	c, pl := plan.New(g, core.NewSet(rule), plan.Options{}).PlanFor(g, rule, nil)
	for _, ks := range [][]expr.Kernel{c.X, c.Y} {
		for i := range ks {
			if !ks[i].OK() {
				t.Fatalf("a literal of the test rule did not compile to a kernel (X=%d Y=%d)", len(c.X), len(c.Y))
			}
		}
	}
	le := NewLitEval(g, c, pl)
	partial := match.NewPartial(len(p.Nodes))
	partial[px], partial[pa], partial[pb] = x, a, b

	ySat := 0
	allocs := testing.AllocsPerRun(1000, func() {
		ySat = 0
		for lv := 0; lv <= len(pl.Steps); lv++ {
			_, _, ySat = le.EvalLevel(lv, partial, ySat)
		}
	})
	if ySat != 2 {
		t.Fatalf("ySat = %d over the bound match, want 2 (the sum literal fails)", ySat)
	}
	if allocs != 0 {
		t.Fatalf("EvalLevel allocated %.1f objects per run on the kernel path, want 0", allocs)
	}
}
