package match_test

// Allocation budget for the matcher's innermost verification step:
// CheckStep runs once per candidate per plan step and must never allocate.

import (
	"testing"

	"ngd/internal/graph"
	. "ngd/internal/match"
	"ngd/internal/pattern"
)

func TestCheckStepAllocFree(t *testing.T) {
	g := graph.New()
	a := g.AddNode("person")
	b := g.AddNode("person")
	c := g.AddNode("city")
	g.AddEdge(a, b, "knows")
	g.AddEdge(b, c, "livesIn")
	g.AddEdge(a, c, "livesIn") // triangle: step checks have a non-anchor edge

	p := pattern.New()
	x := p.AddNode("x", "person")
	y := p.AddNode("y", "person")
	z := p.AddNode("z", "city")
	p.AddEdge(x, y, "knows")
	p.AddEdge(y, z, "livesIn")
	p.AddEdge(x, z, "livesIn")

	pl := planFor(g, p, nil)
	m := NewMatcher(g, pl, Hooks{})

	// fully bind the one triangle match, then re-verify the last step's
	// candidate against it
	sol := map[int]graph.NodeID{p.VarIndex("x"): a, p.VarIndex("y"): b, p.VarIndex("z"): c}
	partial := NewPartial(len(p.Nodes))
	for idx, id := range sol {
		partial[idx] = id
	}
	lastStep := len(pl.Steps) - 1
	lastNode := sol[pl.Steps[lastStep].Node]

	var ok bool
	allocs := testing.AllocsPerRun(1000, func() {
		ok = m.CheckStep(lastStep, partial, lastNode)
	})
	if !ok {
		t.Fatal("CheckStep rejected the known triangle match")
	}
	if allocs != 0 {
		t.Fatalf("CheckStep allocated %.1f objects per run, want 0", allocs)
	}
}
