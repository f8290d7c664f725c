package match_test

import (
	"sort"
	"testing"

	"ngd/internal/core"
	"ngd/internal/graph"
	. "ngd/internal/match"
	"ngd/internal/pattern"
	"ngd/internal/plan"
)

// planFor builds the matching order for p over g through the one planner
// (internal/plan, which imports this package — hence the external test
// package): p is wrapped in a rule whose precondition x is what the planner
// compiles into candidate filters.
func planFor(g graph.View, p *pattern.Pattern, bound []int, x ...core.Literal) *Plan {
	r := core.MustNew("t", p, x, nil)
	_, pl := plan.New(g, core.NewSet(r), plan.Options{}).PlanFor(g, r, bound)
	return pl
}

// collect runs a full enumeration and returns all matches as copies.
func collect(g graph.View, p *pattern.Pattern, bound []int, partial []graph.NodeID) [][]graph.NodeID {
	m := NewMatcher(g, planFor(g, p, bound), Hooks{})
	var out [][]graph.NodeID
	if partial == nil {
		partial = NewPartial(len(p.Nodes))
	}
	m.Run(partial, func(sol []graph.NodeID) bool {
		out = append(out, append([]graph.NodeID(nil), sol...))
		return true
	})
	return out
}

func sortMatches(ms [][]graph.NodeID) {
	sort.Slice(ms, func(i, j int) bool {
		for k := range ms[i] {
			if ms[i][k] != ms[j][k] {
				return ms[i][k] < ms[j][k]
			}
		}
		return false
	})
}

func TestSingleEdgeMatch(t *testing.T) {
	g := graph.New()
	a := g.AddNode("person")
	b := g.AddNode("person")
	c := g.AddNode("city")
	g.AddEdge(a, b, "knows")
	g.AddEdge(b, c, "livesIn")

	p := pattern.New()
	x := p.AddNode("x", "person")
	y := p.AddNode("y", "person")
	p.AddEdge(x, y, "knows")

	ms := collect(g, p, nil, nil)
	if len(ms) != 1 || ms[0][0] != a || ms[0][1] != b {
		t.Fatalf("matches = %v, want [[%d %d]]", ms, a, b)
	}
}

func TestHomomorphismNotInjective(t *testing.T) {
	// pattern x -e-> y, y -e-> z must match the 1-node self loop with
	// x=y=z (homomorphism, not isomorphism: paper §2)
	g := graph.New()
	v := g.AddNode("n")
	g.AddEdge(v, v, "e")

	p := pattern.New()
	x := p.AddNode("x", "n")
	y := p.AddNode("y", "n")
	z := p.AddNode("z", "n")
	p.AddEdge(x, y, "e")
	p.AddEdge(y, z, "e")

	ms := collect(g, p, nil, nil)
	if len(ms) != 1 || ms[0][0] != v || ms[0][1] != v || ms[0][2] != v {
		t.Fatalf("self-loop homomorphism: matches = %v", ms)
	}
}

func TestWildcardMatching(t *testing.T) {
	g := graph.New()
	a := g.AddNode("alpha")
	b := g.AddNode("beta")
	c := g.AddNode("gamma")
	g.AddEdge(a, b, "e")
	g.AddEdge(c, b, "e")

	p := pattern.New()
	x := p.AddNode("x", "_")
	y := p.AddNode("y", "beta")
	p.AddEdge(x, y, "e")

	ms := collect(g, p, nil, nil)
	if len(ms) != 2 {
		t.Fatalf("wildcard matches = %v, want 2", ms)
	}
}

func TestUnknownLabelNoMatch(t *testing.T) {
	g := graph.New()
	a := g.AddNode("n")
	b := g.AddNode("n")
	g.AddEdge(a, b, "e")

	p := pattern.New()
	x := p.AddNode("x", "n")
	y := p.AddNode("y", "n")
	p.AddEdge(x, y, "ghost-label")
	if ms := collect(g, p, nil, nil); len(ms) != 0 {
		t.Fatalf("unknown edge label matched: %v", ms)
	}

	p2 := pattern.New()
	p2.AddNode("x", "ghost")
	if ms := collect(g, p2, nil, nil); len(ms) != 0 {
		t.Fatalf("unknown node label matched: %v", ms)
	}
}

func TestDiamondPattern(t *testing.T) {
	// x -a-> y, x -b-> z, y -c-> w, z -c-> w : DAG with a join
	g := graph.New()
	x := g.AddNode("X")
	y := g.AddNode("Y")
	z := g.AddNode("Z")
	w1 := g.AddNode("W")
	w2 := g.AddNode("W")
	g.AddEdge(x, y, "a")
	g.AddEdge(x, z, "b")
	g.AddEdge(y, w1, "c")
	g.AddEdge(z, w1, "c")
	g.AddEdge(y, w2, "c")
	// w2 lacks the z -c-> w2 edge: only w1 completes the diamond

	p := pattern.New()
	px := p.AddNode("x", "X")
	py := p.AddNode("y", "Y")
	pz := p.AddNode("z", "Z")
	pw := p.AddNode("w", "W")
	p.AddEdge(px, py, "a")
	p.AddEdge(px, pz, "b")
	p.AddEdge(py, pw, "c")
	p.AddEdge(pz, pw, "c")

	ms := collect(g, p, nil, nil)
	if len(ms) != 1 || ms[0][3] != w1 {
		t.Fatalf("diamond matches = %v, want single match on w1", ms)
	}
}

func TestCyclicPattern(t *testing.T) {
	g := graph.New()
	a := g.AddNode("n")
	b := g.AddNode("n")
	c := g.AddNode("n")
	g.AddEdge(a, b, "e")
	g.AddEdge(b, a, "e")
	g.AddEdge(b, c, "e")

	p := pattern.New()
	x := p.AddNode("x", "n")
	y := p.AddNode("y", "n")
	p.AddEdge(x, y, "e")
	p.AddEdge(y, x, "e")

	ms := collect(g, p, nil, nil)
	sortMatches(ms)
	if len(ms) != 2 {
		t.Fatalf("cycle matches = %v, want 2 (a,b) and (b,a)", ms)
	}
}

func TestPreBoundPivot(t *testing.T) {
	g := graph.New()
	a := g.AddNode("person")
	b := g.AddNode("person")
	c := g.AddNode("person")
	g.AddEdge(a, b, "knows")
	g.AddEdge(c, b, "knows")
	g.AddEdge(b, c, "knows")

	p := pattern.New()
	x := p.AddNode("x", "person")
	y := p.AddNode("y", "person")
	z := p.AddNode("z", "person")
	p.AddEdge(x, y, "knows")
	p.AddEdge(y, z, "knows")

	// pin (x,y) = (a,b): only z remains; must find z=c
	cp := pattern.Compile(p, g.Symbols())
	partial := NewPartial(3)
	partial[x] = a
	partial[y] = b
	if !VerifyBound(g, cp, partial) {
		t.Fatal("bound verification failed for valid pivot")
	}
	ms := collect(g, p, []int{x, y}, partial)
	if len(ms) != 1 || ms[0][2] != c {
		t.Fatalf("pivot matches = %v", ms)
	}

	// pin an invalid pivot: edge (b,a) does not exist
	partial2 := NewPartial(3)
	partial2[x] = b
	partial2[y] = a
	if VerifyBound(g, cp, partial2) {
		t.Fatal("bound verification accepted missing edge")
	}
}

func TestDisconnectedPattern(t *testing.T) {
	g := graph.New()
	a := g.AddNode("A")
	g.AddNode("A")
	b := g.AddNode("B")
	_ = a
	_ = b

	p := pattern.New()
	p.AddNode("x", "A")
	p.AddNode("y", "B")
	// no edges: cross product of candidates
	ms := collect(g, p, nil, nil)
	if len(ms) != 2 {
		t.Fatalf("disconnected matches = %d, want 2 (2 A's × 1 B)", len(ms))
	}
}

func TestSelfLoopPattern(t *testing.T) {
	g := graph.New()
	a := g.AddNode("n")
	b := g.AddNode("n")
	g.AddEdge(a, a, "e")
	g.AddEdge(a, b, "e")

	p := pattern.New()
	x := p.AddNode("x", "n")
	p.AddEdge(x, x, "e")
	ms := collect(g, p, nil, nil)
	if len(ms) != 1 || ms[0][0] != a {
		t.Fatalf("self-loop matches = %v, want [a]", ms)
	}
}

func TestHooksPruneAndBacktrack(t *testing.T) {
	g := graph.New()
	hub := g.AddNode("hub")
	for i := 0; i < 5; i++ {
		leaf := g.AddNode("leaf")
		g.AddEdge(hub, leaf, "e")
	}

	p := pattern.New()
	x := p.AddNode("x", "hub")
	y := p.AddNode("y", "leaf")
	p.AddEdge(x, y, "e")

	plan := planFor(g, p, nil)
	extends := 0
	pruneAfter := 2
	m := NewMatcher(g, plan, Hooks{
		OnExtend: func(step int, partial []graph.NodeID) bool {
			extends++
			// prune every leaf binding after the first two
			return !(plan.Steps[step].Node == y && extends > pruneAfter)
		},
	})
	matches := 0
	m.Run(NewPartial(2), func([]graph.NodeID) bool { matches++; return true })
	if matches >= 5 {
		t.Errorf("pruning had no effect: %d matches", matches)
	}
}

func TestEarlyStop(t *testing.T) {
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.AddNode("n")
	}
	p := pattern.New()
	p.AddNode("x", "n")

	m := NewMatcher(g, planFor(g, p, nil), Hooks{})
	count := 0
	m.Run(NewPartial(1), func([]graph.NodeID) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop: got %d matches, want 3", count)
	}
}
