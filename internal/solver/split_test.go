package solver

import (
	"math/big"
	"testing"

	"ngd/internal/expr"
)

// noIntegerPoint is 2·x_a − 2·x_b = 1: rational-feasible along an unbounded
// line that holds no integer point, so branch and bound dives until its
// node cap runs out.
func noIntegerPoint(a, b int) Constraint {
	return cons(expr.Eq, r(1, 1), a, r(2, 1), b, r(-2, 1))
}

// TestSplitWitness: the parts' witnesses land on their own variables, and
// a variable no constraint names is 0.
func TestSplitWitness(t *testing.T) {
	s := &System{NumVars: 5, Integer: true, Cons: []Constraint{
		cons(expr.Eq, r(7, 1), 3, r(1, 1)),
		cons(expr.Eq, r(11, 1), 0, r(1, 1), 3, r(1, 1)),
		cons(expr.Gt, r(2, 1), 2, r(1, 1)),
		cons(expr.Ne, r(3, 1), 2, r(1, 1)),
	}}
	if n := len(s.parts()); n != 2 {
		t.Fatalf("%d parts, want 2", n)
	}
	st, asg := s.Solve(Options{})
	if st != Feasible {
		t.Fatalf("status = %v", st)
	}
	checkSolution(t, s, asg)
	for _, v := range []int{1, 4} {
		if asg[v].Sign() != 0 {
			t.Errorf("unconstrained x%d = %v, want 0", v, asg[v].RatString())
		}
	}
	if asg[0].Cmp(r(4, 1)) != 0 || asg[3].Cmp(r(7, 1)) != 0 {
		t.Errorf("x0, x3 = %v, %v; want 4, 7", asg[0].RatString(), asg[3].RatString())
	}
}

// TestSplitBudgetInLaterPart: a part that runs out of nodes makes the
// system Unknown, wherever it sits among the parts.
func TestSplitBudgetInLaterPart(t *testing.T) {
	t.Cleanup(SetMaxNodes(8))
	feasible := cons(expr.Ge, r(0, 1), 0, r(1, 1))
	for _, order := range [][]Constraint{
		{feasible, noIntegerPoint(1, 2)},
		{noIntegerPoint(1, 2), feasible},
	} {
		s := &System{NumVars: 3, Integer: true, Cons: order}
		if st, _ := s.Solve(Options{}); st != Unknown {
			t.Fatalf("%v: status = %v, want unknown", order, st)
		}
	}
}

// TestNeSplitCap: a part with more ≠ constraints than maxNeSplits is
// Unknown, and one with exactly that many is decided. The cap counts per
// part: two parts of 9 are decided, though the one-tableau solve, which
// sees 18, is not.
func TestNeSplitCap(t *testing.T) {
	ne := func(v, n int) []Constraint { // x_v ≠ 1, …, x_v ≠ n
		var cs []Constraint
		for k := 1; k <= n; k++ {
			cs = append(cs, cons(expr.Ne, r(int64(k), 1), v, r(1, 1)))
		}
		return cs
	}
	for n, want := range map[int]Status{maxNeSplits: Feasible, maxNeSplits + 1: Unknown} {
		s := &System{NumVars: 1, Integer: true, Cons: ne(0, n)}
		st, asg := s.Solve(Options{})
		if st != want {
			t.Fatalf("%d ≠ constraints in one part: %v, want %v", n, st, want)
		}
		if st == Feasible {
			checkSolution(t, s, asg)
		}
	}
	s := &System{NumVars: 2, Integer: true, Cons: append(ne(0, 9), ne(1, 9)...)}
	st, asg := s.Solve(Options{})
	if st != Feasible {
		t.Fatalf("two parts of 9 ≠ constraints: %v, want feasible", st)
	}
	checkSolution(t, s, asg)
	if st, _ := s.SolveWhole(Options{}); st != Unknown {
		t.Fatalf("two parts of 9 ≠ constraints on one tableau: %v, want unknown", st)
	}
}

// TestSplitRefutesPastAnUndecidedPart: the whole tableau refutes this
// system at its root, where the part x2 ≥ 1 ∧ x2 ≤ 0 is infeasible. The
// split must too, though the part before it exhausts its nodes: a node
// budget shared across the parts would leave none for x2 and turn the
// verdict into Unknown.
func TestSplitRefutesPastAnUndecidedPart(t *testing.T) {
	s := &System{NumVars: 3, Integer: true, Cons: []Constraint{
		noIntegerPoint(0, 1),
		cons(expr.Ge, r(1, 1), 2, r(1, 1)),
		cons(expr.Le, r(0, 1), 2, r(1, 1)),
	}}
	t.Cleanup(SetMaxNodes(8))
	if st, _ := s.SolveWhole(Options{}); st != Infeasible {
		t.Fatalf("whole: %v, want infeasible", st)
	}
	if st, _ := s.Solve(Options{}); st != Infeasible {
		t.Fatalf("split: %v, want infeasible", st)
	}
}

// TestPivotCapIsUnknown: a simplex run stopped by its pivot cap proves
// nothing, so the verdict is Unknown, not Infeasible.
func TestPivotCapIsUnknown(t *testing.T) {
	infeasible := &System{NumVars: 1, Integer: true, Cons: []Constraint{
		cons(expr.Ge, r(1, 1), 0, r(1, 1)),
		cons(expr.Le, r(0, 1), 0, r(1, 1)),
	}}
	feasible := &System{NumVars: 1, Integer: true, Cons: infeasible.Cons[:1]}
	restore := SetPivotsPerLine(0)
	for _, s := range []*System{infeasible, feasible} {
		if st, _ := s.Solve(Options{}); st != Unknown {
			t.Errorf("%v under a zero pivot cap: %v, want unknown", s.Cons, st)
		}
	}
	restore()
	if st, _ := infeasible.Solve(Options{}); st != Infeasible {
		t.Errorf("uncapped: %v, want infeasible", st)
	}
}

// FuzzSolveSplitMatchesWhole builds integer systems of 2–4 independent
// blocks, each of 1–3 variables (scattered over the whole numbering) and up
// to 3 constraints of any relation, the blocks' constraints interleaved.
// Wherever the one-tableau solve decides, the split must give the same
// status; every Feasible witness must satisfy every constraint exactly.
func FuzzSolveSplitMatchesWhole(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{2, 7, 3, 5, 1, 9, 4, 4, 2, 6, 8, 0, 3, 1, 5, 2, 7, 2, 1, 3, 3, 0, 6, 2, 1, 5, 5, 4})
	f.Cleanup(SetMaxNodes(16))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := blockSystem(data)
		whole, wasg := s.SolveWhole(Options{})
		split, sasg := s.Solve(Options{})
		if whole != Unknown && split != whole {
			t.Fatalf("split %v, whole %v on %v", split, whole, s.Cons)
		}
		for _, w := range []struct {
			st  Status
			asg []*big.Rat
		}{{whole, wasg}, {split, sasg}} {
			if w.st == Feasible {
				checkSolution(t, s, w.asg)
			}
		}
	})
}

// blockSystem decodes data (read cyclically; empty reads as zeros) into
// FuzzSolveSplitMatchesWhole's systems.
func blockSystem(data []byte) *System {
	i := 0
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[i%len(data)])
		i++
		return b % n
	}
	blocks := 2 + next(3)
	sizes := make([]int, blocks)
	n := 0
	for b := range sizes {
		sizes[b] = 1 + next(3)
		n += sizes[b]
	}
	perm := make([]int, n) // block variables scattered over 0..n−1
	for v := range perm {
		perm[v] = v
	}
	for v := n - 1; v > 0; v-- {
		w := next(v + 1)
		perm[v], perm[w] = perm[w], perm[v]
	}
	var queues [][]Constraint
	first := 0
	for _, size := range sizes {
		var q []Constraint
		for range next(4) {
			c := Constraint{Rel: expr.Cmp(next(6)), RHS: r(int64(next(13)-6), 1)}
			mask := 1 + next(1<<size-1)
			for v := range size {
				if mask&(1<<v) != 0 {
					c.Vars = append(c.Vars, perm[first+v])
					c.Coef = append(c.Coef, r(int64(next(7)-3), 1))
				}
			}
			q = append(q, c)
		}
		if len(q) > 0 {
			queues = append(queues, q)
		}
		first += size
	}
	s := &System{NumVars: n, Integer: true}
	for len(queues) > 0 {
		b := next(len(queues))
		s.Cons = append(s.Cons, queues[b][0])
		if queues[b] = queues[b][1:]; len(queues[b]) == 0 {
			queues = append(queues[:b], queues[b+1:]...)
		}
	}
	return s
}
