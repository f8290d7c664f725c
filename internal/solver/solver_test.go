package solver

import (
	"math/big"
	"math/rand"
	"testing"

	"ngd/internal/expr"
)

func r(n, d int64) *big.Rat { return big.NewRat(n, d) }

func cons(rel expr.Cmp, rhs *big.Rat, terms ...any) Constraint {
	// terms: var, coef, var, coef, ...
	var c Constraint
	for i := 0; i < len(terms); i += 2 {
		c.Vars = append(c.Vars, terms[i].(int))
		c.Coef = append(c.Coef, terms[i+1].(*big.Rat))
	}
	c.Rel = rel
	c.RHS = rhs
	return c
}

func checkSolution(t *testing.T, s *System, asg []*big.Rat) {
	t.Helper()
	if len(asg) != s.NumVars {
		t.Fatalf("assignment has %d vars, want %d", len(asg), s.NumVars)
	}
	for _, c := range s.Cons {
		if !holds(c, asg) {
			t.Errorf("solution violates %v (assignment %v)", c, asg)
		}
	}
	if s.Integer {
		for i, v := range asg {
			if !v.IsInt() {
				t.Errorf("x%d = %v not integral", i, v.RatString())
			}
		}
	}
}

// holds decides c under asg with exact rationals.
func holds(c Constraint, asg []*big.Rat) bool {
	lhs := new(big.Rat)
	for i, v := range c.Vars {
		lhs.Add(lhs, new(big.Rat).Mul(c.Coef[i], asg[v]))
	}
	return c.Rel.Holds(lhs.Cmp(c.RHS))
}

func TestSimpleFeasible(t *testing.T) {
	// x + y = 11, x = 7 → y = 4
	s := &System{NumVars: 2, Integer: true, Cons: []Constraint{
		cons(expr.Eq, r(11, 1), 0, r(1, 1), 1, r(1, 1)),
		cons(expr.Eq, r(7, 1), 0, r(1, 1)),
	}}
	st, asg := s.Solve(Options{})
	if st != Feasible {
		t.Fatalf("status = %v", st)
	}
	checkSolution(t, s, asg)
	if asg[1].Cmp(r(4, 1)) != 0 {
		t.Errorf("y = %v, want 4", asg[1].RatString())
	}
}

func TestPaperExample5Phi5Phi6(t *testing.T) {
	// Example 5: A = 7, B = 7, A + B = 11 is infeasible
	s := &System{NumVars: 2, Integer: true, Cons: []Constraint{
		cons(expr.Eq, r(7, 1), 0, r(1, 1)),
		cons(expr.Eq, r(7, 1), 1, r(1, 1)),
		cons(expr.Eq, r(11, 1), 0, r(1, 1), 1, r(1, 1)),
	}}
	if st, _ := s.Solve(Options{}); st != Infeasible {
		t.Fatalf("φ5 ∧ φ6 system should be infeasible, got %v", st)
	}
}

func TestStrictAndNegative(t *testing.T) {
	// x < 3, x > -2, integer → x ∈ {-1, 0, 1, 2}
	s := &System{NumVars: 1, Integer: true, Cons: []Constraint{
		cons(expr.Lt, r(3, 1), 0, r(1, 1)),
		cons(expr.Gt, r(-2, 1), 0, r(1, 1)),
	}}
	st, asg := s.Solve(Options{})
	if st != Feasible {
		t.Fatalf("status = %v", st)
	}
	checkSolution(t, s, asg)

	// x < 3, x > 2 over integers: empty
	s2 := &System{NumVars: 1, Integer: true, Cons: []Constraint{
		cons(expr.Lt, r(3, 1), 0, r(1, 1)),
		cons(expr.Gt, r(2, 1), 0, r(1, 1)),
	}}
	if st, _ := s2.Solve(Options{}); st != Infeasible {
		t.Fatalf("2 < x < 3 over ℤ should be infeasible, got %v", st)
	}
	// but over rationals it is feasible
	s3 := &System{NumVars: 1, Integer: false, Cons: s2.Cons}
	if st, _ := s3.Solve(Options{}); st != Feasible {
		t.Fatalf("2 < x < 3 over ℚ should be feasible, got %v", st)
	}
}

func TestRationalCoefficientsStrict(t *testing.T) {
	// x/2 < 3/4 over ℤ: x ≤ 1 (regression: naive ⌈r⌉−1 over-tightens)
	s := &System{NumVars: 1, Integer: true, Cons: []Constraint{
		cons(expr.Lt, r(3, 4), 0, r(1, 2)),
		cons(expr.Ge, r(1, 1), 0, r(1, 1)), // force x ≥ 1 so only x=1 remains
	}}
	st, asg := s.Solve(Options{})
	if st != Feasible {
		t.Fatalf("x/2 < 3/4 ∧ x ≥ 1 should be feasible (x=1), got %v", st)
	}
	checkSolution(t, s, asg)
	if asg[0].Cmp(r(1, 1)) != 0 {
		t.Errorf("x = %v, want 1", asg[0].RatString())
	}
}

func TestNotEqualBranching(t *testing.T) {
	// x ≠ 0, 0 ≤ x ≤ 1 → x = 1 over ℤ
	s := &System{NumVars: 1, Integer: true, Cons: []Constraint{
		cons(expr.Ne, r(0, 1), 0, r(1, 1)),
		cons(expr.Ge, r(0, 1), 0, r(1, 1)),
		cons(expr.Le, r(1, 1), 0, r(1, 1)),
	}}
	st, asg := s.Solve(Options{})
	if st != Feasible {
		t.Fatalf("status = %v", st)
	}
	checkSolution(t, s, asg)
	if asg[0].Cmp(r(1, 1)) != 0 {
		t.Errorf("x = %v, want 1", asg[0].RatString())
	}

	// x ≠ 0 ∧ x = 0: infeasible
	s2 := &System{NumVars: 1, Integer: true, Cons: []Constraint{
		cons(expr.Ne, r(0, 1), 0, r(1, 1)),
		cons(expr.Eq, r(0, 1), 0, r(1, 1)),
	}}
	if st, _ := s2.Solve(Options{}); st != Infeasible {
		t.Fatalf("x≠0 ∧ x=0 should be infeasible, got %v", st)
	}
}

func TestIntegerGap(t *testing.T) {
	// 2x = 1: rational-feasible, integer-infeasible
	s := &System{NumVars: 1, Integer: true, Cons: []Constraint{
		cons(expr.Eq, r(1, 1), 0, r(2, 1)),
	}}
	if st, _ := s.Solve(Options{}); st != Infeasible {
		t.Fatalf("2x=1 over ℤ should be infeasible, got %v", st)
	}
	s.Integer = false
	st, asg := s.Solve(Options{})
	if st != Feasible || asg[0].Cmp(r(1, 2)) != 0 {
		t.Fatalf("2x=1 over ℚ: %v %v", st, asg)
	}
}

func TestUnboundedDirections(t *testing.T) {
	// x - y = 1000000 with free vars: feasible (splitting handles sign)
	s := &System{NumVars: 2, Integer: true, Cons: []Constraint{
		cons(expr.Eq, r(1000000, 1), 0, r(1, 1), 1, r(-1, 1)),
		cons(expr.Le, r(-5, 1), 1, r(1, 1)), // y ≤ -5
	}}
	st, asg := s.Solve(Options{})
	if st != Feasible {
		t.Fatalf("status = %v", st)
	}
	checkSolution(t, s, asg)
}

func TestEmptySystem(t *testing.T) {
	s := &System{NumVars: 3, Integer: true}
	st, asg := s.Solve(Options{})
	if st != Feasible || len(asg) != 3 {
		t.Fatalf("empty system: %v %v", st, asg)
	}
}

// TestRandomSoundness: whenever the solver claims Feasible, the returned
// assignment must satisfy the system (soundness is checkable; completeness
// is cross-checked on small boxes by brute force).
func TestRandomSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nv := 1 + rng.Intn(3)
		s := &System{NumVars: nv, Integer: true}
		// box the variables so brute force is possible
		for v := 0; v < nv; v++ {
			s.Cons = append(s.Cons,
				cons(expr.Ge, r(-4, 1), v, r(1, 1)),
				cons(expr.Le, r(4, 1), v, r(1, 1)))
		}
		nc := 1 + rng.Intn(4)
		for i := 0; i < nc; i++ {
			var vars []int
			var coef []*big.Rat
			for v := 0; v < nv; v++ {
				if rng.Intn(2) == 0 {
					vars = append(vars, v)
					coef = append(coef, r(int64(rng.Intn(7)-3), 1))
				}
			}
			if len(vars) == 0 {
				continue
			}
			rel := expr.Cmp(rng.Intn(6))
			s.Cons = append(s.Cons, Constraint{Vars: vars, Coef: coef, Rel: rel, RHS: r(int64(rng.Intn(11)-5), 1)})
		}
		st, asg := s.Solve(Options{})
		switch st {
		case Feasible:
			checkSolution(t, s, asg)
		case Infeasible:
			// brute force over the box
			if bruteFeasible(s, nv) {
				t.Fatalf("trial %d: solver says infeasible but brute force found a solution\n%v", trial, s.Cons)
			}
		}
	}
}

func bruteFeasible(s *System, nv int) bool {
	asg := make([]*big.Rat, nv)
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == nv {
			for _, c := range s.Cons {
				if !holds(c, asg) {
					return false
				}
			}
			return true
		}
		for x := int64(-4); x <= 4; x++ {
			asg[v] = r(x, 1)
			if rec(v + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}
