// Package solver decides feasibility of systems of linear constraints over
// integers with exact rational arithmetic — the numeric back-end of the
// NGD satisfiability and implication analyses (paper §4). The paper notes
// that linear arithmetic over integers has an NP-complete satisfiability
// problem; this solver runs a two-phase exact simplex (Bland's rule, so it
// always terminates) on the rational relaxation and branches-and-bounds to
// integrality, one independent part of the system at a time.
package solver

import (
	"cmp"
	"fmt"
	"math/big"
	"slices"
	"strings"

	"ngd/internal/expr"
)

// Constraint is Σᵢ Coef[i]·x_{Var[i]} Rel RHS. Ne is handled by
// disjunctive branching; Lt/Gt over integers become Le/Ge with a ±1
// adjustment.
type Constraint struct {
	Vars []int
	Coef []*big.Rat
	Rel  expr.Cmp
	RHS  *big.Rat
}

// NewConstraint builds a constraint from parallel slices.
func NewConstraint(vars []int, coef []*big.Rat, rel expr.Cmp, rhs *big.Rat) Constraint {
	return Constraint{Vars: vars, Coef: coef, Rel: rel, RHS: rhs}
}

func (c Constraint) String() string {
	s := ""
	for i, v := range c.Vars {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%s·x%d", c.Coef[i].RatString(), v)
	}
	return fmt.Sprintf("%s %s %s", s, c.Rel, c.RHS.RatString())
}

// Term resolves a term x.A of an atom: to solver variable v, or, when
// v < 0, to the integer c that Assert folds into the right-hand side.
// ok=false means the term cannot be resolved, so the atom cannot hold.
type Term func(expr.TermKey) (v int, c int64, ok bool)

// Assert appends atom a (Form ⊗ 0) to cons as a constraint over the
// variables term resolves Form's terms to. Terms resolving to the same
// variable are merged, and the variables are sorted; a merged coefficient
// that cancels keeps its variable, which callers may count as constrained.
// An atom left with no variable is decided on the spot and appends nothing. ok=false means the
// atom cannot hold: a term did not resolve, or the ground atom is false.
func Assert(cons []Constraint, a expr.Atom, term Term) ([]Constraint, bool) {
	keys := make([]expr.TermKey, 0, len(a.Form.Coeffs))
	for k := range a.Form.Coeffs {
		keys = append(keys, k)
	}
	// resolve in a fixed order: term may number variables as it meets them
	slices.SortFunc(keys, func(x, y expr.TermKey) int {
		return cmp.Or(strings.Compare(x.Var, y.Var), strings.Compare(x.Attr, y.Attr))
	})
	c := Constraint{Rel: a.Op, RHS: new(big.Rat).Neg(a.Form.Const)}
	for _, k := range keys {
		coef := a.Form.Coeffs[k]
		v, x, ok := term(k)
		if !ok {
			return cons, false
		}
		if v < 0 {
			c.RHS.Sub(c.RHS, new(big.Rat).Mul(coef, new(big.Rat).SetInt64(x)))
			continue
		}
		i, dup := slices.BinarySearch(c.Vars, v)
		if dup {
			c.Coef[i].Add(c.Coef[i], coef)
			continue
		}
		c.Vars = slices.Insert(c.Vars, i, v)
		c.Coef = slices.Insert(c.Coef, i, new(big.Rat).Set(coef))
	}
	if len(c.Vars) == 0 {
		return cons, a.Op.Holds(-c.RHS.Sign())
	}
	return append(cons, c), true
}

// System is a conjunction of constraints over NumVars variables.
// Variables are unbounded (±∞) and range over the integers when Integer is
// set (the NGD attribute domain), otherwise over the rationals.
type System struct {
	NumVars int
	Cons    []Constraint
	Integer bool
}

// Status of a feasibility check.
type Status uint8

// Feasibility outcomes. Unknown is reported only when a budget (the node
// or ≠-split cap, the simplex's pivot cap, the Done channel) is exhausted.
const (
	Infeasible Status = iota
	Feasible
	Unknown
)

func (s Status) String() string {
	switch s {
	case Infeasible:
		return "infeasible"
	case Feasible:
		return "feasible"
	default:
		return "unknown"
	}
}

// Caps of the search, each applied to each independent part of the system
// (see Solve) on its own: maxNodes branch-and-bound nodes and maxNeSplits
// disjunctive ≠ splits. A part that would exceed either is Unknown.
const maxNeSplits = 16

var maxNodes = 4096 // a variable so that tests can shrink it

// Options carry a call's deadline.
type Options struct {
	// Done, when non-nil, aborts the search once the channel is closed
	// (polled per branch-and-bound node and every 32 simplex pivots);
	// an aborted Solve reports Unknown, never a wrong verdict. The solver
	// itself never reads a clock, so determinism is preserved: the caller
	// owns the deadline.
	Done <-chan struct{}
}

// Expired is a non-blocking poll of the Done channel.
func (o Options) Expired() bool {
	if o.Done == nil {
		return false
	}
	select {
	case <-o.Done:
		return true
	default:
		return false
	}
}

// Solve decides feasibility; on Feasible, the returned assignment satisfies
// every constraint (integral when s.Integer).
//
// Constraints that share a variable, transitively, form a part; the parts
// share no variable, so s is feasible iff every part is, and a witness is
// the parts' witnesses side by side (a variable no constraint names is 0).
// Each part is solved on its own tableau, under its own node and ≠-split
// caps: a part the whole-system search would refute is then refuted here
// within the same caps, whatever the other parts cost, so splitting can
// turn Unknown into a verdict but never a verdict into Unknown. Solve
// answers Infeasible at the first infeasible part and looks past an
// Unknown one for it.
func (s *System) Solve(opts Options) (Status, []*big.Rat) {
	asg := make([]*big.Rat, s.NumVars)
	sawUnknown := false
	for _, p := range s.parts() {
		st, w := p.sys.solve(opts)
		switch st {
		case Infeasible:
			return Infeasible, nil
		case Unknown:
			sawUnknown = true
		default:
			for i, v := range p.vars {
				asg[v] = w[i]
			}
		}
	}
	if sawUnknown {
		return Unknown, nil
	}
	for v := range asg {
		if asg[v] == nil {
			asg[v] = new(big.Rat)
		}
	}
	return Feasible, asg
}

// part is one independent part of a system: its constraints renumbered
// onto variables 0..len(vars)−1, where variable i is vars[i] of the whole.
type part struct {
	sys  *System
	vars []int
}

// parts splits s into its independent parts, in the order of their first
// constraints. Renumbering keeps the variables' and the constraints'
// relative order, so a part's simplex pivots and branches as it would
// inside the whole tableau. Constraints over no variable form one part of
// their own.
func (s *System) parts() []part {
	root := make([]int, s.NumVars)
	for v := range root {
		root[v] = v
	}
	find := func(v int) int {
		for root[v] != v {
			root[v] = root[root[v]]
			v = root[v]
		}
		return v
	}
	for _, c := range s.Cons {
		for _, v := range c.Vars {
			root[find(v)] = find(c.Vars[0])
		}
	}
	key := func(c Constraint) int { // c's root variable, NumVars for none
		if len(c.Vars) == 0 {
			return s.NumVars
		}
		return find(c.Vars[0])
	}
	of := make([]int, s.NumVars+1) // key → part + 1
	var out []part
	for _, c := range s.Cons {
		if k := key(c); of[k] == 0 {
			out = append(out, part{sys: &System{Integer: s.Integer}})
			of[k] = len(out)
		}
	}
	local := make([]int, s.NumVars)
	for v := range local {
		if i := of[find(v)]; i > 0 {
			p := &out[i-1]
			local[v] = len(p.vars)
			p.vars = append(p.vars, v)
		}
	}
	for _, c := range s.Cons {
		p := out[of[key(c)]-1].sys
		vars := make([]int, len(c.Vars))
		for k, v := range c.Vars {
			vars[k] = local[v]
		}
		p.Cons = append(p.Cons, Constraint{Vars: vars, Coef: c.Coef, Rel: c.Rel, RHS: c.RHS})
	}
	for i := range out {
		out[i].sys.NumVars = len(out[i].vars)
	}
	return out
}

// solve decides s as one part: ≠ constraints are split into < and >, then
// branch and bound runs on each ≠-free branch.
func (s *System) solve(opts Options) (Status, []*big.Rat) {
	neCount := 0
	for _, c := range s.Cons {
		if c.Rel == expr.Ne {
			neCount++
		}
	}
	if neCount > maxNeSplits {
		return Unknown, nil
	}
	budget := maxNodes
	return s.solveNe(opts, &budget)
}

func (s *System) solveNe(opts Options, budget *int) (Status, []*big.Rat) {
	for i, c := range s.Cons {
		if c.Rel != expr.Ne {
			continue
		}
		sawUnknown := false
		for _, rel := range [2]expr.Cmp{expr.Lt, expr.Gt} {
			branch := &System{NumVars: s.NumVars, Integer: s.Integer}
			branch.Cons = append(branch.Cons, s.Cons[:i]...)
			branch.Cons = append(branch.Cons, Constraint{Vars: c.Vars, Coef: c.Coef, Rel: rel, RHS: c.RHS})
			branch.Cons = append(branch.Cons, s.Cons[i+1:]...)
			st, asg := branch.solveNe(opts, budget)
			if st == Feasible {
				return Feasible, asg
			}
			if st == Unknown {
				sawUnknown = true
			}
		}
		if sawUnknown {
			return Unknown, nil
		}
		return Infeasible, nil
	}
	return s.branchAndBound(opts, budget)
}

// normalized converts every constraint to Σ coef·x ≤ rhs form (Eq becomes
// two inequalities); strict relations over the integers tighten by 1, over
// the rationals they are handled by the simplex via an ε-perturbation of
// the RHS (exact: we solve with rhs − ε as a symbolic infinitesimal folded
// into a lexicographic comparison; for simplicity and exactness we instead
// scale: a strict rational inequality Σc·x < r is feasible iff Σc·x ≤ r − δ
// is feasible for some δ > 0, which holds iff the non-strict system
// augmented with a fresh gap variable g > 0 ... here we use the integer
// path for NGDs and a small fixed δ for rationals, documented as such).
func (s *System) normalized() ([]Constraint, bool) {
	var out []Constraint
	for _, c := range s.Cons {
		switch c.Rel {
		case expr.Le:
			out = append(out, c)
		case expr.Ge:
			out = append(out, negate(c, expr.Le))
		case expr.Eq:
			out = append(out, Constraint{Vars: c.Vars, Coef: c.Coef, Rel: expr.Le, RHS: c.RHS})
			out = append(out, negate(c, expr.Le))
		case expr.Lt:
			out = append(out, s.strictToLe(c))
		case expr.Gt:
			out = append(out, s.strictToLe(negate(c, expr.Lt)))
		default:
			return nil, false // Ne must be eliminated before
		}
	}
	return out, true
}

// strictToLe converts a strict inequality Σ c·x < r into an equivalent
// non-strict one. Over the integers the conversion is exact: clear the
// coefficient denominators (×L, so the left side is integral over integer
// assignments), then Σ (Lc)·x < L·r  ⇔  Σ (Lc)·x ≤ ⌈L·r⌉ − 1.
// Over the rationals we subtract a small δ, which is sound (any solution of
// the tightened system solves the strict one) but incomplete for systems
// whose only strict-feasibility slack is below δ; the NGD reasoning layer
// always uses the exact integer path.
func (s *System) strictToLe(c Constraint) Constraint {
	if !s.Integer {
		nc := Constraint{Vars: c.Vars, Coef: c.Coef, Rel: expr.Le,
			RHS: new(big.Rat).Sub(c.RHS, big.NewRat(1, 1000000))}
		return nc
	}
	l := big.NewInt(1)
	for _, co := range c.Coef {
		l = lcm(l, co.Denom())
	}
	lr := new(big.Rat).SetInt(l)
	nc := Constraint{Vars: append([]int(nil), c.Vars...), Rel: expr.Le}
	nc.Coef = make([]*big.Rat, len(c.Coef))
	for i, co := range c.Coef {
		nc.Coef[i] = new(big.Rat).Mul(co, lr)
	}
	scaledRHS := new(big.Rat).Mul(c.RHS, lr)
	nc.RHS = new(big.Rat).Sub(ceilRat(scaledRHS), big.NewRat(1, 1))
	return nc
}

func lcm(a, b *big.Int) *big.Int {
	g := new(big.Int).GCD(nil, nil, a, b)
	q := new(big.Int).Quo(a, g)
	return q.Mul(q, b)
}

func ceilRat(r *big.Rat) *big.Rat {
	if r.IsInt() {
		return new(big.Rat).Set(r)
	}
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() > 0 {
		q.Add(q, big.NewInt(1))
	}
	return new(big.Rat).SetInt(q)
}

func floorBig(r *big.Rat) *big.Int {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() < 0 && !r.IsInt() {
		q.Sub(q, big.NewInt(1))
	}
	return q
}

func negate(c Constraint, rel expr.Cmp) Constraint {
	nc := Constraint{Vars: append([]int(nil), c.Vars...), Rel: rel}
	nc.Coef = make([]*big.Rat, len(c.Coef))
	for i, co := range c.Coef {
		nc.Coef[i] = new(big.Rat).Neg(co)
	}
	nc.RHS = new(big.Rat).Neg(c.RHS)
	return nc
}

// branchAndBound solves the ≠-free system.
func (s *System) branchAndBound(opts Options, budget *int) (Status, []*big.Rat) {
	if *budget <= 0 || opts.Expired() {
		return Unknown, nil
	}
	*budget--
	cons, ok := s.normalized()
	if !ok {
		return Unknown, nil
	}
	asg, feas, aborted := lpFeasible(s.NumVars, cons, opts.Done)
	if aborted {
		return Unknown, nil
	}
	if !feas {
		return Infeasible, nil
	}
	if !s.Integer {
		return Feasible, asg
	}
	// find a fractional variable
	frac := -1
	for i, v := range asg {
		if !v.IsInt() {
			frac = i
			break
		}
	}
	if frac < 0 {
		return Feasible, asg
	}
	fl := floorBig(asg[frac])
	flRat := new(big.Rat).SetInt(fl)
	ceRat := new(big.Rat).Add(flRat, big.NewRat(1, 1))

	sawUnknown := false
	// x ≤ ⌊v⌋ branch
	left := &System{NumVars: s.NumVars, Integer: true,
		Cons: append(append([]Constraint(nil), s.Cons...),
			Constraint{Vars: []int{frac}, Coef: []*big.Rat{big.NewRat(1, 1)}, Rel: expr.Le, RHS: flRat})}
	st, a := left.branchAndBound(opts, budget)
	if st == Feasible {
		return Feasible, a
	}
	if st == Unknown {
		sawUnknown = true
	}
	// x ≥ ⌈v⌉ branch
	right := &System{NumVars: s.NumVars, Integer: true,
		Cons: append(append([]Constraint(nil), s.Cons...),
			Constraint{Vars: []int{frac}, Coef: []*big.Rat{big.NewRat(1, 1)}, Rel: expr.Ge, RHS: ceRat})}
	st, a = right.branchAndBound(opts, budget)
	if st == Feasible {
		return Feasible, a
	}
	if st == Unknown || sawUnknown {
		return Unknown, nil
	}
	return Infeasible, nil
}
