package repair

// Attribute-reassignment solving. For one node n of the target match the
// rule's numeric literals are re-solved with n's attributes freed as integer
// variables, every other term folded in as a graph constant. A violation is
// cleared either by making X ∧ Y hold outright (branch A) or by falsifying
// one antecedent literal that mentions a freed attribute (branches B_i); the
// feasible assignment of minimal L1 perturbation over all branches wins.
// A literal reaches the solver the way internal/reason's do: expr.Cases
// splits it into linear atoms and solver.Assert turns each atom into a
// constraint; only the resolution of a term is this package's own. The
// system is solved for a witness instead of being decided, and Σ|x_i − o_i|
// is minimized by binary search over an added deviation bound (the solver
// has no objective row; over integers the search needs ⌈log₂ D₀⌉ extra
// Solve calls).

import (
	"math/big"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/solver"
)

// maxLeaves bounds abs-variant expansion per branch: each |·| in a literal
// doubles the case split, and a runaway rule must not stall the preview.
const maxLeaves = 64

// lit is one literal to assert, possibly negated.
type lit struct {
	l   core.Literal
	neg bool
}

// attempt is the best feasible reassignment found so far.
type attempt struct {
	ok   bool
	vals []int64 // per freed attr, solved value
	used []bool  // per freed attr, whether the winning branch constrained it
	dev  int64   // Σ|vals − old|
}

// solveNode frees node n's rule-constrained numeric attributes and searches
// all branches for the minimally-perturbed clearing assignment. A nil sets
// with non-empty why explains the failure (non-linear rule, infeasible
// system, exhausted budget); nil with empty why means n simply offers no
// freeable attribute.
func (e *enum) solveNode(n graph.NodeID) (sets []AttrSet, perturb int64, why string) {
	rule := e.target.Rule
	for _, l := range append(append([]core.Literal{}, rule.X...), rule.Y...) {
		if !l.IsLinear() {
			return nil, 0, "rule " + rule.Name + " has a non-linear literal; attribute repair needs linear arithmetic"
		}
	}

	sb := newBuilder(e, n)
	if len(sb.freedOrder) == 0 {
		return nil, 0, ""
	}

	// Branch A: make X ∧ Y hold. Branches B_i: falsify one X literal that
	// mentions a freed attribute (X currently holds, so every B_i demands a
	// real change; literals not mentioning a freed attribute cannot move).
	var branches [][]lit
	all := make([]lit, 0, len(rule.X)+len(rule.Y))
	for _, l := range rule.X {
		all = append(all, lit{l, false})
	}
	for _, l := range rule.Y {
		all = append(all, lit{l, false})
	}
	branches = append(branches, all)
	for _, l := range rule.X {
		if sb.touchesFreed(l) {
			branches = append(branches, []lit{{l, true}})
		}
	}

	var best attempt
	unknown := false
	for _, br := range branches {
		sb.cons = sb.cons[:0]
		sb.leaves = 0
		sb.explore(br, 0, func() {
			vals, used, dev, st := sb.solveLeaf()
			switch st {
			case leafFeasible:
				if !best.ok || dev < best.dev {
					best = attempt{ok: true, vals: vals, used: used, dev: dev}
				}
			case leafUnknown:
				unknown = true
			}
		})
		if sb.unknown {
			unknown = true
		}
		if e.opts.Solver.Expired() {
			unknown = true
			break
		}
	}

	if !best.ok {
		if unknown {
			return nil, 0, "solver budget exhausted before a feasible reassignment was found"
		}
		return nil, 0, "no feasible attribute reassignment of node clears the violation"
	}
	for i, attr := range sb.freedOrder {
		if sb.oldPresent[i] {
			if best.vals[i] != sb.oldVals[i] {
				old := sb.oldVals[i]
				sets = append(sets, AttrSet{Attr: attr, Old: &old, New: best.vals[i]})
			}
		} else if best.used[i] {
			// absent attribute the branch constrained: the fix creates it
			sets = append(sets, AttrSet{Attr: attr, New: best.vals[i]})
		}
	}
	if len(sets) == 0 {
		// the identity assignment cannot clear a real violation; distrust it
		return nil, 0, "solved assignment is a no-op"
	}
	return sets, best.dev, ""
}

// sysBuilder accumulates the constraint system of one branch leaf. Variables
// 0..k−1 are the freed attributes of node n (k = len(freedOrder)); the leaf
// solver appends deviation variables k..2k−1 on top.
type sysBuilder struct {
	e    *enum
	n    graph.NodeID
	rule *core.NGD
	m    core.Match
	b    expr.Binding

	freedOrder []string       // freed attr names, first-appearance order
	freedIdx   map[string]int // attr name → variable index
	oldVals    []int64        // committed value per freed attr (0 when absent)
	oldPresent []bool

	cons    []solver.Constraint
	leaves  int
	unknown bool
}

func newBuilder(e *enum, n graph.NodeID) *sysBuilder {
	rule, m := e.target.Rule, e.target.Match
	sb := &sysBuilder{
		e: e, n: n, rule: rule, m: m,
		b:        rule.Binding(e.g, m),
		freedIdx: make(map[string]int),
	}

	// attrs of n mentioned by string-bearing literals are pinned: their
	// truth must stay invariant under the fix
	pinned := make(map[string]bool)
	lits := append(append([]core.Literal{}, rule.X...), rule.Y...)
	for _, l := range lits {
		if l.L.HasString() || l.R.HasString() {
			sb.eachTermAt(l, func(attr string) { pinned[attr] = true })
		}
	}
	syms := e.g.Symbols()
	for _, l := range lits {
		if l.L.HasString() || l.R.HasString() {
			continue
		}
		sb.eachTermAt(l, func(attr string) {
			if pinned[attr] {
				return
			}
			if _, ok := sb.freedIdx[attr]; ok {
				return
			}
			v := e.g.Attr(n, syms.Attr(attr))
			var old int64
			present := v.Valid()
			if present {
				iv, ok := v.AsInt()
				if !ok {
					return // non-integer committed value: not freeable
				}
				old = iv
			}
			sb.freedIdx[attr] = len(sb.freedOrder)
			sb.freedOrder = append(sb.freedOrder, attr)
			sb.oldVals = append(sb.oldVals, old)
			sb.oldPresent = append(sb.oldPresent, present)
		})
	}
	return sb
}

// eachTermAt calls fn for every term x.A of l whose variable binds node n.
func (sb *sysBuilder) eachTermAt(l core.Literal, fn func(attr string)) {
	walk := func(variable, attr string) {
		if idx := sb.rule.Pattern.VarIndex(variable); idx >= 0 && sb.m[idx] == sb.n {
			fn(attr)
		}
	}
	l.L.Terms(walk)
	l.R.Terms(walk)
}

func (sb *sysBuilder) touchesFreed(l core.Literal) bool {
	found := false
	sb.eachTermAt(l, func(attr string) {
		if _, ok := sb.freedIdx[attr]; ok {
			found = true
		}
	})
	return found
}

// explore asserts lits[i:] into the system, fanning out over each
// literal's cases (expr.Cases), and calls leaf once per fully-asserted
// consistent leaf.
func (sb *sysBuilder) explore(lits []lit, i int, leaf func()) {
	if sb.e.opts.Solver.Expired() {
		sb.unknown = true
		return
	}
	if i == len(lits) {
		if sb.leaves >= maxLeaves {
			sb.unknown = true
			return
		}
		sb.leaves++
		leaf()
		return
	}
	li := lits[i]
	if li.l.L.HasString() || li.l.R.HasString() {
		// string literals are invariant under the fix (string-bearing attrs
		// are pinned): their current truth decides the branch
		sat := li.l.Satisfied(sb.b)
		if sat == li.neg {
			return // branch contradicts an immovable literal
		}
		sb.explore(lits, i+1, leaf)
		return
	}
	op := li.l.Op
	if li.neg {
		op = op.Negate()
	}
	for _, atoms := range expr.Cases(li.l.L, op, li.l.R) {
		mark := len(sb.cons)
		if sb.assert(atoms) {
			sb.explore(lits, i+1, leaf)
		}
		sb.cons = sb.cons[:mark]
		if sb.e.opts.Solver.Expired() || sb.unknown && sb.leaves >= maxLeaves {
			sb.unknown = true
			return
		}
	}
}

// assert appends one case's atoms to the system; false means the case
// cannot hold as grounded (a nil case, a false ground atom, or a term that
// does not resolve to an integer).
func (sb *sysBuilder) assert(atoms []expr.Atom) bool {
	if atoms == nil {
		return false
	}
	for _, a := range atoms {
		var ok bool
		if sb.cons, ok = solver.Assert(sb.cons, a, sb.term); !ok {
			return false
		}
	}
	return true
}

// term resolves x.A to its freed variable when x binds node n and A is
// freed, and otherwise folds it in as its committed graph value.
func (sb *sysBuilder) term(k expr.TermKey) (int, int64, bool) {
	idx := sb.rule.Pattern.VarIndex(k.Var)
	if idx < 0 {
		return 0, 0, false
	}
	if vi, ok := sb.freedIdx[k.Attr]; ok && sb.m[idx] == sb.n {
		return vi, 0, true
	}
	val, ok := sb.b(k.Var, k.Attr)
	if !ok {
		return 0, 0, false // unresolvable and not freed: cannot hold
	}
	iv, ok := val.AsInt()
	return -1, iv, ok
}

type leafStatus int

const (
	leafInfeasible leafStatus = iota
	leafFeasible
	leafUnknown
)

// solveLeaf solves the accumulated system for the minimally-perturbed
// integral witness. Deviation variables d_i ≥ |x_i − o_i| are adjoined and
// Σd_i is driven down by binary search; a budget blowout mid-search keeps
// the best witness found (a valid fix, possibly non-minimal).
func (sb *sysBuilder) solveLeaf() (vals []int64, used []bool, dev int64, st leafStatus) {
	k := len(sb.freedOrder)
	used = make([]bool, k)
	for _, c := range sb.cons {
		for _, vi := range c.Vars {
			if vi < k {
				used[vi] = true
			}
		}
	}

	one := big.NewRat(1, 1)
	negOne := big.NewRat(-1, 1)
	base := make([]solver.Constraint, len(sb.cons), len(sb.cons)+3*k+1)
	copy(base, sb.cons)
	for i := 0; i < k; i++ {
		o := big.NewRat(sb.oldVals[i], 1)
		base = append(base,
			solver.NewConstraint([]int{i, k + i}, []*big.Rat{one, negOne}, expr.Le, o),
			solver.NewConstraint([]int{i, k + i}, []*big.Rat{negOne, negOne}, expr.Le, new(big.Rat).Neg(o)),
			solver.NewConstraint([]int{k + i}, []*big.Rat{one}, expr.Ge, new(big.Rat)),
		)
	}
	sumVars := make([]int, k)
	sumCoef := make([]*big.Rat, k)
	for i := 0; i < k; i++ {
		sumVars[i] = k + i
		sumCoef[i] = one
	}

	solve := func(bound int64, bounded bool) (solver.Status, []int64, int64) {
		cons := base
		if bounded {
			cons = append(base[:len(base):len(base)],
				solver.NewConstraint(sumVars, sumCoef, expr.Le, big.NewRat(bound, 1)))
		}
		sys := &solver.System{NumVars: 2 * k, Cons: cons, Integer: true}
		sb.e.stats.SolverCalls++
		status, w := sys.Solve(sb.e.opts.Solver)
		if status != solver.Feasible {
			return status, nil, 0
		}
		xs := make([]int64, k)
		d := new(big.Int)
		for i := 0; i < k; i++ {
			num := w[i].Num()
			if !num.IsInt64() {
				return solver.Unknown, nil, 0 // out-of-range witness: give up
			}
			xs[i] = num.Int64()
			dev := new(big.Int).Sub(num, big.NewInt(sb.oldVals[i]))
			d.Add(d, dev.Abs(dev))
		}
		if !d.IsInt64() {
			return solver.Unknown, nil, 0 // Σ|x − o| leaves int64: give up alike
		}
		return solver.Feasible, xs, d.Int64()
	}

	status, xs, d0 := solve(0, false)
	switch status {
	case solver.Infeasible:
		return nil, nil, 0, leafInfeasible
	case solver.Unknown:
		return nil, nil, 0, leafUnknown
	}
	vals, dev = xs, d0

	// minimal Σ|x−o| lies in [0, d0]: shrink by bisection, each feasible
	// probe tightening hi to the deviation its witness actually achieves
	lo, hi := int64(0), d0
	for lo < hi {
		mid := lo + (hi-lo)/2
		st2, xs2, d2 := solve(mid, true)
		switch st2 {
		case solver.Feasible:
			vals, dev, hi = xs2, d2, d2
		case solver.Infeasible:
			lo = mid + 1
		default:
			return vals, used, dev, leafFeasible // budget: keep best witness
		}
	}
	return vals, used, dev, leafFeasible
}
