package reason

import (
	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/solver"
)

// varKey identifies an unknown: attribute A of canonical node v.
type varKey struct {
	node graph.NodeID
	attr string
}

// search carries the branching state: numeric constraints destined for the
// integer solver, attribute-presence decisions, and a small string-equality
// theory (string literals admit only = and ≠, §3).
type search struct {
	g    *graph.Graph
	opts Options

	varIdx map[varKey]int
	nVars  int

	cons []solver.Constraint // numeric constraints (append-only + truncate)

	presence map[varKey]bool // decided presence; absent key = undecided

	strEq map[varKey]string   // var bound to a string constant
	strNe map[varKey][]string // var excluded constants
	isStr map[varKey]bool     // type decision: true=string, false=numeric
}

func newSearch(g *graph.Graph, opts Options) *search {
	return &search{
		g: g, opts: opts,
		varIdx:   make(map[varKey]int),
		presence: make(map[varKey]bool),
		strEq:    make(map[varKey]string),
		strNe:    make(map[varKey][]string),
		isStr:    make(map[varKey]bool),
	}
}

// snapshot/undo: maps are copied lazily via trails.
type snapshot struct {
	nCons    int
	presence map[varKey]bool
	strEq    map[varKey]string
	strNe    map[varKey][]string
	isStr    map[varKey]bool
}

func copyMap[K comparable, V any](m map[K]V) map[K]V {
	c := make(map[K]V, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func (s *search) save() snapshot {
	return snapshot{
		nCons:    len(s.cons),
		presence: copyMap(s.presence),
		strEq:    copyMap(s.strEq),
		strNe:    copyMap(s.strNe),
		isStr:    copyMap(s.isStr),
	}
}

func (s *search) restore(sn snapshot) {
	s.cons = s.cons[:sn.nCons]
	s.presence = sn.presence
	s.strEq = sn.strEq
	s.strNe = sn.strNe
	s.isStr = sn.isStr
}

func (s *search) varOf(k varKey) int {
	if i, ok := s.varIdx[k]; ok {
		return i
	}
	i := s.nVars
	s.varIdx[k] = i
	s.nVars++
	return i
}

// requirePresent marks k present; false on conflict.
func (s *search) requirePresent(k varKey) bool {
	if p, ok := s.presence[k]; ok {
		return p
	}
	s.presence[k] = true
	return true
}

// requireAbsent marks k absent; false on conflict.
func (s *search) requireAbsent(k varKey) bool {
	if p, ok := s.presence[k]; ok {
		return !p
	}
	s.presence[k] = false
	return true
}

// setType constrains k's type; false on conflict.
func (s *search) setType(k varKey, str bool) bool {
	if t, ok := s.isStr[k]; ok {
		return t == str
	}
	s.isStr[k] = str
	return true
}

// ---- literal instantiation ----

// termKeys substitutes the match into an expression's terms.
func termKeysOf(e *expr.Expr, rule *core.NGD, m core.Match) ([]varKey, bool) {
	ok := true
	var keys []varKey
	e.Terms(func(v, a string) {
		idx := rule.Pattern.VarIndex(v)
		if idx < 0 || idx >= len(m) {
			ok = false
			return
		}
		keys = append(keys, varKey{m[idx], a})
	})
	return keys, ok
}

// isBareStringLiteral recognizes literals whose sides are a lone term or a
// string constant, at least one side being a string constant (the only
// string comparisons NGDs support: CFD-style constant bindings).
func isBareStringLiteral(l core.Literal) bool {
	bare := func(e *expr.Expr) bool { return e.Op == expr.OpVar || e.Op == expr.OpStr }
	return bare(l.L) && bare(l.R) && (l.L.Op == expr.OpStr || l.R.Op == expr.OpStr)
}

// addLiteral asserts literal l (negated if neg) under match m of rule.
// It may branch internally (abs elimination, ≠ handled by the solver).
// Returns the list of alternative continuations: each alternative is a
// function applying its constraints, returning false on contradiction.
// The caller explores them with save/restore.
func (s *search) addLiteral(rule *core.NGD, m core.Match, l core.Literal, neg bool) []func() bool {
	op := l.Op
	if neg {
		op = op.Negate()
	}
	// string path
	if l.L.HasString() || l.R.HasString() {
		if !isBareStringLiteral(l) {
			// strings inside arithmetic never evaluate (§3: type error ⇒
			// literal unsatisfied): asserting it positively is impossible;
			// asserting its negation is vacuous.
			if neg {
				return []func() bool{func() bool { return true }}
			}
			return nil
		}
		return s.addStringLiteral(rule, m, l.L, op, l.R)
	}
	// numeric path: every term present and numeric, then one case of l ⊗ r
	keys, okL := termKeysOf(l.L, rule, m)
	keysR, okR := termKeysOf(l.R, rule, m)
	if !okL || !okR {
		return nil
	}
	keys = append(keys, keysR...)
	term := func(k expr.TermKey) (int, int64, bool) {
		// termKeysOf has checked every variable of l
		idx := rule.Pattern.VarIndex(k.Var)
		return s.varOf(varKey{m[idx], k.Attr}), 0, true
	}
	var alts []func() bool
	for _, atoms := range expr.Cases(l.L, op, l.R) {
		alts = append(alts, func() bool {
			for _, k := range keys {
				if !s.requirePresent(k) || !s.setType(k, false) {
					return false
				}
			}
			if atoms == nil {
				return false
			}
			for _, a := range atoms {
				var ok bool
				if s.cons, ok = solver.Assert(s.cons, a, term); !ok {
					return false
				}
			}
			return true
		})
	}
	return alts
}

// addStringLiteral handles t ⊗ "c", "c" ⊗ t, "a" ⊗ "b", or t1 ⊗ t2 with a
// string side; ⊗ ∈ {=, ≠} only (ordered string comparison never holds).
func (s *search) addStringLiteral(rule *core.NGD, m core.Match, lhs *expr.Expr, op expr.Cmp, rhs *expr.Expr) []func() bool {
	if op != expr.Eq && op != expr.Ne {
		return nil // cannot hold (its negation is Eq/Ne and handled there)
	}
	// resolve sides
	type side struct {
		isConst bool
		c       string
		k       varKey
	}
	resolve := func(e *expr.Expr) (side, bool) {
		if e.Op == expr.OpStr {
			return side{isConst: true, c: e.Str}, true
		}
		idx := rule.Pattern.VarIndex(e.Var)
		if idx < 0 || idx >= len(m) {
			return side{}, false
		}
		return side{k: varKey{m[idx], e.Attr}}, true
	}
	a, ok1 := resolve(lhs)
	b, ok2 := resolve(rhs)
	if !ok1 || !ok2 {
		return nil
	}
	apply := func() bool {
		switch {
		case a.isConst && b.isConst:
			if op == expr.Eq {
				return a.c == b.c
			}
			return a.c != b.c
		case a.isConst:
			a, b = b, a
			fallthrough
		default:
			// a is a variable
			if !s.requirePresent(a.k) || !s.setType(a.k, true) {
				return false
			}
			if !b.isConst {
				// var-var string comparison: unsupported shape in rules we
				// generate; approximate by requiring both present and, for
				// equality, binding through a shared constant is not
				// expressible — reject this branch conservatively.
				return false
			}
			if op == expr.Eq {
				if cur, ok := s.strEq[a.k]; ok {
					return cur == b.c
				}
				for _, ex := range s.strNe[a.k] {
					if ex == b.c {
						return false
					}
				}
				s.strEq[a.k] = b.c
				return true
			}
			if cur, ok := s.strEq[a.k]; ok {
				return cur != b.c
			}
			s.strNe[a.k] = append(s.strNe[a.k], b.c)
			return true
		}
	}
	return []func() bool{apply}
}

// ---- top-level search over implications ----

// searchImplications explores ways to make every obligation hold (and the
// negated rule fail, when negate != nil). Yes = a consistent assignment
// exists.
func (s *search) searchImplications(obls []implication, i int, negate *core.NGD, negMatch core.Match, budget *int) Verdict {
	// the deadline is polled once per branch: the poll is noise next to the
	// per-branch snapshot map copies, and a coarser stride lets expensive
	// solver leaves overshoot the deadline
	if *budget <= 0 || s.opts.expired() {
		return Unknown
	}
	*budget--
	if i == len(obls) {
		if negate != nil {
			return s.searchViolation(negate, negMatch, budget)
		}
		return s.checkNumeric()
	}
	ob := obls[i]
	sawUnknown := false

	// Option A: satisfy all of X and all of Y
	if v := s.tryAll(ob, append(append([]core.Literal{}, ob.rule.X...), ob.rule.Y...), func() Verdict {
		return s.searchImplications(obls, i+1, negate, negMatch, budget)
	}); v == Yes {
		return Yes
	} else if v == Unknown {
		sawUnknown = true
	}

	// Option B: falsify some X literal
	for xi := range ob.rule.X {
		v := s.tryFalsify(ob, ob.rule.X[xi], func() Verdict {
			return s.searchImplications(obls, i+1, negate, negMatch, budget)
		})
		if v == Yes {
			return Yes
		}
		if v == Unknown {
			sawUnknown = true
		}
	}
	if sawUnknown {
		return Unknown
	}
	return No
}

// searchViolation requires X(negate) to hold and some Y literal to fail on
// negMatch.
func (s *search) searchViolation(negate *core.NGD, m core.Match, budget *int) Verdict {
	ob := implication{rule: negate, m: m}
	sawUnknown := false
	for yi := range negate.Y {
		v := s.tryAll(ob, negate.X, func() Verdict {
			return s.tryFalsify(ob, negate.Y[yi], s.checkNumeric)
		})
		if v == Yes {
			return Yes
		}
		if v == Unknown {
			sawUnknown = true
		}
	}
	if len(negate.Y) == 0 {
		// X → ∅ cannot be violated
		return No
	}
	if sawUnknown {
		return Unknown
	}
	return No
}

// tryAll asserts a conjunction of literals (branching on abs variants) and
// calls cont at every consistent leaf.
func (s *search) tryAll(ob implication, lits []core.Literal, cont func() Verdict) Verdict {
	var rec func(j int) Verdict
	rec = func(j int) Verdict {
		if j == len(lits) {
			return cont()
		}
		alts := s.addLiteral(ob.rule, ob.m, lits[j], false)
		sawUnknown := false
		for _, alt := range alts {
			sn := s.save()
			if alt() {
				if v := rec(j + 1); v == Yes {
					return Yes
				} else if v == Unknown {
					sawUnknown = true
				}
			}
			s.restore(sn)
		}
		if sawUnknown {
			return Unknown
		}
		return No
	}
	return rec(0)
}

// tryFalsify asserts ¬l: either some term's attribute is absent, or every
// term resolves and the negated comparison holds.
func (s *search) tryFalsify(ob implication, l core.Literal, cont func() Verdict) Verdict {
	sawUnknown := false
	// failure mode 1: a term's attribute is missing
	keysL, okL := termKeysOf(l.L, ob.rule, ob.m)
	keysR, okR := termKeysOf(l.R, ob.rule, ob.m)
	if !okL || !okR {
		return No
	}
	seen := map[varKey]struct{}{}
	for _, k := range append(keysL, keysR...) {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		sn := s.save()
		if s.requireAbsent(k) {
			if v := cont(); v == Yes {
				return Yes
			} else if v == Unknown {
				sawUnknown = true
			}
		}
		s.restore(sn)
	}
	// failure mode 2: all attributes present, comparison negated
	for _, alt := range s.addLiteral(ob.rule, ob.m, l, true) {
		sn := s.save()
		if alt() {
			if v := cont(); v == Yes {
				return Yes
			} else if v == Unknown {
				sawUnknown = true
			}
		}
		s.restore(sn)
	}
	if sawUnknown {
		return Unknown
	}
	return No
}

// checkNumeric runs the integer feasibility check on the accumulated
// constraints.
func (s *search) checkNumeric() Verdict {
	sys := &solver.System{NumVars: s.nVars, Cons: s.cons, Integer: true}
	st, _ := sys.Solve(s.opts.solver())
	switch st {
	case solver.Feasible:
		return Yes
	case solver.Infeasible:
		return No
	default:
		return Unknown
	}
}
