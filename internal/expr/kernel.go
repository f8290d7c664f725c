package expr

import (
	"math/big"
	"sort"

	"ngd/internal/graph"
)

// Kernel is a literal L ⊗ R compiled once for the hot paths — detection, the
// session's attribute pass and the repair preview — where Compare would
// re-walk both expression trees through a string-keyed Binding and allocate
// big.Rat values per match. Each side is a string constant or an integer
// linear form Σ cᵢ·(slotᵢ, attrᵢ) + c₀, optionally in absolute value, with
// both sides multiplied by the positive LCM of every denominator — which
// changes neither ⊗ nor |·|. Kernel and Compare are the package's only two
// evaluators, and Compare is the specification: Eval answers in int64 only
// where it provably agrees with it and reports decided=false otherwise.
//
// The zero Kernel decides nothing. A Kernel is immutable and safe for
// concurrent use.
type Kernel struct {
	ok   bool
	op   Cmp
	l, r kside
}

type kterm struct {
	slot int
	attr graph.AttrID
	c    int64
}

// kside is one compiled side. bare marks a side that is a single term in the
// source: the only place a string value is an operand rather than a type
// error (Compare's x.A = y.B and x.A ≠ "c").
type kside struct {
	terms     []kterm // ordered by (slot, attr)
	c0        int64
	abs, bare bool
	isStr     bool
	str       string
}

// CompileKernel compiles l ⊗ r against a symbol table. slot maps a pattern
// variable to its index in the partial solutions Eval will read (negative:
// unknown). Compilation refuses — OK reports false and the literal stays on
// Compare — whenever the linear form would not mean what the tree means:
//
//   - a term whose coefficient cancels to zero (x.a − x.a = 0 must still
//     fail when x.a is absent, and the form no longer mentions it);
//   - anything Linearize rejects: a zero constant divisor (Compare's
//     ErrDivZero), |·| over variables below the top of a side, a string
//     inside arithmetic, non-linear products;
//   - a scaled coefficient or constant outside int64;
//   - a variable slot cannot resolve, or an attribute name syms has not
//     interned: the id a later batch gives it cannot be compiled in now.
func CompileKernel(l *Expr, op Cmp, r *Expr, slot func(variable string) int, syms *graph.Symbols) Kernel {
	lf, lok := sideForm(l)
	rf, rok := sideForm(r)
	if !lok || !rok {
		return Kernel{}
	}
	scale := big.NewInt(1)
	lf.denomLCM(scale)
	rf.denomLCM(scale)
	lk, lok := lf.compile(scale, slot, syms)
	rk, rok := rf.compile(scale, slot, syms)
	if !lok || !rok {
		return Kernel{}
	}
	return Kernel{ok: true, op: op, l: lk, r: rk}
}

// OK reports whether compilation succeeded; Eval on a refused kernel never
// decides.
func (k *Kernel) OK() bool { return k.ok }

// sideSrc is one side between Linearize and integer scaling.
type sideSrc struct {
	e    *Expr
	form *LinearForm // nil for a string constant
	abs  bool
}

func sideForm(e *Expr) (sideSrc, bool) {
	s := sideSrc{e: e}
	if e.Op == OpStr {
		return s, true
	}
	inner := e
	if e.Op == OpAbs && e.L.Degree() > 0 {
		inner, s.abs = e.L, true
	}
	f, err := Linearize(inner)
	if err != nil {
		return s, false
	}
	distinct := make(map[TermKey]struct{})
	inner.Terms(func(v, a string) { distinct[TermKey{v, a}] = struct{}{} })
	if len(distinct) != len(f.Coeffs) {
		return s, false // a term cancelled
	}
	s.form = f
	return s, true
}

// denomLCM folds the side's denominators into lcm (positive throughout:
// big.Rat keeps denominators > 0).
func (s sideSrc) denomLCM(lcm *big.Int) {
	if s.form == nil {
		return
	}
	fold := func(q *big.Rat) {
		g := new(big.Int).GCD(nil, nil, lcm, q.Denom())
		lcm.Mul(lcm, new(big.Int).Quo(q.Denom(), g))
	}
	fold(s.form.Const)
	for _, c := range s.form.Coeffs {
		fold(c)
	}
}

func (s sideSrc) compile(scale *big.Int, slot func(string) int, syms *graph.Symbols) (kside, bool) {
	if s.form == nil {
		return kside{isStr: true, str: s.e.Str}, true
	}
	scaled := func(q *big.Rat) (int64, bool) {
		n := new(big.Int).Mul(q.Num(), scale)
		n.Quo(n, q.Denom()) // exact: scale is a multiple of the denominator
		return n.Int64(), n.IsInt64()
	}
	out := kside{abs: s.abs, bare: s.e.Op == OpVar, terms: make([]kterm, 0, len(s.form.Coeffs))}
	var ok bool
	if out.c0, ok = scaled(s.form.Const); !ok {
		return kside{}, false
	}
	for key, q := range s.form.Coeffs {
		t := kterm{slot: slot(key.Var), attr: syms.LookupAttr(key.Attr)}
		if t.c, ok = scaled(q); !ok || t.slot < 0 || t.attr < 0 {
			return kside{}, false
		}
		out.terms = append(out.terms, t)
	}
	sort.Slice(out.terms, func(i, j int) bool {
		a, b := out.terms[i], out.terms[j]
		if a.slot != b.slot {
			return a.slot < b.slot
		}
		return a.attr < b.attr
	})
	return out, true
}

// sideState is what evaluating one side produced.
type sideState uint8

const (
	sideNum       sideState = iota // an int64
	sideStr                        // a string operand
	sideUnsat                      // missing attribute or non-integral float: Compare errors
	sideUndecided                  // overflow, or a string inside arithmetic: ask Compare
)

func (s *kside) eval(g graph.View, partial []graph.NodeID) (int64, string, sideState) {
	if s.isStr {
		return 0, s.str, sideStr
	}
	n := s.c0
	for i := range s.terms {
		t := &s.terms[i]
		v := g.Attr(partial[t.slot], t.attr)
		switch v.Kind() {
		case graph.KindInvalid:
			return 0, "", sideUnsat
		case graph.KindString:
			if s.bare {
				str, _ := v.AsString()
				return 0, str, sideStr
			}
			return 0, "", sideUndecided
		}
		x, ok := v.AsInt()
		if !ok {
			return 0, "", sideUnsat
		}
		p, ok1 := mulOvf(t.c, x)
		sum, ok2 := addOvf(n, p)
		if !ok1 || !ok2 {
			return 0, "", sideUndecided
		}
		n = sum
	}
	if s.abs && n < 0 {
		if n == minInt64 {
			return 0, "", sideUndecided
		}
		n = -n
	}
	return n, "", sideNum
}

// Eval decides the literal for the match held in partial (every variable of
// the literal bound) over g. decided=false — int64 overflow, a string value
// inside arithmetic, a refused kernel — means the caller must ask Compare;
// otherwise sat is exactly what Compare would report, including the §3 rule
// that a missing attribute, a non-integral float or a string/number mix
// leaves the literal unsatisfied.
func (k *Kernel) Eval(g graph.View, partial []graph.NodeID) (sat, decided bool) {
	if !k.ok {
		return false, false
	}
	ln, ls, lst := k.l.eval(g, partial)
	if lst == sideUnsat {
		return false, true
	}
	rn, rs, rst := k.r.eval(g, partial)
	switch {
	case rst == sideUnsat:
		return false, true
	case lst == sideUndecided || rst == sideUndecided:
		return false, false
	case lst != rst:
		return false, true // string against number
	case lst == sideStr:
		switch k.op {
		case Eq:
			return ls == rs, true
		case Ne:
			return ls != rs, true
		default:
			return false, true // strings are not ordered
		}
	}
	switch {
	case ln < rn:
		return k.op.Holds(-1), true
	case ln > rn:
		return k.op.Holds(1), true
	default:
		return k.op.Holds(0), true
	}
}

const minInt64 = -1 << 63

func addOvf(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func mulOvf(a, b int64) (int64, bool) {
	if int64(int32(a)) == a && int64(int32(b)) == b {
		return a * b, true // 32-bit factors cannot overflow: skip the division
	}
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	// MinInt64 / -1 wraps back to MinInt64, so the division check alone
	// would accept MinInt64 × -1
	if p/b != a || (a == minInt64 && b == -1) {
		return 0, false
	}
	return p, true
}
