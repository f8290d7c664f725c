package expr

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
	"strings"

	"ngd/internal/graph"
)

// ErrNonLinear reports an expression outside the linear grammar of §3.
var ErrNonLinear = errors.New("expr: non-linear expression")

// TermKey identifies a term x.A in a linear form.
type TermKey struct {
	Var  string
	Attr string
}

func (k TermKey) String() string { return k.Var + "." + k.Attr }

// LinearForm is a normalized linear expression Σ cᵢ·(xᵢ.Aᵢ) + Const over
// exact rationals, the shape the feasibility solver consumes.
type LinearForm struct {
	Coeffs map[TermKey]*big.Rat
	Const  *big.Rat
}

// NewLinearForm returns the zero form.
func NewLinearForm() *LinearForm {
	return &LinearForm{Coeffs: make(map[TermKey]*big.Rat), Const: new(big.Rat)}
}

func (f *LinearForm) addCoeff(k TermKey, c *big.Rat) {
	if cur, ok := f.Coeffs[k]; ok {
		cur.Add(cur, c)
		if cur.Sign() == 0 {
			delete(f.Coeffs, k)
		}
		return
	}
	if c.Sign() != 0 {
		f.Coeffs[k] = new(big.Rat).Set(c)
	}
}

// Add accumulates scale·g into f.
func (f *LinearForm) Add(g *LinearForm, scale *big.Rat) {
	for k, c := range g.Coeffs {
		f.addCoeff(k, new(big.Rat).Mul(c, scale))
	}
	f.Const.Add(f.Const, new(big.Rat).Mul(g.Const, scale))
}

// Scale multiplies f by c in place.
func (f *LinearForm) Scale(c *big.Rat) {
	for k, v := range f.Coeffs {
		v.Mul(v, c)
		if v.Sign() == 0 {
			delete(f.Coeffs, k)
		}
	}
	f.Const.Mul(f.Const, c)
}

// String renders the form deterministically (sorted terms).
func (f *LinearForm) String() string {
	keys := make([]TermKey, 0, len(f.Coeffs))
	for k := range f.Coeffs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Var != keys[j].Var {
			return keys[i].Var < keys[j].Var
		}
		return keys[i].Attr < keys[j].Attr
	})
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s·%s + ", f.Coeffs[k].RatString(), k)
	}
	fmt.Fprintf(&b, "%s", f.Const.RatString())
	return b.String()
}

func constEval(e *Expr) (*big.Rat, error) {
	return EvalBig(e, func(string, string) (graph.Value, bool) {
		return graph.Value{}, false
	})
}

// Linearize converts a linear expression (no |·| over variables) into a
// LinearForm. It returns ErrNonLinear for non-linear input, variable-argument
// Abs (expand with AbsVariants first), or string constants.
func Linearize(e *Expr) (*LinearForm, error) {
	switch e.Op {
	case OpConst:
		f := NewLinearForm()
		f.Const.SetInt64(e.Const)
		return f, nil
	case OpStr:
		return nil, ErrType
	case OpVar:
		f := NewLinearForm()
		f.Coeffs[TermKey{e.Var, e.Attr}] = big.NewRat(1, 1)
		return f, nil
	case OpNeg:
		f, err := Linearize(e.L)
		if err != nil {
			return nil, err
		}
		f.Scale(big.NewRat(-1, 1))
		return f, nil
	case OpAbs:
		if e.L.Degree() == 0 {
			c, err := constEval(e)
			if err != nil {
				return nil, err
			}
			f := NewLinearForm()
			f.Const.Set(c)
			return f, nil
		}
		return nil, ErrNonLinear
	case OpAdd, OpSub:
		l, err := Linearize(e.L)
		if err != nil {
			return nil, err
		}
		r, err := Linearize(e.R)
		if err != nil {
			return nil, err
		}
		scale := big.NewRat(1, 1)
		if e.Op == OpSub {
			scale.SetInt64(-1)
		}
		l.Add(r, scale)
		return l, nil
	case OpMul:
		// exactly one side may carry variables
		ldeg, rdeg := e.L.Degree(), e.R.Degree()
		switch {
		case rdeg == 0:
			c, err := constEval(e.R)
			if err != nil {
				return nil, err
			}
			f, err := Linearize(e.L)
			if err != nil {
				return nil, err
			}
			f.Scale(c)
			return f, nil
		case ldeg == 0:
			c, err := constEval(e.L)
			if err != nil {
				return nil, err
			}
			f, err := Linearize(e.R)
			if err != nil {
				return nil, err
			}
			f.Scale(c)
			return f, nil
		default:
			return nil, ErrNonLinear
		}
	case OpDiv:
		if e.R.Degree() != 0 {
			return nil, ErrNonLinear
		}
		c, err := constEval(e.R)
		if err != nil {
			return nil, err
		}
		if c.Sign() == 0 {
			return nil, ErrDivZero
		}
		f, err := Linearize(e.L)
		if err != nil {
			return nil, err
		}
		f.Scale(new(big.Rat).Inv(c))
		return f, nil
	default:
		return nil, fmt.Errorf("expr: bad op %d", e.Op)
	}
}

// Clone deep-copies e.
func (e *Expr) Clone() *Expr {
	if e == nil {
		return nil
	}
	c := *e
	c.L = e.L.Clone()
	c.R = e.R.Clone()
	return &c
}

// SignCond is a side condition produced by abs-elimination: Inner ≥ 0 when
// NonNeg, otherwise Inner < 0.
type SignCond struct {
	Inner  *Expr
	NonNeg bool
}

// AbsVariant is one abs-free rewriting of an expression together with the
// sign conditions under which it equals the original.
type AbsVariant struct {
	Expr  *Expr
	Conds []SignCond
}

// AbsVariants eliminates every |·| over variables by case-splitting on the
// sign of the argument, yielding up to 2^k variants. Constant-argument abs
// nodes are left in place (Linearize folds them).
func AbsVariants(e *Expr) []AbsVariant {
	target := findVarAbs(e)
	if target == nil {
		return []AbsVariant{{Expr: e}}
	}
	inner := target.Inner
	pos := replaceAbs(e, target.Path, inner.Clone())
	neg := replaceAbs(e, target.Path, Neg(inner.Clone()))
	var out []AbsVariant
	for _, v := range AbsVariants(pos) {
		out = append(out, AbsVariant{
			Expr:  v.Expr,
			Conds: append([]SignCond{{Inner: inner.Clone(), NonNeg: true}}, v.Conds...),
		})
	}
	for _, v := range AbsVariants(neg) {
		out = append(out, AbsVariant{
			Expr:  v.Expr,
			Conds: append([]SignCond{{Inner: inner.Clone(), NonNeg: false}}, v.Conds...),
		})
	}
	return out
}

// Atom is the linear constraint Form ⊗ 0.
type Atom struct {
	Form *LinearForm
	Op   Cmp
}

// Cases translates the literal l ⊗ r into the solver's shape: a
// disjunction of cases, each a conjunction of atoms. Every |·| over
// variables in l − r is split on the sign of its argument (AbsVariants);
// a case lists its sign conditions first and the literal last. A case that
// does not linearize (a string, a non-linear product, a zero divisor) is
// nil: callers fail it, and it stays in the list so that they count it
// like any other case.
func Cases(l *Expr, op Cmp, r *Expr) [][]Atom {
	variants := AbsVariants(Sub(l, r))
	out := make([][]Atom, len(variants))
	for i, v := range variants {
		out[i] = linearCase(v, op)
	}
	return out
}

func linearCase(v AbsVariant, op Cmp) []Atom {
	atoms := make([]Atom, 0, len(v.Conds)+1)
	for _, c := range v.Conds {
		f, err := Linearize(c.Inner)
		if err != nil {
			return nil
		}
		sign := Lt
		if c.NonNeg {
			sign = Ge
		}
		atoms = append(atoms, Atom{Form: f, Op: sign})
	}
	f, err := Linearize(v.Expr)
	if err != nil {
		return nil
	}
	return append(atoms, Atom{Form: f, Op: op})
}

type absSite struct {
	Inner *Expr
	Path  []byte // 'L'/'R' steps from the root to the Abs node
}

func findVarAbs(e *Expr) *absSite {
	return findVarAbsAt(e, nil)
}

func findVarAbsAt(e *Expr, path []byte) *absSite {
	if e == nil {
		return nil
	}
	if e.Op == OpAbs && e.L.Degree() > 0 {
		return &absSite{Inner: e.L, Path: append([]byte(nil), path...)}
	}
	if s := findVarAbsAt(e.L, append(path, 'L')); s != nil {
		return s
	}
	return findVarAbsAt(e.R, append(path, 'R'))
}

// replaceAbs returns a copy of e with the node at path replaced by repl.
func replaceAbs(e *Expr, path []byte, repl *Expr) *Expr {
	if len(path) == 0 {
		return repl
	}
	c := *e
	if path[0] == 'L' {
		c.L = replaceAbs(e.L, path[1:], repl)
	} else {
		c.R = replaceAbs(e.R, path[1:], repl)
	}
	return &c
}
