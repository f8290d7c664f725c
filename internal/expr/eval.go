package expr

import (
	"errors"
	"fmt"
	"math/big"

	"ngd/internal/graph"
)

// Evaluation errors. A literal whose evaluation errors is *not satisfied*
// (paper §3: h(x̄) ⊨ l requires every term's attribute to exist; type
// mismatches likewise cannot satisfy a comparison).
var (
	// ErrMissingAttr reports a term x.A whose node lacks attribute A.
	ErrMissingAttr = errors.New("expr: missing attribute")
	// ErrType reports strings in arithmetic, ordered string comparison,
	// or non-integer attribute values.
	ErrType = errors.New("expr: type error")
	// ErrDivZero reports division by zero.
	ErrDivZero = errors.New("expr: division by zero")
	// errOverflow triggers the math/big fallback inside Eval/Compare; it
	// escapes Eval only when a value genuinely exceeds the int64 rational
	// range, in which case Compare still decides the literal exactly.
	errOverflow = errors.New("expr: int64 overflow")
)

// Binding resolves a term x.A to the attribute value of the node matched to
// x. ok=false means the attribute (or variable) is absent.
type Binding func(variable, attr string) (graph.Value, bool)

// Num is an exact rational with int64 components, d ≥ 1 and gcd(|n|,d)=1.
type Num struct {
	n, d int64
}

// NumInt returns the rational v/1.
func NumInt(v int64) Num { return Num{n: v, d: 1} }

// Rat reports the reduced numerator and denominator.
func (x Num) Rat() (num, den int64) { return x.n, x.d }

// IsInt reports whether x is integral.
func (x Num) IsInt() bool { return x.d == 1 }

// Int returns the integer value (valid when IsInt).
func (x Num) Int() int64 { return x.n }

// Float returns a float64 approximation (for reporting only).
func (x Num) Float() float64 { return float64(x.n) / float64(x.d) }

func (x Num) String() string {
	if x.d == 1 {
		return fmt.Sprintf("%d", x.n)
	}
	return fmt.Sprintf("%d/%d", x.n, x.d)
}

// gcd64 works on unsigned magnitudes: -MinInt64 does not exist in int64, and
// a signed remainder chain starting from it can end on a negative "gcd" whose
// division flips signs. Callers never pass two operands from {0, MinInt64},
// the only inputs whose gcd (2⁶³) would not fit the result.
func gcd64(a, b int64) int64 {
	x, y := uint64(a), uint64(b)
	if a < 0 {
		x = -x
	}
	if b < 0 {
		y = -y
	}
	for y != 0 {
		x, y = y, x%y
	}
	return int64(x)
}

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

func makeNum(n, d int64) (Num, error) {
	if d == 0 {
		return Num{}, ErrDivZero
	}
	if d < 0 {
		if n == minInt64 || d == minInt64 {
			return Num{}, errOverflow
		}
		n, d = -n, -d
	}
	if g := gcd64(n, d); g > 1 {
		n, d = n/g, d/g
	}
	return Num{n: n, d: d}, nil
}

const minInt64 = -1 << 63

func (x Num) add(y Num) (Num, error) {
	// x.n/x.d + y.n/y.d, reducing cross factors first to delay overflow.
	g := gcd64(x.d, y.d)
	xd, yd := x.d/g, y.d/g
	a, ok1 := mulOvf(x.n, yd)
	b, ok2 := mulOvf(y.n, xd)
	s, ok3 := addOvf(a, b)
	den, ok4 := mulOvf(xd, y.d)
	if !(ok1 && ok2 && ok3 && ok4) {
		return Num{}, errOverflow
	}
	return makeNum(s, den)
}

func (x Num) neg() (Num, error) {
	if x.n == minInt64 {
		return Num{}, errOverflow
	}
	return Num{n: -x.n, d: x.d}, nil
}

func (x Num) sub(y Num) (Num, error) {
	ny, err := y.neg()
	if err != nil {
		return Num{}, err
	}
	return x.add(ny)
}

func (x Num) mul(y Num) (Num, error) {
	// cross-reduce before multiplying
	g1 := gcd64(x.n, y.d)
	g2 := gcd64(y.n, x.d)
	n1, d2 := x.n/g1, y.d/g1
	n2, d1 := y.n/g2, x.d/g2
	n, ok1 := mulOvf(n1, n2)
	d, ok2 := mulOvf(d1, d2)
	if !(ok1 && ok2) {
		return Num{}, errOverflow
	}
	return makeNum(n, d)
}

func (x Num) div(y Num) (Num, error) {
	if y.n == 0 {
		return Num{}, ErrDivZero
	}
	if y.n == minInt64 || y.d == minInt64 {
		return Num{}, errOverflow
	}
	return x.mul(Num{n: y.d, d: y.n})
}

func (x Num) abs() (Num, error) {
	if x.n >= 0 {
		return x, nil
	}
	return x.neg()
}

// Cmp compares x and y exactly: -1, 0, or 1. err is errOverflow when the
// cross-multiplication exceeds int64 (caller falls back to big).
func (x Num) Cmp(y Num) (int, error) {
	a, ok1 := mulOvf(x.n, y.d)
	b, ok2 := mulOvf(y.n, x.d)
	if !(ok1 && ok2) {
		return 0, errOverflow
	}
	switch {
	case a < b:
		return -1, nil
	case a > b:
		return 1, nil
	default:
		return 0, nil
	}
}

// Result is the outcome of evaluating an expression: a rational number or a
// string (strings arise only from bare string constants / string-valued
// terms and may only be compared with = or ≠).
type Result struct {
	IsStr bool
	S     string
	N     Num
}

func valueOperand(v graph.Value) (Result, error) {
	switch v.Kind() {
	case graph.KindInt, graph.KindBool:
		i, _ := v.AsInt()
		return Result{N: NumInt(i)}, nil
	case graph.KindFloat:
		if i, ok := v.AsInt(); ok {
			return Result{N: NumInt(i)}, nil
		}
		return Result{}, ErrType
	case graph.KindString:
		s, _ := v.AsString()
		return Result{IsStr: true, S: s}, nil
	default:
		return Result{}, ErrMissingAttr
	}
}

// Eval evaluates e under binding b, escalating to exact big.Rat arithmetic
// if int64 overflows. Overflowed results are reported with ErrType only if
// they cannot be represented; otherwise a reduced Num is returned when it
// fits, or an error is surfaced via EvalBig-capable callers (Compare).
func Eval(e *Expr, b Binding) (Result, error) {
	r, err := evalFast(e, b)
	if err == errOverflow {
		br, berr := EvalBig(e, b)
		if berr != nil {
			return Result{}, berr
		}
		if n, fit := ratToNum(br); fit {
			return Result{N: n}, nil
		}
		return Result{}, errOverflow
	}
	return r, err
}

func evalFast(e *Expr, b Binding) (Result, error) {
	switch e.Op {
	case OpConst:
		return Result{N: NumInt(e.Const)}, nil
	case OpStr:
		return Result{IsStr: true, S: e.Str}, nil
	case OpVar:
		v, ok := b(e.Var, e.Attr)
		if !ok || !v.Valid() {
			return Result{}, ErrMissingAttr
		}
		return valueOperand(v)
	}
	l, err := evalFast(e.L, b)
	if err != nil {
		return Result{}, err
	}
	if l.IsStr {
		return Result{}, ErrType
	}
	switch e.Op {
	case OpNeg:
		n, err := l.N.neg()
		return Result{N: n}, err
	case OpAbs:
		n, err := l.N.abs()
		return Result{N: n}, err
	}
	r, err := evalFast(e.R, b)
	if err != nil {
		return Result{}, err
	}
	if r.IsStr {
		return Result{}, ErrType
	}
	var n Num
	switch e.Op {
	case OpAdd:
		n, err = l.N.add(r.N)
	case OpSub:
		n, err = l.N.sub(r.N)
	case OpMul:
		n, err = l.N.mul(r.N)
	case OpDiv:
		n, err = l.N.div(r.N)
	default:
		return Result{}, fmt.Errorf("expr: bad op %d", e.Op)
	}
	return Result{N: n}, err
}

// EvalBig evaluates e exactly over big.Rat (slow path; also used by the
// solver-facing code).
func EvalBig(e *Expr, b Binding) (*big.Rat, error) {
	switch e.Op {
	case OpConst:
		return new(big.Rat).SetInt64(e.Const), nil
	case OpStr:
		return nil, ErrType
	case OpVar:
		v, ok := b(e.Var, e.Attr)
		if !ok || !v.Valid() {
			return nil, ErrMissingAttr
		}
		r, err := valueOperand(v)
		if err != nil {
			return nil, err
		}
		if r.IsStr {
			return nil, ErrType
		}
		return new(big.Rat).SetFrac64(r.N.n, r.N.d), nil
	}
	l, err := EvalBig(e.L, b)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case OpNeg:
		return l.Neg(l), nil
	case OpAbs:
		return l.Abs(l), nil
	}
	r, err := EvalBig(e.R, b)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case OpAdd:
		return l.Add(l, r), nil
	case OpSub:
		return l.Sub(l, r), nil
	case OpMul:
		return l.Mul(l, r), nil
	case OpDiv:
		if r.Sign() == 0 {
			return nil, ErrDivZero
		}
		return l.Quo(l, r), nil
	default:
		return nil, fmt.Errorf("expr: bad op %d", e.Op)
	}
}

func ratToNum(r *big.Rat) (Num, bool) {
	if !r.Num().IsInt64() || !r.Denom().IsInt64() {
		return Num{}, false
	}
	return Num{n: r.Num().Int64(), d: r.Denom().Int64()}, true
}

// Cmp is a comparison predicate ⊗ ∈ {=, ≠, <, ≤, >, ≥}.
type Cmp uint8

// Comparison predicates.
const (
	Eq Cmp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// Negate returns the complementary predicate (¬(a ⊗ b)).
func (c Cmp) Negate() Cmp {
	switch c {
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	default:
		return Lt
	}
}

// Flip returns the predicate with operands swapped (a ⊗ b ⇔ b ⊗' a).
func (c Cmp) Flip() Cmp {
	switch c {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	default:
		return c
	}
}

func (c Cmp) String() string {
	switch c {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return "?"
	}
}

func (c Cmp) holds(sign int) bool {
	switch c {
	case Eq:
		return sign == 0
	case Ne:
		return sign != 0
	case Lt:
		return sign < 0
	case Le:
		return sign <= 0
	case Gt:
		return sign > 0
	default:
		return sign >= 0
	}
}

// Compare evaluates l ⊗ r under binding b with exact arithmetic.
// String results may only be compared with = and ≠. Any evaluation error
// (missing attribute, type mismatch, division by zero) is surfaced; per the
// paper's satisfaction semantics callers treat it as "literal not satisfied".
func Compare(l *Expr, op Cmp, r *Expr, b Binding) (bool, error) {
	lr, err := Eval(l, b)
	if err != nil && err != errOverflow {
		return false, err
	}
	lBig := err == errOverflow
	rr, rerr := Eval(r, b)
	if rerr != nil && rerr != errOverflow {
		return false, rerr
	}
	rBig := rerr == errOverflow
	if !lBig && !rBig {
		if lr.IsStr || rr.IsStr {
			if !lr.IsStr || !rr.IsStr {
				return false, ErrType
			}
			switch op {
			case Eq:
				return lr.S == rr.S, nil
			case Ne:
				return lr.S != rr.S, nil
			default:
				return false, ErrType
			}
		}
		sign, cerr := lr.N.Cmp(rr.N)
		if cerr == nil {
			return op.holds(sign), nil
		}
	}
	// big fallback for overflowing magnitudes
	lb, err := EvalBig(l, b)
	if err != nil {
		return false, err
	}
	rb, err := EvalBig(r, b)
	if err != nil {
		return false, err
	}
	return op.holds(lb.Cmp(rb)), nil
}
