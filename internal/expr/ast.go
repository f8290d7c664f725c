// Package expr implements the arithmetic expressions of NGDs (Fan et al.,
// SIGMOD 2018, §3): e ::= t | |e| | e+e | e−e | c×e | e÷c over integer
// constants and terms x.A, plus the non-linear extension (e×e, e÷e) of §4
// that the static analyses must reject (Theorem 3: undecidable).
//
// A literal is decided two ways, both exact. Compare evaluates it over
// math/big and is the specification. Kernel compiles a linear literal once
// to int64 arithmetic for the hot paths and hands back to Compare wherever
// int64 could not be exact. String constants are admitted so literals can
// express the CFD-style constant bindings the paper's Exp-5 rules use
// (e.g. z.val ≠ "living people"); strings never participate in arithmetic.
package expr

import (
	"fmt"
	"strconv"
)

// Op enumerates expression node kinds.
type Op uint8

// Expression node kinds.
const (
	OpConst Op = iota // integer constant
	OpStr             // string constant (comparison-only)
	OpVar             // term x.A
	OpNeg             // -e
	OpAbs             // |e|
	OpAdd             // e + e
	OpSub             // e - e
	OpMul             // e * e (linear only when one side is constant)
	OpDiv             // e / e (linear only when divisor is constant)
)

// Expr is an arithmetic expression tree node. Leaves use Const/Str/Var
// fields; interior nodes use L (and R for binary ops).
type Expr struct {
	Op    Op
	Const int64  // OpConst
	Str   string // OpStr
	Var   string // OpVar: variable name (x)
	Attr  string // OpVar: attribute name (A)
	L, R  *Expr
}

// C returns an integer constant expression.
func C(v int64) *Expr { return &Expr{Op: OpConst, Const: v} }

// S returns a string constant expression.
func S(v string) *Expr { return &Expr{Op: OpStr, Str: v} }

// V returns a term x.A.
func V(variable, attr string) *Expr { return &Expr{Op: OpVar, Var: variable, Attr: attr} }

// Neg returns -e.
func Neg(e *Expr) *Expr { return &Expr{Op: OpNeg, L: e} }

// Abs returns |e|.
func Abs(e *Expr) *Expr { return &Expr{Op: OpAbs, L: e} }

// Add returns l + r.
func Add(l, r *Expr) *Expr { return &Expr{Op: OpAdd, L: l, R: r} }

// Sub returns l - r.
func Sub(l, r *Expr) *Expr { return &Expr{Op: OpSub, L: l, R: r} }

// Mul returns l × r.
func Mul(l, r *Expr) *Expr { return &Expr{Op: OpMul, L: l, R: r} }

// Div returns l ÷ r.
func Div(l, r *Expr) *Expr { return &Expr{Op: OpDiv, L: l, R: r} }

// Degree returns the degree of e: the sum of variable exponents, with
// max over +/− branches (paper §3). Linear NGDs require degree ≤ 1; the
// undecidability frontier of Theorem 3 is degree 2.
func (e *Expr) Degree() int {
	switch e.Op {
	case OpConst, OpStr:
		return 0
	case OpVar:
		return 1
	case OpNeg, OpAbs:
		return e.L.Degree()
	case OpAdd, OpSub:
		return max(e.L.Degree(), e.R.Degree())
	case OpMul, OpDiv:
		return e.L.Degree() + e.R.Degree()
	default:
		return 0
	}
}

// IsLinear reports whether e fits the linear grammar of §3: degree ≤ 1,
// every multiplication has a degree-0 side, every divisor has degree 0.
func (e *Expr) IsLinear() bool {
	switch e.Op {
	case OpConst, OpStr, OpVar:
		return true
	case OpNeg, OpAbs:
		return e.L.IsLinear()
	case OpAdd, OpSub:
		return e.L.IsLinear() && e.R.IsLinear()
	case OpMul:
		return e.L.IsLinear() && e.R.IsLinear() &&
			(e.L.Degree() == 0 || e.R.Degree() == 0)
	case OpDiv:
		return e.L.IsLinear() && e.R.Degree() == 0
	default:
		return false
	}
}

// HasString reports whether a string constant occurs anywhere in e.
func (e *Expr) HasString() bool {
	if e.Op == OpStr {
		return true
	}
	if e.L != nil && e.L.HasString() {
		return true
	}
	return e.R != nil && e.R.HasString()
}

// Terms calls fn for every OpVar leaf (variable, attribute), with repeats.
func (e *Expr) Terms(fn func(variable, attr string)) {
	switch e.Op {
	case OpVar:
		fn(e.Var, e.Attr)
	case OpNeg, OpAbs:
		e.L.Terms(fn)
	case OpAdd, OpSub, OpMul, OpDiv:
		e.L.Terms(fn)
		e.R.Terms(fn)
	}
}

// Vars returns the distinct pattern variables referenced by e, in first
// appearance order.
func (e *Expr) Vars() []string {
	seen := make(map[string]struct{})
	var out []string
	e.Terms(func(v, _ string) {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	})
	return out
}

// Equal reports structural equality.
func (e *Expr) Equal(o *Expr) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.Op != o.Op || e.Const != o.Const || e.Str != o.Str ||
		e.Var != o.Var || e.Attr != o.Attr {
		return false
	}
	return e.L.Equal(o.L) && e.R.Equal(o.R)
}

// String renders e in the rule DSL syntax (re-parseable by Parse).
func (e *Expr) String() string { return e.render(0) }

// precedence levels: 0 add/sub, 1 mul/div, 2 unary/primary
func (e *Expr) prec() int {
	switch e.Op {
	case OpAdd, OpSub:
		return 0
	case OpMul, OpDiv:
		return 1
	default:
		return 2
	}
}

func (e *Expr) render(parent int) string {
	var s string
	switch e.Op {
	case OpConst:
		s = strconv.FormatInt(e.Const, 10)
		if e.Const < 0 && parent >= 1 {
			s = "(" + s + ")"
		}
		return s
	case OpStr:
		return strconv.Quote(e.Str)
	case OpVar:
		return e.Var + "." + e.Attr
	case OpNeg:
		return "-" + e.L.render(2)
	case OpAbs:
		return "abs(" + e.L.render(0) + ")"
	case OpAdd:
		s = e.L.render(0) + " + " + e.R.render(1)
	case OpSub:
		s = e.L.render(0) + " - " + e.R.render(1)
	case OpMul:
		s = e.L.render(1) + " * " + e.R.render(2)
	case OpDiv:
		s = e.L.render(1) + " / " + e.R.render(2)
	default:
		return fmt.Sprintf("<op%d>", e.Op)
	}
	if e.prec() < parent {
		s = "(" + s + ")"
	}
	return s
}
