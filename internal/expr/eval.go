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
)

// Binding resolves a term x.A to the attribute value of the node matched to
// x. ok=false means the attribute (or variable) is absent.
type Binding func(variable, attr string) (graph.Value, bool)

// EvalBig evaluates e exactly over big.Rat. Strings are no numbers: a string
// constant, or a term bound to a string, is ErrType here (Compare admits
// them only as a whole side).
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
		i, ok := v.AsInt() // ints, bools as 0/1, integral floats
		if !ok {
			return nil, ErrType
		}
		return new(big.Rat).SetInt64(i), nil
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

// Holds decides a ⊗ b from the sign of a − b.
func (c Cmp) Holds(sign int) bool {
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

// Compare evaluates l ⊗ r under binding b with exact big.Rat arithmetic; it
// is the specification every faster path (Kernel, the candidate filters of
// internal/match) must agree with. A side that is a string constant, or a
// bare term bound to a string, is a string operand, and strings compare with
// = and ≠ only. Any evaluation error (missing attribute, type mismatch,
// division by zero) is surfaced; per the paper's satisfaction semantics
// callers treat it as "literal not satisfied".
func Compare(l *Expr, op Cmp, r *Expr, b Binding) (bool, error) {
	ls, lq, err := operand(l, b)
	if err != nil {
		return false, err
	}
	rs, rq, err := operand(r, b)
	if err != nil {
		return false, err
	}
	switch {
	case lq != nil && rq != nil:
		return op.Holds(lq.Cmp(rq)), nil
	case lq != nil || rq != nil || (op != Eq && op != Ne):
		return false, ErrType
	}
	return (ls == rs) == (op == Eq), nil
}

// operand evaluates one side of a comparison: the string s when the side is
// a string operand, otherwise the rational q (non-nil).
func operand(e *Expr, b Binding) (s string, q *big.Rat, err error) {
	switch e.Op {
	case OpStr:
		return e.Str, nil, nil
	case OpVar:
		if v, ok := b(e.Var, e.Attr); ok {
			if s, ok := v.AsString(); ok {
				return s, nil, nil
			}
		}
	}
	q, err = EvalBig(e, b)
	return "", q, err
}
