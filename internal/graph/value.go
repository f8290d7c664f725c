// Package graph implements the directed, labeled, attributed multigraphs of
// Fan et al., "Catching Numeric Inconsistencies in Graphs" (SIGMOD 2018),
// Section 2: G = (V, E, L, F_A) where every node carries a label and a tuple
// of attribute/value pairs, and every edge carries a label.
//
// The package also provides the operations the detection algorithms of the
// paper rely on: d-neighborhoods G_d(v), batch updates ΔG = (ΔG⁺, ΔG⁻),
// and clones that share G's pages, so G ⊕ ΔG is a clone with ΔG applied.
package graph

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the dynamic type of an attribute Value.
type Kind uint8

// The attribute value kinds supported by F_A(v). The paper's constants U are
// integers and strings; booleans appear in its examples (account status), so
// all three are first-class. Every door refuses a number that is not an
// exact int64; 4 was the float kind, which old stores still hold.
const (
	KindInvalid Kind = iota
	KindInt
	KindString
	KindBool
)

var kindNames = [...]string{"invalid", "int", "string", "bool"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// Value is an attribute value drawn from the constant universe U.
// The zero Value is invalid and behaves like a missing attribute.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Int returns an integer Value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Str returns a string Value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean Value. Booleans participate in arithmetic as 0/1,
// matching the paper's use of status ∈ {0,1} in NGD φ4.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool, i: 0}
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// Valid reports whether v holds a value (i.e. the attribute exists).
func (v Value) Valid() bool { return v.kind != KindInvalid }

// AsInt returns the value as an int64 and whether v is a number: ints, and
// bools as 0/1. It is also the key of the attribute and edge-value
// indexes, which leave out exactly the values it refuses (strings, absent
// values).
func (v Value) AsInt() (int64, bool) {
	return v.i, v.kind == KindInt || v.kind == KindBool
}

// AsString returns the string payload and whether v is a string.
func (v Value) AsString() (string, bool) {
	if v.kind == KindString {
		return v.s, true
	}
	return "", false
}

// Equal reports whether two values are equal. Numbers compare by value, as
// literals do (Bool(true) == Int(1)); strings only equal strings.
func (v Value) Equal(o Value) bool {
	if a, ok := v.AsInt(); ok {
		b, ok := o.AsInt()
		return ok && a == b
	}
	return v.kind == o.kind && v.s == o.s
}

// String renders the value in the textual graph format.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return strconv.Quote(v.s)
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "<invalid>"
	}
}

// ParseValue parses the textual form produced by Value.String: quoted
// strings, true/false, then numbers, which ParseInt must read as an exact
// int64.
func ParseValue(s string) (Value, error) {
	if s == "" {
		return Value{}, fmt.Errorf("graph: empty value")
	}
	if s[0] == '"' {
		u, err := strconv.Unquote(s)
		if err != nil {
			return Value{}, fmt.Errorf("graph: bad string value %q: %v", s, err)
		}
		return Str(u), nil
	}
	switch s {
	case "true":
		return Bool(true), nil
	case "false":
		return Bool(false), nil
	}
	i, err := ParseInt(s)
	if err != nil {
		return Value{}, fmt.Errorf("graph: %w", err)
	}
	return Int(i), nil
}

// ParseInt reads a decimal number that denotes an exact int64: a sign,
// digits with an optional fraction, and an optional exponent, so
// "9007199254740993.0" is 9007199254740993 and "1e3" is 1000. A number
// with a fractional part ("2.5") or beyond int64 ("1e30") is refused, and
// the work is linear in len(s) whatever the exponent says.
func ParseInt(s string) (int64, error) {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, nil // plain digits
	}
	neg, mant := cutSign(s)
	e := "0"
	if k := strings.IndexAny(mant, "eE"); k >= 0 {
		mant, e = mant[:k], mant[k+1:]
	}
	eneg, e := cutSign(e)
	whole, frac, _ := strings.Cut(mant, ".")
	digits := whole + frac
	if !isDigits(digits) || !isDigits(e) {
		return 0, fmt.Errorf("cannot parse value %q", s)
	}
	exp, _ := strconv.ParseInt(e, 10, 32) // saturates at 2³¹, past which no digit string of s matters
	if eneg {
		exp = -exp
	}
	// the value is digits × 10^scale: with its zeros trimmed, a digit left
	// below the point is a fraction
	digits = strings.TrimLeft(digits, "0")
	sig := strings.TrimRight(digits, "0")
	scale := exp - int64(len(frac)) + int64(len(digits)-len(sig))
	switch {
	case sig == "":
		return 0, nil
	case scale < 0:
		return 0, fmt.Errorf("value %q is not an integer", s)
	case int64(len(sig))+scale > 19: // at least 10¹⁹
		return 0, fmt.Errorf("value %q is out of int64 range", s)
	}
	n, _ := strconv.ParseUint(sig+strings.Repeat("0", int(scale)), 10, 64) // < 10¹⁹ < 2⁶⁴
	switch {
	case neg && n <= 1<<63:
		return -int64(n), nil
	case !neg && n <= math.MaxInt64:
		return int64(n), nil
	}
	return 0, fmt.Errorf("value %q is out of int64 range", s)
}

// cutSign splits a leading + or - off s.
func cutSign(s string) (neg bool, rest string) {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		return s[0] == '-', s[1:]
	}
	return false, s
}

// isDigits reports whether s is a nonempty run of ASCII digits.
func isDigits(s string) bool { return s != "" && strings.Trim(s, "0123456789") == "" }
