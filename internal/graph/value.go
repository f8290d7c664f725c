// Package graph implements the directed, labeled, attributed multigraphs of
// Fan et al., "Catching Numeric Inconsistencies in Graphs" (SIGMOD 2018),
// Section 2: G = (V, E, L, F_A) where every node carries a label and a tuple
// of attribute/value pairs, and every edge carries a label.
//
// The package also provides the operations the detection algorithms of the
// paper rely on: induced subgraphs, d-neighborhoods G_d(v), batch updates
// ΔG = (ΔG⁺, ΔG⁻) and overlay views of G ⊕ ΔG.
package graph

import (
	"fmt"
	"strconv"
)

// Kind discriminates the dynamic type of an attribute Value.
type Kind uint8

// The attribute value kinds supported by F_A(v). The paper's constants U are
// integers and strings; booleans appear in its examples (account status), so
// all three are first-class. Floats are accepted for robustness when loading
// external data and compare exactly.
const (
	KindInvalid Kind = iota
	KindInt
	KindString
	KindBool
	KindFloat
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindFloat:
		return "float"
	default:
		return "invalid"
	}
}

// Value is an attribute value drawn from the constant universe U.
// The zero Value is invalid and behaves like a missing attribute.
type Value struct {
	kind Kind
	i    int64
	f    float64
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

// Float returns a floating-point Value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// Valid reports whether v holds a value (i.e. the attribute exists).
func (v Value) Valid() bool { return v.kind != KindInvalid }

// AsInt returns the value as an int64 and whether the conversion is exact.
// Ints and bools convert; floats convert only when integral and in int64
// range.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt, KindBool:
		return v.i, true
	case KindFloat:
		// -2⁶³ ≤ f < 2⁶³: both bounds are exact float64s
		if v.f >= -(1<<63) && v.f < 1<<63 {
			if i := int64(v.f); float64(i) == v.f {
				return i, true
			}
		}
	}
	return 0, false
}

// AsString returns the string payload and whether v is a string.
func (v Value) AsString() (string, bool) {
	if v.kind == KindString {
		return v.s, true
	}
	return "", false
}

// AsBool returns the boolean payload and whether v is a bool.
func (v Value) AsBool() (bool, bool) {
	if v.kind == KindBool {
		return v.i != 0, true
	}
	return false, false
}

// AsFloat returns the value as a float64 for numeric kinds.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt, KindBool:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	}
	return 0, false
}

// Equal reports whether two values are equal. Numeric kinds compare by
// exact numeric value, as literals do (Int(3) == Float(3.0), Bool(true) ==
// Int(1), Int(2⁶²−1) != Int(2⁶²)); strings only equal strings.
func (v Value) Equal(o Value) bool {
	if v.kind == KindString || o.kind == KindString {
		return v.kind == KindString && o.kind == KindString && v.s == o.s
	}
	if !v.Valid() || !o.Valid() {
		return v.kind == o.kind
	}
	if v.kind == KindFloat && o.kind == KindFloat {
		return v.f == o.f
	}
	// at most one float: equal only as the same int64
	a, aok := v.AsInt()
	b, bok := o.AsInt()
	return aok && bok && a == b
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
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return "<invalid>"
	}
}

// ParseValue parses the textual form produced by Value.String: quoted
// strings, true/false, integers, then floats.
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
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f), nil
	}
	return Value{}, fmt.Errorf("graph: cannot parse value %q", s)
}
