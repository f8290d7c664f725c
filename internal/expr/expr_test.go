package expr

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"ngd/internal/graph"
)

// bigRatAccumulator sums coefficient·value products exactly.
type bigRatAccumulator struct{ r big.Rat }

func (a *bigRatAccumulator) Add(x *big.Rat) { a.r.Add(&a.r, x) }
func (a *bigRatAccumulator) AddScaled(c *big.Rat, v int64) {
	t := new(big.Rat).SetInt64(v)
	t.Mul(t, c)
	a.r.Add(&a.r, t)
}
func (a *bigRatAccumulator) Cmp(o *big.Rat) int { return a.r.Cmp(o) }

func bindingOf(m map[string]graph.Value) Binding {
	return func(v, a string) (graph.Value, bool) {
		val, ok := m[v+"."+a]
		return val, ok
	}
}

func TestParseBasic(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"1 + 2", "1 + 2"},
		{"x.val", "x.val"},
		{"x.val + y.val - 3", "x.val + y.val - 3"},
		{"2 * (x.a - y.b)", "2 * (x.a - y.b)"},
		{"x.a / 4", "x.a / 4"},
		{"abs(x.a - y.b)", "abs(x.a - y.b)"},
		{"|x.a - y.b|", "abs(x.a - y.b)"},
		{"|x.a| - |y.b|", "abs(x.a) - abs(y.b)"},
		{"|x.a - |y.b||", "abs(x.a - abs(y.b))"},
		{"-x.a", "-x.a"},
		{"-3", "-3"},
		{`"living people"`, `"living people"`},
		{"1 + 2 * 3", "1 + 2 * 3"},
		{"(1 + 2) * 3", "(1 + 2) * 3"},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := e.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "x", "x.", "1 +", "x.a +* y.b", "(x.a", "|x.a", `"unterminated`, "x . ", "99999999999999999999"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestParseComparison(t *testing.T) {
	l, op, r, err := ParseComparison("x.a + 1 <= y.b * 2")
	if err != nil {
		t.Fatal(err)
	}
	if op != Le {
		t.Errorf("op = %v, want <=", op)
	}
	if l.String() != "x.a + 1" || r.String() != "y.b * 2" {
		t.Errorf("sides = %q, %q", l, r)
	}
	for in, want := range map[string]Cmp{
		"x.a = 1": Eq, "x.a == 1": Eq, "x.a != 1": Ne, "x.a <> 1": Ne,
		"x.a < 1": Lt, "x.a <= 1": Le, "x.a > 1": Gt, "x.a >= 1": Ge,
	} {
		_, op, _, err := ParseComparison(in)
		if err != nil {
			t.Fatalf("ParseComparison(%q): %v", in, err)
		}
		if op != want {
			t.Errorf("ParseComparison(%q) op = %v, want %v", in, op, want)
		}
	}
	if _, _, _, err := ParseComparison("x.a"); err == nil {
		t.Error("expected error for missing operator")
	}
	if _, _, _, err := ParseComparison("x.a = 1 = 2"); err == nil {
		t.Error("expected error for chained comparison")
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var build func(depth int) *Expr
	build = func(depth int) *Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				return C(int64(rng.Intn(2000) - 1000))
			case 1:
				return V("x", "a")
			default:
				return V("y", "b")
			}
		}
		switch rng.Intn(6) {
		case 0:
			return Add(build(depth-1), build(depth-1))
		case 1:
			return Sub(build(depth-1), build(depth-1))
		case 2:
			return Mul(build(depth-1), build(depth-1))
		case 3:
			return Div(build(depth-1), build(depth-1))
		case 4:
			return Neg(build(depth - 1))
		default:
			return Abs(build(depth - 1))
		}
	}
	for i := 0; i < 500; i++ {
		e := build(4)
		s := e.String()
		parsed, err := Parse(s)
		if err != nil {
			t.Fatalf("round-trip parse of %q failed: %v", s, err)
		}
		// compare by evaluation at a few points rather than structure:
		// printing may fold -(-c) etc.
		for j := 0; j < 4; j++ {
			b := bindingOf(map[string]graph.Value{
				"x.a": graph.Int(int64(rng.Intn(100) - 50)),
				"y.b": graph.Int(int64(rng.Intn(100) - 50)),
			})
			r1, err1 := EvalBig(e, b)
			r2, err2 := EvalBig(parsed, b)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%q: eval err mismatch %v vs %v", s, err1, err2)
			}
			if err1 == nil && r1.Cmp(r2) != 0 {
				t.Fatalf("%q: eval mismatch %v vs %v", s, r1, r2)
			}
		}
	}
}

func TestEvalExactness(t *testing.T) {
	b := bindingOf(map[string]graph.Value{
		"x.a": graph.Int(1),
		"y.b": graph.Int(3),
	})
	// 1/3 + 1/3 + 1/3 = 1 must hold exactly
	third := Div(V("x", "a"), V("y", "b"))
	sum := Add(Add(third, third), third)
	ok, err := Compare(sum, Eq, C(1), b)
	if err != nil || !ok {
		t.Fatalf("1/3*3 = 1: ok=%v err=%v", ok, err)
	}
	// x/2 < 1 with x=1 (rational, not integer division)
	ok, err = Compare(Div(V("x", "a"), C(2)), Lt, C(1), b)
	if err != nil || !ok {
		t.Fatalf("1/2 < 1: ok=%v err=%v", ok, err)
	}
}

func TestEvalOverflowFallback(t *testing.T) {
	big := int64(1) << 62
	b := bindingOf(map[string]graph.Value{"x.a": graph.Int(big)})
	// (2^62 * 4) / 4 == 2^62 — intermediate overflows int64 product
	e := Div(Mul(V("x", "a"), C(4)), C(4))
	ok, err := Compare(e, Eq, C(big), b)
	if err != nil || !ok {
		t.Fatalf("overflow fallback: ok=%v err=%v", ok, err)
	}
	// comparison of huge values must still be exact
	ok, err = Compare(Mul(V("x", "a"), C(1000)), Gt, Mul(V("x", "a"), C(999)), b)
	if err != nil || !ok {
		t.Fatalf("huge compare: ok=%v err=%v", ok, err)
	}
}

func TestEvalErrors(t *testing.T) {
	b := bindingOf(map[string]graph.Value{
		"x.a": graph.Int(5),
		"x.s": graph.Str("hello"),
	})
	if _, err := Compare(V("x", "missing"), Eq, C(5), b); err != ErrMissingAttr {
		t.Errorf("missing attr: got %v", err)
	}
	if _, err := Compare(C(6), Eq, Add(V("x", "s"), C(1)), b); err != ErrType {
		t.Errorf("string arithmetic: got %v", err)
	}
	if _, err := Compare(Div(V("x", "a"), C(0)), Lt, C(1), b); err != ErrDivZero {
		t.Errorf("div zero: got %v", err)
	}
	if _, err := Compare(V("x", "s"), Eq, C(1), b); err != ErrType {
		t.Errorf("string against number: got %v", err)
	}
	if _, err := Compare(V("x", "s"), Lt, S("x"), b); err != ErrType {
		t.Errorf("ordered string comparison: got %v", err)
	}
	ok, err := Compare(V("x", "s"), Eq, S("hello"), b)
	if err != nil || !ok {
		t.Errorf("string equality: ok=%v err=%v", ok, err)
	}
	ok, err = Compare(V("x", "s"), Ne, S("world"), b)
	if err != nil || !ok {
		t.Errorf("string inequality: ok=%v err=%v", ok, err)
	}
}

func TestDegreeAndLinearity(t *testing.T) {
	cases := []struct {
		src    string
		degree int
		linear bool
	}{
		{"3", 0, true},
		{"x.a", 1, true},
		{"x.a + y.b", 1, true},
		{"2 * x.a", 1, true},
		{"x.a / 2", 1, true},
		{"abs(x.a - y.b)", 1, true},
		{"x.a * y.b", 2, false},
		{"x.a * x.a", 2, false},
		{"2 / x.a", 1, false},
		{"x.a * (y.b + 1)", 2, false},
		{"x.a * (1 + 2)", 1, true},
		{"(x.a + y.b) * 3 - x.a / 7", 1, true},
	}
	for _, c := range cases {
		e := MustParse(c.src)
		if d := e.Degree(); d != c.degree {
			t.Errorf("Degree(%q) = %d, want %d", c.src, d, c.degree)
		}
		if l := e.IsLinear(); l != c.linear {
			t.Errorf("IsLinear(%q) = %v, want %v", c.src, l, c.linear)
		}
	}
}

func TestLinearizeMatchesEval(t *testing.T) {
	// property: for linear abs-free expressions, the linear form evaluates
	// to the same value as the AST
	exprs := []string{
		"x.a + y.b", "2 * x.a - y.b / 3", "x.a - x.a", "5",
		"(x.a + y.b) * 3 - x.a / 7 + 11", "-x.a + 2 * (y.b - 1)",
	}
	f := func(xv, yv int16) bool {
		b := bindingOf(map[string]graph.Value{
			"x.a": graph.Int(int64(xv)),
			"y.b": graph.Int(int64(yv)),
		})
		for _, src := range exprs {
			e := MustParse(src)
			lf, err := Linearize(e)
			if err != nil {
				return false
			}
			want, err := EvalBig(e, b)
			if err != nil {
				return false
			}
			got := new(bigRatAccumulator)
			got.Add(lf.Const)
			for k, c := range lf.Coeffs {
				v, _ := b(k.Var, k.Attr)
				i, _ := v.AsInt()
				got.AddScaled(c, i)
			}
			if got.Cmp(want) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAbsVariants(t *testing.T) {
	e := MustParse("abs(x.a - y.b) + abs(x.a)")
	vs := AbsVariants(e)
	if len(vs) != 4 {
		t.Fatalf("got %d variants, want 4", len(vs))
	}
	for _, v := range vs {
		if v.Expr.Degree() > 1 {
			t.Errorf("variant %s degree > 1", v.Expr)
		}
		if _, err := Linearize(v.Expr); err != nil {
			t.Errorf("variant %s not linearizable: %v", v.Expr, err)
		}
		if len(v.Conds) != 2 {
			t.Errorf("variant %s has %d conds, want 2", v.Expr, len(v.Conds))
		}
	}
	// no abs: single variant, no conds
	vs = AbsVariants(MustParse("x.a + 1"))
	if len(vs) != 1 || len(vs[0].Conds) != 0 {
		t.Fatalf("abs-free expression should have exactly one unconditional variant")
	}
}

func TestCmpHelpers(t *testing.T) {
	for _, c := range []Cmp{Eq, Ne, Lt, Le, Gt, Ge} {
		if c.Negate().Negate() != c {
			t.Errorf("double negate of %v", c)
		}
		if c.Flip().Flip() != c {
			t.Errorf("double flip of %v", c)
		}
	}
	b := bindingOf(map[string]graph.Value{"x.a": graph.Int(3)})
	for _, tc := range []struct {
		op   Cmp
		rhs  int64
		want bool
	}{
		{Eq, 3, true}, {Eq, 4, false}, {Ne, 4, true}, {Lt, 4, true},
		{Le, 3, true}, {Gt, 2, true}, {Ge, 3, true}, {Lt, 3, false},
	} {
		got, err := Compare(V("x", "a"), tc.op, C(tc.rhs), b)
		if err != nil || got != tc.want {
			t.Errorf("3 %v %d = %v (err %v), want %v", tc.op, tc.rhs, got, err, tc.want)
		}
	}
}
