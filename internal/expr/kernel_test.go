package expr

import (
	"math"
	"math/rand"
	"testing"

	"ngd/internal/graph"
)

// kernelCase is one literal over one binding, staged the way detection sees
// it: a graph holding the bound values, one node per variable, and the
// partial solution listing those nodes in slot order.
type kernelCase struct {
	l, r    *Expr
	op      Cmp
	g       *graph.Graph
	slots   map[string]int
	partial []graph.NodeID
}

// stage builds the case. vals maps a term to its value (absent or invalid =
// missing attribute); intern lists attribute names the symbol table knows
// beyond those in vals.
func stage(l *Expr, op Cmp, r *Expr, vals map[TermKey]graph.Value, intern ...string) kernelCase {
	c := kernelCase{l: l, op: op, r: r, g: graph.New(), slots: map[string]int{}}
	for _, a := range intern {
		c.g.Symbols().Attr(a)
	}
	for _, e := range []*Expr{l, r} {
		e.Terms(func(v, a string) {
			if _, ok := c.slots[v]; !ok {
				c.slots[v] = len(c.partial)
				c.partial = append(c.partial, c.g.AddNode("n"))
			}
			if val := vals[TermKey{v, a}]; val.Valid() {
				c.g.SetAttr(c.partial[c.slots[v]], a, val)
			}
		})
	}
	return c
}

func (c kernelCase) slot(v string) int {
	if i, ok := c.slots[v]; ok {
		return i
	}
	return -1
}

func (c kernelCase) binding(v, a string) (graph.Value, bool) {
	i, ok := c.slots[v]
	if !ok {
		return graph.Value{}, false
	}
	val := c.g.AttrByName(c.partial[i], a)
	return val, val.Valid()
}

// check is the property both the generated test and the fuzz target assert:
// the kernel either declines or says what Compare says.
func (c kernelCase) check(t *testing.T) (ok, decided bool) {
	t.Helper()
	holds, err := Compare(c.l, c.op, c.r, c.binding)
	want := err == nil && holds
	k := CompileKernel(c.l, c.op, c.r, c.slot, c.g.Symbols())
	sat, decided := k.Eval(c.g, c.partial)
	if decided && !k.OK() {
		t.Errorf("%s: refused kernel decided", FormatComparison(c.l, c.op, c.r))
	}
	if decided && sat != want {
		t.Errorf("%s: kernel says %v, Compare says %v (err %v)", FormatComparison(c.l, c.op, c.r), sat, want, err)
	}
	return k.OK(), decided
}

func mustCmp(t *testing.T, src string) (*Expr, Cmp, *Expr) {
	t.Helper()
	l, op, r, err := ParseComparison(src)
	if err != nil {
		t.Fatal(err)
	}
	return l, op, r
}

// TestKernelCompiles pins which literal shapes compile and which are refused,
// one row per entry of CompileKernel's refusal list.
func TestKernelCompiles(t *testing.T) {
	for _, row := range []struct {
		src string
		ok  bool
	}{
		{"x.a + 2 * y.b - 3 <= y.a", true},
		{"x.a / 3 + y.b / 4 > 1 / 2", true},
		{"abs(x.a - y.a) <= 10", true},
		{"abs(x.a / 2 - y.a) < abs(y.b)", true},
		{"x.a + abs(0 - 3) = 4", true}, // constant |·| folds
		{`x.a != "living people"`, true},
		{`"living people" = x.a`, true},
		{"x.a = y.b", true},
		{"x.a - x.a = 0", false},                       // cancelled term
		{"x.a + y.b - x.a = y.b", false},               // cancelled inside a longer sum
		{"0 * x.a = 0", false},                         // cancelled by a zero factor
		{"abs(x.a - x.a) = 0", false},                  // cancelled under |·|
		{"x.a / 0 = 1", false},                         // zero constant divisor
		{"x.a + 1 / (2 - 2) = 1", false},               // zero divisor in a constant subterm
		{"abs(x.a) + 1 = 2", false},                    // |·| inside a sum
		{"-abs(x.a) < 0", false},                       // |·| under negation
		{"2 * abs(x.a) < 4", false},                    // |·| under a factor
		{"abs(abs(x.a) - 1) = 0", false},               // nested |·|
		{"4611686018427387904 * x.a = y.b / 4", false}, // 2⁶²·4 leaves int64
		{"x.a = 9223372036854775807 + 1", false},       // constant leaves int64
		{"x.a * y.b = 1", false},                       // non-linear
		{`x.a + "s" = 1`, false},                       // string inside arithmetic
		{"x.late = 1", false},                          // attribute not interned yet
		{"z.a = 1", false},                             // unknown variable
	} {
		l, op, r := mustCmp(t, row.src)
		syms := graph.NewSymbols()
		syms.Attr("a")
		syms.Attr("b")
		slot := func(v string) int { return map[string]int{"x": 0, "y": 1, "z": -1}[v] }
		if k := CompileKernel(l, op, r, slot, syms); k.OK() != row.ok {
			t.Errorf("%s: OK = %v, want %v", row.src, k.OK(), row.ok)
		}
	}
}

// TestKernelBoundaries walks hand-picked values across the places the kernel
// must hand over to Compare or must decide an error the way Compare does.
func TestKernelBoundaries(t *testing.T) {
	xa, ya := TermKey{"x", "a"}, TermKey{"y", "a"}
	for _, row := range []struct {
		src     string
		vals    map[TermKey]graph.Value
		decided bool
	}{
		{"x.a + 1 > y.a", map[TermKey]graph.Value{xa: graph.Int(4), ya: graph.Int(4)}, true},
		{"x.a + 1 > y.a", map[TermKey]graph.Value{xa: graph.Int(math.MaxInt64), ya: graph.Int(4)}, false},
		{"2 * x.a > y.a", map[TermKey]graph.Value{xa: graph.Int(1 << 62), ya: graph.Int(4)}, false},
		{"-4611686018427387904 * x.a > y.a / 2", map[TermKey]graph.Value{xa: graph.Int(-1), ya: graph.Int(4)}, false}, // MinInt64 × -1
		{"abs(x.a) >= 0", map[TermKey]graph.Value{xa: graph.Int(math.MinInt64)}, false},
		{"x.a + 1 > y.a", map[TermKey]graph.Value{xa: graph.Int(4)}, true},                                 // missing: unsatisfied
		{"x.a + 1 > y.a", map[TermKey]graph.Value{xa: graph.Int(math.MaxInt64)}, true},                     // missing beats overflow
		{"x.a + 1 > y.a", map[TermKey]graph.Value{xa: graph.Float(2.5), ya: graph.Int(0)}, true},           // non-integral: unsatisfied
		{"x.a + 1 > y.a", map[TermKey]graph.Value{xa: graph.Float(3), ya: graph.Bool(true)}, true},         // integral float, bool as 0/1
		{"x.a + 1 > y.a", map[TermKey]graph.Value{xa: graph.Str("s"), ya: graph.Int(0)}, false},            // string in arithmetic
		{"x.a = y.a", map[TermKey]graph.Value{xa: graph.Str("s"), ya: graph.Str("s")}, true},               // bare strings compare
		{"x.a = y.a", map[TermKey]graph.Value{xa: graph.Str("s"), ya: graph.Int(0)}, true},                 // mixed: unsatisfied
		{"x.a < y.a", map[TermKey]graph.Value{xa: graph.Str("a"), ya: graph.Str("b")}, true},               // unordered: unsatisfied
		{`x.a != "living people"`, map[TermKey]graph.Value{xa: graph.Int(3)}, true},                        // number against string
		{`x.a != "living people"`, map[TermKey]graph.Value{xa: graph.Str("dead people")}, true},            // the Exp-5 shape
		{"x.a / 3 = y.a / 6", map[TermKey]graph.Value{xa: graph.Int(5), ya: graph.Int(10)}, true},          // LCM scaling
		{"abs(x.a / 2 - y.a) <= 1 / 2", map[TermKey]graph.Value{xa: graph.Int(5), ya: graph.Int(3)}, true}, // |·| scales too
	} {
		l, op, r := mustCmp(t, row.src)
		ok, decided := stage(l, op, r, row.vals, "a").check(t)
		if !ok {
			t.Errorf("%s: refused", row.src)
		}
		if decided != row.decided {
			t.Errorf("%s over %v: decided = %v, want %v", row.src, row.vals, decided, row.decided)
		}
	}
}

var (
	genVars   = []string{"x", "y"}
	genAttrs  = []string{"a", "b", "late"} // "late" is never interned
	genConsts = []int64{0, 1, -1, 2, 3, 7, 100, 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64 + 1}
	genStrs   = []string{"s", "living people"}
)

func genTerm(rng *rand.Rand) *Expr {
	a := genAttrs[rng.Intn(2)]
	if rng.Intn(40) == 0 {
		a = genAttrs[2]
	}
	return V(genVars[rng.Intn(len(genVars))], a)
}

func genConst(rng *rand.Rand) *Expr { return C(genConsts[rng.Intn(len(genConsts))]) }

// genExpr draws from the linear grammar plus what the kernel must refuse:
// |·| at any depth, zero divisors, zero factors, repeated (cancelling) terms
// and the occasional string constant.
func genExpr(rng *rand.Rand, depth int) *Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		switch n := rng.Intn(12); {
		case n < 8:
			return genTerm(rng)
		case n < 11:
			return genConst(rng)
		default:
			return S(genStrs[rng.Intn(len(genStrs))])
		}
	}
	sub := func() *Expr { return genExpr(rng, depth-1) }
	switch rng.Intn(8) {
	case 0, 1:
		return Add(sub(), sub())
	case 2, 3:
		return Sub(sub(), sub())
	case 4:
		if rng.Intn(2) == 0 {
			return Mul(genConst(rng), sub())
		}
		return Mul(sub(), genConst(rng))
	case 5:
		return Div(sub(), genConst(rng))
	case 6:
		return Neg(sub())
	default:
		return Abs(sub())
	}
}

func genValue(rng *rand.Rand) graph.Value {
	switch rng.Intn(16) {
	case 0:
		return graph.Value{} // missing
	case 1:
		return graph.Str(genStrs[rng.Intn(len(genStrs))])
	case 2:
		return graph.Bool(rng.Intn(2) == 0)
	case 3:
		return graph.Float(float64(rng.Intn(9) - 4))
	case 4:
		return graph.Float(float64(rng.Intn(9)) + 0.5)
	case 5:
		return graph.Int(genConsts[rng.Intn(len(genConsts))])
	case 6:
		return graph.Int(math.MinInt64)
	default:
		return graph.Int(int64(rng.Intn(41) - 20))
	}
}

// genCase draws a literal and a binding for every term it mentions.
func genCase(rng *rand.Rand) kernelCase {
	l, r := genExpr(rng, rng.Intn(4)), genExpr(rng, rng.Intn(3))
	vals := map[TermKey]graph.Value{}
	for _, e := range []*Expr{l, r} {
		e.Terms(func(v, a string) {
			if _, ok := vals[TermKey{v, a}]; !ok {
				vals[TermKey{v, a}] = genValue(rng)
			}
		})
	}
	return stage(l, Cmp(rng.Intn(6)), r, vals, genAttrs[0], genAttrs[1])
}

func TestKernelMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 20000
	compiled, decided := 0, 0
	for i := 0; i < n; i++ {
		ok, d := genCase(rng).check(t)
		if ok {
			compiled++
		}
		if d {
			decided++
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	// the property is vacuous if the generator mostly produces refusals or
	// overflows; both floors sit well under what seed 17 yields
	if compiled < n/4 || decided < compiled/2 {
		t.Fatalf("generator too hostile: %d of %d compiled, %d decided", compiled, n, decided)
	}
	t.Logf("%d literals: %d compiled, %d decided by the kernel", n, compiled, decided)
}

// FuzzKernelMatchesCompare drives the same property from literal text: the
// fuzzer mutates the source, seed picks the values bound to its terms. The
// seed corpus is testdata/fuzz/FuzzKernelMatchesCompare: one file per kernel
// shape and per refusal, plus the inputs earlier runs failed on.
func FuzzKernelMatchesCompare(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		if len(src) > 200 {
			return // the parser recurses per nesting level; depth is not the subject
		}
		l, op, r, err := ParseComparison(src)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		vals := map[TermKey]graph.Value{}
		var intern []string
		for _, e := range []*Expr{l, r} {
			e.Terms(func(v, a string) {
				if _, ok := vals[TermKey{v, a}]; !ok {
					vals[TermKey{v, a}] = genValue(rng)
					if rng.Intn(16) > 0 {
						intern = append(intern, a)
					}
				}
			})
		}
		stage(l, op, r, vals, intern...).check(t)
	})
}
