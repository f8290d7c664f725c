package expr

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"ngd/internal/graph"
)

// bandShapes renders the two-term literals the band generator draws from:
// both terms on one side (under |·| or not), one term per side (with |·| on
// either side), and the constant written on the left.
var bandShapes = []func(c1, c2, c0, r int64) (*Expr, *Expr){
	func(c1, c2, c0, r int64) (*Expr, *Expr) { return Abs(sum2(c1, c2, c0)), C(r) },
	func(c1, c2, c0, r int64) (*Expr, *Expr) { return sum2(c1, c2, c0), C(r) },
	func(c1, c2, c0, r int64) (*Expr, *Expr) { return term(c1, "s", c0), term(c2, "t", r) },
	func(c1, c2, c0, r int64) (*Expr, *Expr) { return Abs(term(c1, "s", c0)), term(c2, "t", r) },
	func(c1, c2, c0, r int64) (*Expr, *Expr) { return term(c1, "s", c0), Abs(term(c2, "t", r)) },
	func(c1, c2, c0, r int64) (*Expr, *Expr) { return C(r), Abs(sum2(c1, c2, c0)) },
	func(c1, c2, c0, r int64) (*Expr, *Expr) { return V("s", "a"), V("t", "a") },
}

// refusedShape reports whether shape bandShapes[shape] under op is no
// interval in either orientation: ≠, or |·| of both terms against a
// constant compared other than ≤ or < (≥ or > with the constant on the
// left).
func refusedShape(shape int, op Cmp) bool {
	switch {
	case op == Ne:
		return true
	case shape == 0:
		return op != Le && op != Lt
	case shape == 5:
		return op != Ge && op != Gt
	}
	return false
}

// term is c·v.a + c0.
func term(c int64, v string, c0 int64) *Expr { return Add(Mul(C(c), V(v, "a")), C(c0)) }

// sum2 is c1·s.a + c2·t.a + c0.
func sum2(c1, c2, c0 int64) *Expr {
	return Add(Add(Mul(C(c1), V("s", "a")), Mul(C(c2), V("t", "a"))), C(c0))
}

// bandValue draws a value of every kind from an int64: the int itself, a
// bool, a small int, the int written as a string, a string or nothing.
func bandValue(kind uint8, n int64) graph.Value {
	switch kind % 8 {
	case 1:
		return graph.Bool(n%2 != 0)
	case 2:
		return graph.Int(n % 1000)
	case 3:
		return graph.Str(strconv.FormatInt(n, 10))
	case 4:
		return graph.Str("s")
	case 5:
		return graph.Value{}
	}
	return graph.Int(n)
}

// holds is Compare's verdict on l ⊗ r with s.a and t.a bound.
func holds(l *Expr, op Cmp, r *Expr, s, t graph.Value) bool {
	ok, err := Compare(l, op, r, func(v, a string) (graph.Value, bool) {
		if v == "s" {
			return s, s.Valid()
		}
		return t, t.Valid()
	})
	return err == nil && ok
}

// checkBand asserts the band property for one literal and one pair of
// values, in both orientations: a refused shape (refused: ≠, or |·| of both
// terms compared other than ≤ or <) has no band; a bound value
// without an integer key has none; otherwise a free value lies in the band
// exactly when Compare says the literal holds — for the drawn free value and
// for the four values at the band's edges — and CanHold admits the band's
// own span. It reports whether a band was produced.
func checkBand(t *testing.T, l *Expr, op Cmp, r *Expr, vs, vt graph.Value, refused bool) (banded bool) {
	t.Helper()
	syms := graph.NewSymbols()
	syms.Attr("a")
	k := CompileKernel(l, op, r, func(v string) int { return map[string]int{"s": 0, "t": 1}[v] }, syms)
	src := FormatComparison(l, op, r)
	for bound := 0; bound < 2; bound++ {
		b, ok := k.Band(bound)
		if !ok {
			continue
		}
		if b.Bound != bound || b.Free != 1-bound {
			t.Fatalf("%s: band for bound slot %d has slots %d, %d", src, bound, b.Bound, b.Free)
		}
		if refused {
			t.Fatalf("%s: a shape that is no interval got a band from slot %d", src, bound)
		}
		bv, fv := vs, vt
		if bound == 1 {
			bv, fv = vt, vs
		}
		lo, hi, ok := b.Of(bv)
		if _, isInt := bv.AsInt(); !isInt && ok {
			t.Fatalf("%s: bound value %v has no integer key but got band [%d, %d]", src, bv, lo, hi)
		}
		if !ok {
			continue
		}
		banded = true
		if lo <= hi && !b.CanHold(lo, hi) {
			t.Fatalf("%s with %v bound at slot %d: band [%d, %d] holds its own span, CanHold says no", src, bv, bound, lo, hi)
		}
		frees := []graph.Value{fv}
		for _, e := range []int64{lo, hi} {
			frees = append(frees, graph.Int(e))
			if e > math.MinInt64 {
				frees = append(frees, graph.Int(e-1))
			}
			if e < math.MaxInt64 {
				frees = append(frees, graph.Int(e+1))
			}
		}
		for _, f := range frees {
			key, isInt := f.AsInt()
			in := isInt && lo <= key && key <= hi
			s, tv := bv, f
			if bound == 1 {
				s, tv = f, bv
			}
			if want := holds(l, op, r, s, tv); in != want {
				t.Fatalf("%s with %v bound at slot %d: band [%d, %d] says %v for free %v, Compare says %v",
					src, bv, bound, lo, hi, in, f, want)
			}
		}
	}
	return banded
}

// TestBandRefusals pins which kernels have a band and which do not.
func TestBandRefusals(t *testing.T) {
	for _, row := range []struct {
		src  string
		band bool
	}{
		{"abs(s.a - t.a) <= 100000", true},
		{"abs(s.a - t.a) < 5", true},
		{"s.a + 3 >= t.a", true},
		{"s.a = t.a", true},
		{"2 * s.a - 3 * t.a > 7", true},
		{"abs(s.a) <= t.a", true}, // free side plain, bound side under |·|
		{"abs(s.a) >= t.a", true}, // from t: t ≤ |s|; from s: refused
		{"s.a != t.a", false},     // not an interval
		{"abs(s.a - t.a) >= 5", false},
		{"abs(s.a - t.a) = 0", false},
		{"s.a + s.b <= 3", false}, // one slot
		{"s.a + t.a + u.a <= 3", false},
		{"s.a <= 3", false},
		{`s.a = "x"`, false},
		{"s.a - s.a + t.a <= 3", false}, // refused kernel
	} {
		l, op, r := mustCmp(t, row.src)
		syms := graph.NewSymbols()
		syms.Attr("a")
		syms.Attr("b")
		k := CompileKernel(l, op, r, func(v string) int { return map[string]int{"s": 0, "t": 1, "u": 2}[v] }, syms)
		_, ok0 := k.Band(0)
		_, ok1 := k.Band(1)
		if got := ok0 || ok1; got != row.band {
			t.Errorf("%s: band %v (s bound %v, t bound %v), want %v", row.src, got, ok0, ok1, row.band)
		}
		if row.src == "abs(s.a) >= t.a" && (!ok0 || ok1) {
			t.Errorf("%s: s bound %v, t bound %v; want only s bound", row.src, ok0, ok1)
		}
	}
	l, op, r := mustCmp(t, "abs(s.a - t.a) <= 100000")
	syms := graph.NewSymbols()
	syms.Attr("a")
	k := CompileKernel(l, op, r, func(v string) int { return map[string]int{"s": 0, "t": 1}[v] }, syms)
	b, _ := k.Band(0)
	if lo, hi, ok := b.Of(graph.Int(5)); !ok || lo != -99995 || hi != 100005 {
		t.Errorf("follower band at 5 = [%d, %d] %v, want [-99995, 100005]", lo, hi, ok)
	}
	if _, _, ok := b.Of(graph.Int(math.MinInt64)); ok {
		t.Error("a bound value whose band leaves int64 must give no band")
	}
	for _, v := range []graph.Value{{}, graph.Str("5"), graph.Str("")} {
		if _, _, ok := b.Of(v); ok {
			t.Errorf("bound value %v must give no band", v)
		}
	}
}

var bandConsts = []int64{0, 1, -1, 2, -3, 7, 100000, 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64}

func TestBandMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	draw := func() int64 {
		if rng.Intn(3) == 0 {
			return bandConsts[rng.Intn(len(bandConsts))]
		}
		return int64(rng.Intn(41) - 20)
	}
	const n = 20000
	banded := 0
	for i := 0; i < n; i++ {
		shape, op := rng.Intn(len(bandShapes)), Cmp(rng.Intn(6))
		l, r := bandShapes[shape](draw(), draw(), draw(), draw())
		if checkBand(t, l, op, r, bandValue(uint8(rng.Intn(10)), draw()), bandValue(uint8(rng.Intn(10)), draw()), refusedShape(shape, op)) {
			banded++
		}
	}
	if banded < n/5 {
		t.Fatalf("generator too hostile: %d of %d cases produced a band", banded, n)
	}
	t.Logf("%d literals: %d produced a band", n, banded)
}

// FuzzBandMatchesCompare drives the band property over random two-term
// kernels, bound values and free values: shape picks the literal's form,
// the kinds pick int, bool, small int, the int written as a string, string
// or no value.
func FuzzBandMatchesCompare(f *testing.F) {
	f.Add(uint8(0), int64(1), int64(-1), int64(0), int64(100000), uint8(Le), int64(5), int64(100006), uint8(0), uint8(0))
	f.Add(uint8(0), int64(1), int64(-1), int64(0), int64(100000), uint8(Lt), int64(math.MaxInt64), int64(math.MaxInt64-3), uint8(0), uint8(0))
	f.Add(uint8(1), int64(2), int64(-3), int64(7), int64(-1), uint8(Gt), int64(math.MinInt64), int64(-4), uint8(0), uint8(2))
	f.Add(uint8(2), int64(-1), int64(1), int64(0), int64(0), uint8(Eq), int64(3), int64(3), uint8(1), uint8(3))
	f.Add(uint8(3), int64(3), int64(1), int64(-1<<62), int64(1<<62), uint8(Le), int64(-(1 << 62)), int64(1<<62), uint8(2), uint8(4))
	f.Add(uint8(4), int64(1), int64(-2), int64(5), int64(math.MinInt64), uint8(Ge), int64(8), int64(0), uint8(0), uint8(5))
	f.Add(uint8(5), int64(1), int64(1), int64(0), int64(10), uint8(Ge), int64(-4), int64(14), uint8(0), uint8(0))
	f.Add(uint8(6), int64(0), int64(0), int64(0), int64(0), uint8(Ne), int64(1), int64(1), uint8(4), uint8(4))
	f.Fuzz(func(t *testing.T, shape uint8, c1, c2, c0, r int64, op uint8, bv, fv int64, bk, fk uint8) {
		sh, cmp := int(shape)%len(bandShapes), Cmp(op%6)
		l, rr := bandShapes[sh](c1, c2, c0, r)
		checkBand(t, l, cmp, rr, bandValue(bk, bv), bandValue(fk, fv), refusedShape(sh, cmp))
	})
}
