package expr

import (
	"math"

	"ngd/internal/graph"
)

// Band is a literal over two slots solved for one of them. Once the bound
// slot's value v is known, Of returns the exact interval of int64 values x
// of the free term for which the literal holds — the set Compare accepts
// with x bound, no more and no less. The detectors use it for the ¬Y cut: a
// branch whose free side can only take values inside the band cannot
// violate a one-literal Y.
//
// A band exists for a compiled kernel with exactly two terms, on distinct
// slots, that reduces to one of
//
//	|c·x + k| ≤ K   or   |c·x + k| < K
//	c·x + k ⊗ K     with ⊗ one of =, <, ≤, >, ≥
//
// once v is substituted, where k and K may each depend on v (K through |·|
// too). ≠, and |·| compared with =, ≥, > or ≠, are not intervals and have
// no band. A Band is immutable and safe for concurrent use.
type Band struct {
	Bound, Free         int // slots
	BoundAttr, FreeAttr graph.AttrID

	cf     int64 // the free term's coefficient
	op     Cmp   // with the free side on the left
	absF   bool  // |·| around the free side
	kc, kv int64 // k = kc + kv·v
	Kc, Kv int64 // K = |Kc + Kv·v| when absK, else Kc + Kv·v
	absK   bool
}

// Band solves the kernel for the slot other than bound. ok=false when the
// kernel has no band of that orientation.
func (k *Kernel) Band(bound int) (Band, bool) {
	if !k.ok || k.l.isStr || k.r.isStr || len(k.l.terms)+len(k.r.terms) != 2 {
		return Band{}, false
	}
	// F is the side holding the free term, G the other; op reads F ⊗ G
	f, g, op := &k.l, &k.r, k.op
	ft, ok := freeTerm(f, bound)
	if !ok {
		f, g, op = g, f, op.Flip()
		if ft, ok = freeTerm(f, bound); !ok {
			return Band{}, false
		}
	}
	var bt kterm
	same := len(f.terms) == 2
	if same {
		bt = f.terms[0]
		if bt.slot == ft.slot {
			bt = f.terms[1]
		}
	} else {
		bt = g.terms[0]
	}
	if bt.slot != bound || bt.slot == ft.slot {
		return Band{}, false
	}
	switch {
	case f.abs && op != Le && op != Lt:
		return Band{}, false
	case !f.abs && op == Ne:
		return Band{}, false
	}
	b := Band{Bound: bound, Free: ft.slot, BoundAttr: bt.attr, FreeAttr: ft.attr,
		cf: ft.c, op: op, absF: f.abs, kc: f.c0, Kc: g.c0, absK: g.abs}
	if same {
		b.kv = bt.c
	} else {
		b.Kv = bt.c
	}
	return b, true
}

// freeTerm returns s's term on a slot other than bound, if any.
func freeTerm(s *kside, bound int) (kterm, bool) {
	for _, t := range s.terms {
		if t.slot != bound {
			return t, true
		}
	}
	return kterm{}, false
}

// Of returns the band for the bound slot holding v: the literal holds
// exactly for the free values with an integer key in [lo, hi] (lo > hi:
// for none). ok=false — v has no integer key, or an intermediate leaves
// int64 — means there is no band and nothing may be cut.
func (b *Band) Of(v graph.Value) (lo, hi int64, ok bool) {
	x, isInt := v.AsInt()
	if !isInt {
		return 0, 0, false
	}
	k, ok := linOvf(b.kc, b.kv, x)
	if !ok {
		return 0, 0, false
	}
	K, ok := linOvf(b.Kc, b.Kv, x)
	if !ok {
		return 0, 0, false
	}
	if b.absK && K < 0 {
		if K == minInt64 {
			return 0, 0, false
		}
		K = -K
	}
	if b.absF {
		return absBand(b.cf, k, K, b.op == Lt)
	}
	return linBand(b.cf, k, K, b.op)
}

// CanHold reports whether some bound value could give a band containing
// [lo, hi] (lo ≤ hi). It answers false only when none can: a |·| band whose
// width does not depend on the bound value and is narrower than the span,
// or an = band under a span of more than one value. The detectors skip a
// cut that cannot hold its index's span without evaluating it per branch.
func (b *Band) CanHold(lo, hi int64) bool {
	span := uint64(hi) - uint64(lo)
	switch {
	case !b.absF:
		return b.op != Eq || span == 0
	case b.Kv != 0:
		return true // K moves with the bound value
	}
	K := b.Kc
	if b.absK && K < 0 {
		if K == minInt64 {
			return true
		}
		K = -K
	}
	if K < 0 || (b.op == Lt && K == 0) {
		return false
	}
	if b.op == Lt {
		K--
	}
	c := uint64(b.cf)
	if b.cf < 0 {
		c = -c
	}
	// the band lies within a real interval of width 2K/|c|
	return span <= 2*uint64(K)/c
}

// linOvf is c + m·x, or ok=false when it leaves int64.
func linOvf(c, m, x int64) (int64, bool) {
	p, ok := mulOvf(m, x)
	if !ok {
		return 0, false
	}
	return addOvf(c, p)
}

func subOvf(a, b int64) (int64, bool) {
	s := a - b
	if (b < 0 && s < a) || (b > 0 && s > a) {
		return 0, false
	}
	return s, true
}

// floorDiv and ceilDiv divide by c > 0, rounding down and up.
func floorDiv(a, c int64) int64 {
	q := a / c
	if a%c != 0 && a < 0 {
		q--
	}
	return q
}

func ceilDiv(a, c int64) int64 {
	q := a / c
	if a%c != 0 && a > 0 {
		q++
	}
	return q
}

// linBand solves c·x + k ⊗ K for x.
func linBand(c, k, K int64, op Cmp) (lo, hi int64, ok bool) {
	t, ok := subOvf(K, k)
	if !ok {
		return 0, 0, false
	}
	if c < 0 {
		if c == minInt64 || t == minInt64 {
			return 0, 0, false
		}
		c, t, op = -c, -t, op.Flip()
	}
	switch op {
	case Le:
		return minInt64, floorDiv(t, c), true
	case Lt:
		if q := ceilDiv(t, c); q > minInt64 {
			return minInt64, q - 1, true
		}
	case Ge:
		return ceilDiv(t, c), math.MaxInt64, true
	case Gt:
		if q := floorDiv(t, c); q < math.MaxInt64 {
			return q + 1, math.MaxInt64, true
		}
	case Eq:
		if t%c == 0 {
			return t / c, t / c, true
		}
	}
	return 1, 0, true // no int64 satisfies it
}

// absBand solves |c·x + k| ≤ K (strict: < K) for x.
func absBand(c, k, K int64, strict bool) (lo, hi int64, ok bool) {
	if K < 0 || (strict && K == 0) {
		return 1, 0, true
	}
	if strict {
		K-- // |y| < K ⟺ |y| ≤ K − 1 over the integers
	}
	l, ok1 := subOvf(-K, k)
	h, ok2 := subOvf(K, k)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	if c < 0 {
		if c == minInt64 || l == minInt64 || h == minInt64 {
			return 0, 0, false
		}
		c, l, h = -c, -h, -l
	}
	return ceilDiv(l, c), floorDiv(h, c), true
}
