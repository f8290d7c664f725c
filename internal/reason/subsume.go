package reason

import (
	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
)

// Subsumption is the PTIME case of implication. A rule ψ subsumes φ when a
// match h of ψ's pattern into φ's canonical instance makes X_ψ∘h ⊆ X_φ and
// Y_φ ⊆ Y_ψ∘h, literals compared as ground literals: operator plus
// expression tree over (canonical node, attribute). Then Σ ∋ ψ implies φ:
// an assignment violating φ on the identity match makes all of X_φ true,
// hence X_ψ∘h, so the obligation (ψ, h) requires Y_ψ∘h, which holds the Y_φ
// literal the violation falsifies. No witness exists, and the search would
// have answered No or run out of budget. Nothing looser counts — not an
// equivalent but differently written literal, not a weaker constant — so
// every other case falls through to the search.

// subsumes reports whether obligation ob, a match of ob.rule's pattern into
// the canonical instance of φ, subsumes φ on its identity match id.
func subsumes(ob implication, phi *core.NGD, id core.Match) bool {
	self := implication{rule: phi, m: id}
	return within(ob, ob.rule.X, self, phi.X) && within(self, phi.Y, ob, ob.rule.Y)
}

// within reports whether every literal of ls read under a is one of ks read
// under b.
func within(a implication, ls []core.Literal, b implication, ks []core.Literal) bool {
next:
	for _, l := range ls {
		for _, k := range ks {
			if l.Op == k.Op && sameGround(l.L, a, k.L, b) && sameGround(l.R, a, k.R, b) {
				continue next
			}
		}
		return false
	}
	return true
}

// sameGround reports whether e read under a and f read under b are one
// expression tree over (canonical node, attribute): variables are compared
// by the node their match binds them to, never by name.
func sameGround(e *expr.Expr, a implication, f *expr.Expr, b implication) bool {
	if e == nil || f == nil {
		return e == f
	}
	if e.Op != f.Op || e.Const != f.Const || e.Str != f.Str || e.Attr != f.Attr {
		return false
	}
	if e.Op == expr.OpVar {
		u, okU := a.node(e.Var)
		v, okV := b.node(f.Var)
		return okU && okV && u == v
	}
	return sameGround(e.L, a, f.L, b) && sameGround(e.R, a, f.R, b)
}

// node returns the canonical node ob's match binds variable v to.
func (ob implication) node(v string) (graph.NodeID, bool) {
	i := ob.rule.Pattern.VarIndex(v)
	if i < 0 || i >= len(ob.m) {
		return 0, false
	}
	return ob.m[i], true
}
