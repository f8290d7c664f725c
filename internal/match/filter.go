// Literal-based candidate pruning (§6.2 optimization step (3)).
//
// A rule's precondition literal of the shape x.A ⊗ c — a bare term compared
// against a variable-free expression — constrains every candidate for
// pattern node x before any recursion happens: a candidate falsifying it
// can never satisfy X, hence never yield a violation. Filters collects
// these predicates per pattern node; the planner (internal/plan) turns them
// into
//
//   - seed candidate generation from the graph's attribute indexes
//     (equality via the hash index, range predicates via the ordered
//     index) instead of full label-bucket scans, and
//   - per-candidate residual checks applied during adjacency scans,
//
// and scores seed steps with the index-run cardinalities (SeedScan) so the
// most selective (indexed) pattern node becomes the seed.
package match

import (
	"math"

	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/pattern"
)

// AttrPred is one compiled candidate predicate: node.Attr Op Const.
type AttrPred struct {
	// Attr is the interned attribute, or -1 when the attribute name never
	// occurs in the graph (the predicate is then unsatisfiable: absent
	// attributes satisfy no literal).
	Attr  graph.AttrID
	Op    expr.Cmp
	Const expr.Result
}

// NodeFilter is the conjunction of predicates for one pattern node.
type NodeFilter struct {
	Preds []AttrPred
}

// Filters holds one NodeFilter per pattern node (by node index). A nil
// Filters means the rule has no prunable literal.
type Filters []NodeFilter

// NewFilters returns empty filters for an n-node pattern.
func NewFilters(n int) Filters { return make(Filters, n) }

// Empty reports whether no predicate was compiled.
func (f Filters) Empty() bool {
	for i := range f {
		if len(f[i].Preds) > 0 {
			return false
		}
	}
	return true
}

// AddLiteral compiles one precondition literal L op R into a predicate when
// it has the single-node constant shape (x.A ⊗ const-expr, either side). It
// returns the pattern node the predicate was attached to, or -1 when the
// literal is not compilable. Literals relating several variables, several
// attributes of one node, or arithmetic over a term stay with the
// level-by-level literal evaluation (detect.LitEval) untouched.
func (f Filters) AddLiteral(p *pattern.Pattern, syms *graph.Symbols, L *expr.Expr, op expr.Cmp, R *expr.Expr) int {
	term, c, cop := L, expr.Result{}, op
	switch {
	case L.Op == expr.OpVar:
		cv, ok := expr.ConstValue(R)
		if !ok {
			return -1
		}
		c = cv
	case R.Op == expr.OpVar:
		cv, ok := expr.ConstValue(L)
		if !ok {
			return -1
		}
		term, c, cop = R, cv, op.Flip()
	default:
		return -1
	}
	idx := p.VarIndex(term.Var)
	if idx < 0 || idx >= len(f) {
		return -1
	}
	f[idx].Preds = append(f[idx].Preds, AttrPred{
		Attr:  syms.LookupAttr(term.Attr), // -1 (unsatisfiable) when unseen
		Op:    cop,
		Const: c,
	})
	return idx
}

// Holds evaluates the predicate against a candidate's attribute value.
func (pr *AttrPred) Holds(g graph.View, v graph.NodeID) bool {
	if pr.Attr < 0 {
		return false
	}
	return expr.CompareValue(g.Attr(v, pr.Attr), pr.Op, pr.Const)
}

// intBounds converts an integer-candidate predicate into inclusive int64
// bounds: an integer x satisfies (x ⊗ n/d) iff lo ≤ x ≤ hi. empty=true
// means no integer satisfies it; ok=false means the predicate shape is not
// range-expressible (≠, string operands).
func intBounds(op expr.Cmp, c expr.Result) (lo, hi int64, empty, ok bool) {
	if c.IsStr {
		switch op {
		case expr.Eq:
			// handled by the string hash index, not here
			return 0, 0, false, false
		case expr.Ne:
			return 0, 0, false, false
		default:
			// ordered comparison with a string is a type error: no
			// candidate can satisfy it.
			return 0, 0, true, true
		}
	}
	n, d := c.N.Rat() // d ≥ 1
	q := n / d
	if (n%d != 0) && (n < 0) != (d < 0) {
		q-- // floor division
	}
	exact := n%d == 0
	switch op {
	case expr.Eq:
		if !exact {
			return 0, 0, true, true // no integer equals a non-integral rational
		}
		return q, q, false, true
	case expr.Lt:
		if exact {
			if q == math.MinInt64 {
				return 0, 0, true, true
			}
			return math.MinInt64, q - 1, false, true
		}
		return math.MinInt64, q, false, true
	case expr.Le:
		return math.MinInt64, q, false, true
	case expr.Gt:
		if q == math.MaxInt64 {
			return 0, 0, true, true
		}
		return q + 1, math.MaxInt64, false, true
	case expr.Ge:
		if exact {
			return q, math.MaxInt64, false, true
		}
		if q == math.MaxInt64 {
			return 0, 0, true, true
		}
		return q + 1, math.MaxInt64, false, true
	default: // Ne: the complement of a point is not one contiguous range
		return 0, 0, false, false
	}
}

// seedable reports whether the predicate can drive index-based seed
// candidate generation (equality or a contiguous integer range).
func seedable(pr *AttrPred) bool {
	if pr.Attr < 0 {
		return false
	}
	if pr.Const.IsStr {
		return pr.Op == expr.Eq
	}
	return pr.Op != expr.Ne
}

// seedRun resolves the candidate run for pattern node `node` under pred pr
// from the view's attribute index. ok=false when no index is available (the
// caller falls back to the label bucket).
func seedRun(g graph.View, cp *pattern.Compiled, node int, pr *AttrPred) (graph.IndexRun, bool) {
	if !seedable(pr) {
		return graph.IndexRun{}, false
	}
	l := cp.NodeLabels[node]
	av, iok := g.(graph.AttrIndexed)
	if !iok || l == graph.Wildcard || l == graph.NoLabel {
		return graph.IndexRun{}, false
	}
	ix := av.AttrIndexFor(l, pr.Attr)
	if ix == nil {
		return graph.IndexRun{}, false
	}
	if pr.Const.IsStr {
		return ix.Strs(pr.Const.S), true
	}
	lo, hi, empty, ok := intBounds(pr.Op, pr.Const)
	if !ok {
		return graph.IndexRun{}, false
	}
	if empty {
		return ix.IntRange(1, 0), true // canonical empty run
	}
	if pr.Op == expr.Eq {
		return ix.Ints(lo), true
	}
	return ix.IntRange(lo, hi), true
}

// EnsureIndexes builds the attribute indexes the filters can exploit over
// g. It must run during single-threaded setup (plan building does); it is
// a no-op for views without index support and for wildcard pattern nodes.
func EnsureIndexes(g graph.View, cp *pattern.Compiled, f Filters) {
	av, ok := g.(graph.AttrIndexed)
	if !ok {
		return
	}
	for node := range f {
		l := cp.NodeLabels[node]
		if l == graph.Wildcard || l == graph.NoLabel {
			continue
		}
		for i := range f[node].Preds {
			if seedable(&f[node].Preds[i]) {
				av.EnsureAttrIndex(l, f[node].Preds[i].Attr)
			}
		}
	}
}

// SeedScan reports the most selective seedable predicate of a pattern node
// and its current index-run size (pred = -1, size = -1 when no seedable
// index applies). The cost-based planner (internal/plan) scores seed steps
// with it.
func SeedScan(g graph.View, cp *pattern.Compiled, node int, f Filters) (pred, size int) {
	pred, size = -1, -1
	for i := range f[node].Preds {
		run, ok := seedRun(g, cp, node, &f[node].Preds[i])
		if !ok {
			continue
		}
		if pred < 0 || run.Len() < size {
			pred, size = i, run.Len()
		}
	}
	return pred, size
}
