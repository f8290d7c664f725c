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
	"math/big"

	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/pattern"
)

// AttrPred is one compiled candidate predicate: node.Attr Op Const. The
// constant is evaluated once, at compile time, with expr.EvalBig; a
// candidate's value is then tested against what that leaves: the string
// itself, or the int64 interval [Lo, Hi] of the integers that satisfy the
// predicate (for ≠, of those that equal the constant). Clamping to int64 is
// exact because attribute values are int64, and the index seed run
// (seedRun) and the per-candidate check (Holds) read the same interval.
type AttrPred struct {
	// Attr is the interned attribute, or -1 when the attribute name never
	// occurs in the graph (the predicate is then unsatisfiable: absent
	// attributes satisfy no literal).
	Attr graph.AttrID
	Op   expr.Cmp
	// Const is the constant as plan keys render it: the string when IsStr,
	// otherwise the exact value as n or n/d.
	Const string
	IsStr bool
	// Lo, Hi bound a numeric constant's integers; Lo > Hi when none.
	Lo, Hi int64
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

// noBinding resolves nothing, so EvalBig rejects a side that mentions a
// variable.
func noBinding(string, string) (graph.Value, bool) { return graph.Value{}, false }

// AddLiteral compiles one precondition literal L op R into a predicate when
// it has the single-node constant shape (x.A ⊗ const-expr, either side). It
// returns the pattern node the predicate was attached to, or -1 when the
// literal is not compilable. Literals relating several variables, several
// attributes of one node, or arithmetic over a term stay with the
// level-by-level literal evaluation (detect.LitEval) untouched.
func (f Filters) AddLiteral(p *pattern.Pattern, syms *graph.Symbols, L *expr.Expr, op expr.Cmp, R *expr.Expr) int {
	term, c, cop := L, R, op
	switch {
	case L.Op == expr.OpVar:
	case R.Op == expr.OpVar:
		term, c, cop = R, L, op.Flip()
	default:
		return -1
	}
	idx := p.VarIndex(term.Var)
	if idx < 0 || idx >= len(f) {
		return -1
	}
	pr := AttrPred{
		Attr: syms.LookupAttr(term.Attr), // -1 (unsatisfiable) when unseen
		Op:   cop,
	}
	if c.Op == expr.OpStr {
		pr.Const, pr.IsStr = c.Str, true
	} else {
		q, err := expr.EvalBig(c, noBinding)
		if err != nil {
			return -1 // a variable, a string in arithmetic, a zero divisor
		}
		pr.Const = q.RatString()
		pr.Lo, pr.Hi = intBounds(cop, q)
	}
	f[idx].Preds = append(f[idx].Preds, pr)
	return idx
}

// Holds evaluates the predicate against a candidate's attribute value, with
// exactly the semantics of expr.Compare on the literal: an absent attribute,
// a non-integral float, a string against a number and an ordered string
// comparison all leave it unsatisfied.
func (pr *AttrPred) Holds(g graph.View, v graph.NodeID) bool {
	if pr.Attr < 0 {
		return false
	}
	val := g.Attr(v, pr.Attr)
	if pr.IsStr { // strings are not ordered: only = and ≠ can hold
		s, ok := val.AsString()
		return ok && (pr.Op == expr.Eq && s == pr.Const || pr.Op == expr.Ne && s != pr.Const)
	}
	x, ok := val.AsInt()
	return ok && (pr.Lo <= x && x <= pr.Hi) != (pr.Op == expr.Ne)
}

// intBounds returns the int64 interval [lo, hi] of the integers x with
// x op q — for ≠, with x = q, the complement of a point being no one
// interval — and lo > hi when no int64 qualifies.
func intBounds(op expr.Cmp, q *big.Rat) (lo, hi int64) {
	one := big.NewInt(1)
	floor := new(big.Int).Div(q.Num(), q.Denom()) // Euclidean: the denominator is positive
	ceil := new(big.Int).Set(floor)
	if !q.IsInt() {
		ceil.Add(ceil, one)
	}
	l, h := big.NewInt(math.MinInt64), big.NewInt(math.MaxInt64)
	switch op {
	case expr.Eq, expr.Ne:
		l, h = ceil, floor // empty unless q is an integer
	case expr.Lt:
		h = ceil.Sub(ceil, one)
	case expr.Le:
		h = floor
	case expr.Gt:
		l = floor.Add(floor, one)
	case expr.Ge:
		l = ceil
	}
	if l.Cmp(h) > 0 || (!l.IsInt64() && l.Sign() > 0) || (!h.IsInt64() && h.Sign() < 0) {
		return 1, 0
	}
	lo, hi = math.MinInt64, math.MaxInt64
	if l.IsInt64() {
		lo = l.Int64()
	}
	if h.IsInt64() {
		hi = h.Int64()
	}
	return lo, hi
}

// seedable reports whether the predicate can drive index-based seed
// candidate generation (equality or a contiguous integer range).
func seedable(pr *AttrPred) bool {
	if pr.Attr < 0 {
		return false
	}
	if pr.IsStr {
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
	switch {
	case pr.IsStr:
		return ix.Strs(pr.Const), true
	case pr.Lo > pr.Hi:
		return ix.IntRange(1, 0), true // canonical empty run
	case pr.Op == expr.Eq:
		return ix.Ints(pr.Lo), true
	}
	return ix.IntRange(pr.Lo, pr.Hi), true
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
