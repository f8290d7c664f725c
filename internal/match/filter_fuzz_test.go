package match

import (
	"math"
	"testing"

	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/pattern"
)

// FuzzFilterMatchesCompare: a compiled candidate predicate decides exactly
// what expr.Compare decides on its literal, for every kind of attribute
// value, and a seedable predicate's index run holds exactly the nodes Holds
// accepts. The constant is an integer (ckind 0), a quotient n/d (1), a value
// beyond int64, n·(2⁶³−1) + d (2), or the string s (3); the literal is
// written term-first, or constant-first when flip is set. The graph holds
// the fuzzed value (vkind: int, bool, float64(vi), the float vf, the string
// s, absent) beside fixed neighbours of vi, of n and of the int64 edges;
// vkind 6 leaves the attribute out of the graph entirely. The seed corpus is
// testdata/fuzz/FuzzFilterMatchesCompare.
func FuzzFilterMatchesCompare(f *testing.F) {
	f.Fuzz(func(t *testing.T, op uint8, flip bool, ckind uint8, n, d int64, s string, vkind uint8, vi int64, vf float64) {
		var c *expr.Expr
		switch ckind % 4 {
		case 0:
			c = expr.C(n)
		case 1:
			c = expr.Div(expr.C(n), expr.C(d))
		case 2:
			c = expr.Add(expr.Mul(expr.C(n), expr.C(math.MaxInt64)), expr.C(d))
		default:
			c = expr.S(s)
		}
		var vals []graph.Value
		switch vkind % 7 {
		case 0:
			vals = append(vals, graph.Int(vi))
		case 1:
			vals = append(vals, graph.Bool(vi&1 == 1))
		case 2:
			vals = append(vals, graph.Float(float64(vi)))
		case 3:
			vals = append(vals, graph.Float(vf))
		case 4:
			vals = append(vals, graph.Str(s))
		}
		if vkind%7 != 6 {
			vals = append(vals,
				graph.Int(math.MinInt64), graph.Int(-1), graph.Int(0), graph.Int(1), graph.Int(math.MaxInt64),
				graph.Int(vi-1), graph.Int(vi+1), graph.Int(n-1), graph.Int(n), graph.Int(n+1),
				graph.Bool(true), graph.Float(2.5), graph.Str(s), graph.Str(""))
		}
		g := graph.New()
		for _, v := range vals {
			g.SetAttr(g.AddNode("T"), "a", v)
		}
		g.AddNode("T") // absent

		p := pattern.New()
		p.AddNode("x", "T")
		cp := pattern.Compile(p, g.Symbols())
		l, cmp, r := expr.V("x", "a"), expr.Cmp(op%6), c
		if flip {
			l, r = r, l
		}
		spec := func(v graph.NodeID) bool {
			ok, err := expr.Compare(l, cmp, r, func(_, a string) (graph.Value, bool) {
				val := g.AttrByName(v, a)
				return val, val.Valid()
			})
			return err == nil && ok
		}
		lit := expr.FormatComparison(l, cmp, r)

		fs := NewFilters(1)
		if fs.AddLiteral(p, g.Symbols(), l, cmp, r) < 0 {
			// refused: the constant side does not evaluate, so no node can
			// satisfy the literal
			for v := 0; v < g.NumNodes(); v++ {
				if spec(graph.NodeID(v)) {
					t.Fatalf("%s: refused as a filter, but node %d satisfies it", lit, v)
				}
			}
			return
		}
		pr := &fs[0].Preds[0]
		accepted := map[graph.NodeID]bool{}
		for v := 0; v < g.NumNodes(); v++ {
			id := graph.NodeID(v)
			got := pr.Holds(g, id)
			if want := spec(id); got != want {
				t.Fatalf("%s on %v: Holds says %v, Compare says %v", lit, g.Attr(id, pr.Attr), got, want)
			}
			if got {
				accepted[id] = true
			}
		}

		EnsureIndexes(g, cp, fs)
		run, ok := seedRun(g, cp, 0, pr)
		if !ok {
			if seedable(pr) {
				t.Fatalf("%s: seedable, but no index run", lit)
			}
			return
		}
		inRun := map[graph.NodeID]bool{}
		for i := 0; i < run.Len(); i++ {
			v := run.At(i)
			if !accepted[v] {
				t.Fatalf("%s: the index run holds node %d (%v), which Holds rejects", lit, v, g.Attr(v, pr.Attr))
			}
			inRun[v] = true
		}
		if len(inRun) != len(accepted) {
			t.Fatalf("%s: the index run holds %d nodes, Holds accepts %d", lit, len(inRun), len(accepted))
		}
	})
}
