// Package discover implements a simplified NGD discovery algorithm in the
// spirit of the miner the paper uses to obtain its rule sets (§7, citing
// Fan et al., "Discovering Graph Functional Dependencies", SIGMOD 2018):
// a levelwise search interleaving *vertical* expansion — growing frequent
// patterns edge by edge — with *horizontal* expansion — mining literals
// that hold on (almost) all matches of a pattern.
//
// The miner proposes Y-literals of three shapes over the numeric
// attributes of matched nodes:
//
//	constant   x.A = c
//	order      x.A ≤ y.B   (and equality with constant offset x.A = y.B + c)
//	sum        x.A + y.B = z.C
//
// and keeps those whose confidence over all matches reaches MinConf
// (1.0 by default: exact dependencies). Discovered rules are plain NGDs and
// can be fed to the reasoning layer to prune implied ones.
package discover

import (
	"fmt"
	"sort"
	"strings"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/pattern"
	"ngd/internal/plan"
)

// Options tune the miner.
type Options struct {
	// MinSupport is the minimum number of matches for a pattern to be
	// considered (default 10).
	MinSupport int
	// MaxEdges bounds pattern size (default 2 levels of expansion).
	MaxEdges int
	// MaxMatches caps match sampling per pattern (default 2000).
	MaxMatches int
	// MinConf is the required fraction of matches satisfying a candidate
	// literal (default 1.0: exact rules).
	MinConf float64
	// MaxRules stops after this many rules (default 100).
	MaxRules int
}

func (o Options) defaults() Options {
	if o.MinSupport <= 0 {
		o.MinSupport = 10
	}
	if o.MaxEdges <= 0 {
		o.MaxEdges = 2
	}
	if o.MaxMatches <= 0 {
		o.MaxMatches = 2000
	}
	if o.MinConf <= 0 {
		o.MinConf = 1.0
	}
	if o.MaxRules <= 0 {
		o.MaxRules = 100
	}
	return o
}

// Discovered is a mined rule with its support.
type Discovered struct {
	Rule    *core.NGD
	Support int // matches of the pattern in G
}

// Mine discovers NGDs holding on g.
func Mine(g *graph.Graph, opts Options) []Discovered {
	opts = opts.defaults()
	var out []Discovered

	// level 1: frequent (srcLabel, edgeLabel, dstLabel) triples
	type triple struct {
		src, edge, dst graph.LabelID
	}
	counts := make(map[triple]int)
	for v := 0; v < g.NumNodes(); v++ {
		sl := g.Label(graph.NodeID(v))
		for _, h := range g.Out(graph.NodeID(v)) {
			counts[triple{sl, h.Label, g.Label(h.To)}]++
		}
	}
	var frequent []triple
	for t, c := range counts {
		if c >= opts.MinSupport {
			frequent = append(frequent, t)
		}
	}
	sort.Slice(frequent, func(i, j int) bool {
		ci, cj := counts[frequent[i]], counts[frequent[j]]
		if ci != cj {
			return ci > cj
		}
		return lessTriple(frequent[i], frequent[j])
	})

	syms := g.Symbols()
	seenPattern := map[string]bool{}
	emit := func(p *pattern.Pattern, support int) {
		if len(out) >= opts.MaxRules {
			return
		}
		key := p.String()
		if seenPattern[key] {
			return
		}
		seenPattern[key] = true
		for _, d := range mineLiterals(g, p, support, opts) {
			out = append(out, d)
			if len(out) >= opts.MaxRules {
				return
			}
		}
	}

	// vertical level 1: single-edge patterns
	type candidate struct {
		p       *pattern.Pattern
		support int
	}
	var level []candidate
	for _, t := range frequent {
		p := pattern.New()
		x := p.AddNode("x", syms.LabelName(t.src))
		y := p.AddNode("y", syms.LabelName(t.dst))
		p.AddEdge(x, y, syms.LabelName(t.edge))
		level = append(level, candidate{p, counts[t]})
		emit(p, counts[t])
		if len(out) >= opts.MaxRules {
			return out
		}
	}

	// vertical expansion: attach one more frequent edge at node x
	for depth := 2; depth <= opts.MaxEdges && len(out) < opts.MaxRules; depth++ {
		var next []candidate
		for _, c := range level {
			baseLabel := c.p.Nodes[0].Label
			for _, t := range frequent {
				if syms.LabelName(t.src) != baseLabel {
					continue
				}
				p := clonePattern(c.p)
				nv := p.AddNode(fmt.Sprintf("v%d", len(p.Nodes)), syms.LabelName(t.dst))
				p.AddEdge(0, nv, syms.LabelName(t.edge))
				support := countMatches(g, p, opts.MaxMatches)
				if support >= opts.MinSupport {
					next = append(next, candidate{p, support})
					emit(p, support)
					if len(out) >= opts.MaxRules {
						return out
					}
				}
			}
		}
		level = next
	}
	return out
}

func lessTriple(a, b struct{ src, edge, dst graph.LabelID }) bool {
	if a.src != b.src {
		return a.src < b.src
	}
	if a.edge != b.edge {
		return a.edge < b.edge
	}
	return a.dst < b.dst
}

func clonePattern(p *pattern.Pattern) *pattern.Pattern {
	q := pattern.New()
	for _, n := range p.Nodes {
		q.AddNode(n.Var, n.Label)
	}
	for _, e := range p.Edges {
		q.AddEdge(e.Src, e.Dst, e.Label)
	}
	return q
}

func countMatches(g *graph.Graph, p *pattern.Pattern, cap int) int {
	cp := pattern.Compile(p, g.Symbols())
	pl := plan.ForPattern(g, cp)
	m := match.NewMatcher(g, pl, match.Hooks{})
	n := 0
	m.Run(match.NewPartial(len(p.Nodes)), func([]graph.NodeID) bool {
		n++
		return n < cap
	})
	return n
}

// sampleMatches returns up to cap matches of p in g.
func sampleMatches(g *graph.Graph, p *pattern.Pattern, cap int) []core.Match {
	cp := pattern.Compile(p, g.Symbols())
	pl := plan.ForPattern(g, cp)
	m := match.NewMatcher(g, pl, match.Hooks{})
	var out []core.Match
	m.Run(match.NewPartial(len(p.Nodes)), func(sol []graph.NodeID) bool {
		out = append(out, append(core.Match(nil), sol...))
		return len(out) < cap
	})
	return out
}

// mineLiterals proposes and verifies Y-literals over the numeric attributes
// of p's matches.
func mineLiterals(g *graph.Graph, p *pattern.Pattern, support int, opts Options) []Discovered {
	matches := sampleMatches(g, p, opts.MaxMatches)
	if len(matches) < opts.MinSupport {
		return nil
	}
	// numeric terms: (pattern node, attr) with integer values in every match
	type term struct {
		node int
		attr graph.AttrID
	}
	var terms []term
	{
		// candidate attrs from the first match, verified across all
		first := matches[0]
		for ni := range p.Nodes {
			g.Attrs(first[ni], func(a graph.AttrID, v graph.Value) {
				if _, ok := v.AsInt(); ok {
					terms = append(terms, term{ni, a})
				}
			})
		}
		sort.Slice(terms, func(i, j int) bool {
			if terms[i].node != terms[j].node {
				return terms[i].node < terms[j].node
			}
			return terms[i].attr < terms[j].attr
		})
	}
	// value vectors per term (nil if any match lacks the attribute)
	vals := make([][]int64, len(terms))
	for ti, t := range terms {
		vec := make([]int64, len(matches))
		ok := true
		for mi, m := range matches {
			v, good := g.Attr(m[t.node], t.attr).AsInt()
			if !good {
				ok = false
				break
			}
			vec[mi] = v
		}
		if ok {
			vals[ti] = vec
		}
	}

	conf := func(pred func(int) bool) float64 {
		hit := 0
		for i := range matches {
			if pred(i) {
				hit++
			}
		}
		return float64(hit) / float64(len(matches))
	}
	termExpr := func(t term) *expr.Expr {
		return expr.V(p.Nodes[t.node].Var, g.Symbols().AttrName(t.attr))
	}

	var out []Discovered
	id := 0
	add := func(lit core.Literal) {
		id++
		// ':' is reserved in rule names (it separates a violation key's fields)
		name := fmt.Sprintf("mined-%s-%d", strings.ReplaceAll(p.Nodes[0].Label, ":", "_"), id)
		rule, err := core.New(name, clonePattern(p), nil, []core.Literal{lit})
		if err != nil {
			return
		}
		// final exactness check when MinConf is 1: no violations at all
		if opts.MinConf >= 1 && !detect.Validate(g, core.NewSet(rule)) {
			return
		}
		out = append(out, Discovered{Rule: rule, Support: support})
	}

	// constant literals: x.A = c
	for ti, t := range terms {
		if vals[ti] == nil {
			continue
		}
		c := vals[ti][0]
		if conf(func(i int) bool { return vals[ti][i] == c }) >= opts.MinConf {
			add(core.Lit(termExpr(t), expr.Eq, expr.C(c)))
		}
	}
	// pairwise: a = b + c (constant offset) and a ≤ b
	for i := range terms {
		if vals[i] == nil {
			continue
		}
		for j := range terms {
			if i == j || vals[j] == nil {
				continue
			}
			off := vals[i][0] - vals[j][0]
			if conf(func(k int) bool { return vals[i][k]-vals[j][k] == off }) >= opts.MinConf {
				if i < j || off != 0 { // skip mirror duplicates of equality
					rhs := expr.Expr(*termExpr(terms[j]))
					e := &rhs
					if off != 0 {
						e = expr.Add(e, expr.C(off))
					}
					add(core.Lit(termExpr(terms[i]), expr.Eq, e))
				}
				continue
			}
			if i < j {
				if conf(func(k int) bool { return vals[i][k] <= vals[j][k] }) >= opts.MinConf {
					add(core.Lit(termExpr(terms[i]), expr.Le, termExpr(terms[j])))
				} else if conf(func(k int) bool { return vals[i][k] >= vals[j][k] }) >= opts.MinConf {
					add(core.Lit(termExpr(terms[i]), expr.Ge, termExpr(terms[j])))
				}
			}
		}
	}
	// sums: a + b = c
	for i := range terms {
		if vals[i] == nil {
			continue
		}
		for j := i + 1; j < len(terms); j++ {
			if vals[j] == nil {
				continue
			}
			for k := range terms {
				if k == i || k == j || vals[k] == nil {
					continue
				}
				if conf(func(m int) bool { return vals[i][m]+vals[j][m] == vals[k][m] }) >= opts.MinConf {
					add(core.Lit(
						expr.Add(termExpr(terms[i]), termExpr(terms[j])),
						expr.Eq, termExpr(terms[k])))
				}
			}
		}
	}
	return out
}
