// Package paperdata reconstructs the running examples of Fan et al.
// (SIGMOD 2018): the graphs G1–G4 of Figure 1, the patterns Q1–Q4 of
// Figure 2, the NGDs φ1–φ4 of Example 3, and the Exp-5 rules NGD1–NGD3.
// Tests, examples and benches all share these fixtures.
package paperdata

import (
	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/pattern"
)

// G1 is the Yago fragment: BBC_Trust created 2007 but destroyed 1946
// (dates carried as day-resolution integers on attribute "val").
// Returns the graph and the BBC_Trust node.
func G1() (*graph.Graph, graph.NodeID) {
	g := graph.New()
	inst := g.AddNode("institution")
	created := g.AddNode("date")
	destroyed := g.AddNode("date")
	// days since epoch-ish values: 2007-01-01 and 1946-08-28
	g.SetAttr(created, "val", graph.Int(dayNumber(2007, 1, 1)))
	g.SetAttr(destroyed, "val", graph.Int(dayNumber(1946, 8, 28)))
	g.SetAttr(inst, "name", graph.Str("BBC_Trust"))
	g.AddEdge(inst, created, "wasCreatedOnDate")
	g.AddEdge(inst, destroyed, "wasDestroyedOnDate")
	return g, inst
}

// Q1 is the pattern of φ1: x -wasCreatedOnDate-> y, x -wasDestroyedOnDate-> z,
// with x a wildcard and y, z dates.
func Q1() *pattern.Pattern {
	p := pattern.New()
	x := p.AddNode("x", "_")
	y := p.AddNode("y", "date")
	z := p.AddNode("z", "date")
	p.AddEdge(x, y, "wasCreatedOnDate")
	p.AddEdge(x, z, "wasDestroyedOnDate")
	return p
}

// Phi1 is φ1 = Q1[x,y,z](∅ → z.val − y.val ≥ c): an entity cannot be
// destroyed within c days of its creation.
func Phi1(c int64) *core.NGD {
	return core.MustNew("phi1", Q1(), nil, []core.Literal{
		core.Lit(expr.Sub(expr.V("z", "val"), expr.V("y", "val")), expr.Ge, expr.C(c)),
	})
}

// G2 is the Yago fragment: village Bhonpur with 600 females, 722 males,
// total population 1572. Returns the graph and the area node.
func G2() (*graph.Graph, graph.NodeID) {
	g := graph.New()
	area := g.AddNode("area")
	g.SetAttr(area, "name", graph.Str("Bhonpur"))
	f := g.AddNode("integer")
	m := g.AddNode("integer")
	t := g.AddNode("integer")
	g.SetAttr(f, "val", graph.Int(600))
	g.SetAttr(m, "val", graph.Int(722))
	g.SetAttr(t, "val", graph.Int(1572))
	g.AddEdge(area, f, "femalePopulation")
	g.AddEdge(area, m, "malePopulation")
	g.AddEdge(area, t, "populationTotal")
	return g, area
}

// Q2 is the pattern of φ2.
func Q2() *pattern.Pattern {
	p := pattern.New()
	x := p.AddNode("x", "area")
	y := p.AddNode("y", "integer")
	z := p.AddNode("z", "integer")
	w := p.AddNode("w", "integer")
	p.AddEdge(x, y, "femalePopulation")
	p.AddEdge(x, z, "malePopulation")
	p.AddEdge(x, w, "populationTotal")
	return p
}

// Phi2 is φ2 = Q2[w,x,y,z](∅ → y.val + z.val = w.val).
func Phi2() *core.NGD {
	return core.MustNew("phi2", Q2(), nil, []core.Literal{
		core.Lit(expr.Add(expr.V("y", "val"), expr.V("z", "val")), expr.Eq, expr.V("w", "val")),
	})
}

// G3 is the DBpedia fragment: Corona (population 160000, rank 33) and
// Downey (111772, rank 11) both part of California.
func G3() *graph.Graph {
	g := graph.New()
	ca := g.AddNode("place")
	g.SetAttr(ca, "name", graph.Str("California"))
	corona := g.AddNode("place")
	g.SetAttr(corona, "name", graph.Str("Corona"))
	downey := g.AddNode("place")
	g.SetAttr(downey, "name", graph.Str("Downey"))
	census := g.AddNode("date")
	g.SetAttr(census, "val", graph.Int(dayNumber(2014, 4, 1)))

	cPop := g.AddNode("integer")
	g.SetAttr(cPop, "val", graph.Int(160000))
	cRank := g.AddNode("integer")
	g.SetAttr(cRank, "val", graph.Int(33))
	dPop := g.AddNode("integer")
	g.SetAttr(dPop, "val", graph.Int(111772))
	dRank := g.AddNode("integer")
	g.SetAttr(dRank, "val", graph.Int(11))

	g.AddEdge(corona, ca, "partof")
	g.AddEdge(downey, ca, "partof")
	g.AddEdge(corona, cPop, "population")
	g.AddEdge(corona, cRank, "populationRank")
	g.AddEdge(downey, dPop, "population")
	g.AddEdge(downey, dRank, "populationRank")
	g.AddEdge(corona, census, "date")
	g.AddEdge(downey, census, "date")
	return g
}

// Q3 is the pattern of φ3: places x and y in the same area z with
// populations m1, m2, ranks n1, n2 and a shared census date w.
func Q3() *pattern.Pattern {
	p := pattern.New()
	x := p.AddNode("x", "place")
	y := p.AddNode("y", "place")
	z := p.AddNode("z", "place")
	w := p.AddNode("w", "date")
	m1 := p.AddNode("m1", "integer")
	n1 := p.AddNode("n1", "integer")
	m2 := p.AddNode("m2", "integer")
	n2 := p.AddNode("n2", "integer")
	p.AddEdge(x, z, "partof")
	p.AddEdge(y, z, "partof")
	p.AddEdge(x, m1, "population")
	p.AddEdge(x, n1, "populationRank")
	p.AddEdge(y, m2, "population")
	p.AddEdge(y, n2, "populationRank")
	p.AddEdge(x, w, "date")
	p.AddEdge(y, w, "date")
	return p
}

// Phi3 is φ3 = Q3[x̄](m1.val < m2.val → n1.val > n2.val).
func Phi3() *core.NGD {
	return core.MustNew("phi3", Q3(),
		[]core.Literal{core.Lit(expr.V("m1", "val"), expr.Lt, expr.V("m2", "val"))},
		[]core.Literal{core.Lit(expr.V("n1", "val"), expr.Gt, expr.V("n2", "val"))},
	)
}

// G4 is the Twitter fragment: real account NatWest Help (status 1,
// 75900 followers, 22000 following) and fake NatWest_Help (status 1,
// 1 follower, 2 following... per Fig. 1: follower 2, following 1),
// both keyed to company NatWest.
// Returns the graph, the real account node and the fake account node.
func G4() (*graph.Graph, graph.NodeID, graph.NodeID) {
	g := graph.New()
	company := g.AddNode("company")
	g.SetAttr(company, "name", graph.Str("NatWest"))

	real := g.AddNode("account")
	g.SetAttr(real, "name", graph.Str("NatWest Help"))
	fake := g.AddNode("account")
	g.SetAttr(fake, "name", graph.Str("NatWest_Help"))

	rs := g.AddNode("boolean")
	g.SetAttr(rs, "val", graph.Bool(true))
	rf := g.AddNode("integer")
	g.SetAttr(rf, "val", graph.Int(75900))
	rg := g.AddNode("integer")
	g.SetAttr(rg, "val", graph.Int(22000))

	fs := g.AddNode("boolean")
	g.SetAttr(fs, "val", graph.Bool(true))
	ff := g.AddNode("integer")
	g.SetAttr(ff, "val", graph.Int(2))
	fg := g.AddNode("integer")
	g.SetAttr(fg, "val", graph.Int(1))

	g.AddEdge(real, company, "keys")
	g.AddEdge(fake, company, "keys")
	g.AddEdge(real, rs, "status")
	g.AddEdge(real, rf, "follower")
	g.AddEdge(real, rg, "following")
	g.AddEdge(fake, fs, "status")
	g.AddEdge(fake, ff, "follower")
	g.AddEdge(fake, fg, "following")
	return g, real, fake
}

// Q4 is the pattern of φ4: accounts x and y keyed to the same company w,
// with status s1/s2, following m1/m2, followers n1/n2.
func Q4() *pattern.Pattern {
	p := pattern.New()
	x := p.AddNode("x", "account")
	y := p.AddNode("y", "account")
	w := p.AddNode("w", "company")
	s1 := p.AddNode("s1", "boolean")
	m1 := p.AddNode("m1", "integer")
	n1 := p.AddNode("n1", "integer")
	s2 := p.AddNode("s2", "boolean")
	m2 := p.AddNode("m2", "integer")
	n2 := p.AddNode("n2", "integer")
	p.AddEdge(x, w, "keys")
	p.AddEdge(y, w, "keys")
	p.AddEdge(x, s1, "status")
	p.AddEdge(x, m1, "following")
	p.AddEdge(x, n1, "follower")
	p.AddEdge(y, s2, "status")
	p.AddEdge(y, m2, "following")
	p.AddEdge(y, n2, "follower")
	return p
}

// Phi4 is φ4 = Q4[x̄]({s1.val = 1, a×(m1.val−m2.val) + b×(n1.val−n2.val) > c}
// → s2.val = 0): if the weighted follower/following gap between a real
// account x and y exceeds c, then y should be marked fake.
func Phi4(a, b, c int64) *core.NGD {
	gap := expr.Add(
		expr.Mul(expr.C(a), expr.Sub(expr.V("m1", "val"), expr.V("m2", "val"))),
		expr.Mul(expr.C(b), expr.Sub(expr.V("n1", "val"), expr.V("n2", "val"))),
	)
	return core.MustNew("phi4", Q4(),
		[]core.Literal{
			core.Lit(expr.V("s1", "val"), expr.Eq, expr.C(1)),
			core.Lit(gap, expr.Gt, expr.C(c)),
		},
		[]core.Literal{core.Lit(expr.V("s2", "val"), expr.Eq, expr.C(0))},
	)
}

// dayNumber converts a calendar date to a day count (proleptic Gregorian,
// days since 0000-03-01); only differences matter for the rules.
func dayNumber(y, m, d int) int64 {
	if m <= 2 {
		y--
		m += 12
	}
	era := y / 400
	yoe := y - era*400
	doy := (153*(m-3)+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return int64(era)*146097 + int64(doe)
}

// AllRules returns {φ1(c=365), φ2, φ3, φ4(1,1,10000)} as a Σ.
func AllRules() *core.Set {
	return core.NewSet(Phi1(365), Phi2(), Phi3(), Phi4(1, 1, 10000))
}

// ExtendedRules is AllRules plus the two pattern shapes φ1–φ4 lack: a
// disconnected rule (two edge components and an isolated node, so arrivals
// are absorbed and pivot plans seed) and a self-loop pattern edge — and two
// clones: φ3 under another name, and the self-loop rule with its variable
// renamed. The commit fuzzer runs it over MergedGraph.
func ExtendedRules() *core.Set {
	rules := AllRules()
	phi3 := Phi3()
	rules.Add(core.MustNew("phi3-copy", phi3.Pattern, phi3.X, phi3.Y))

	q := pattern.New()
	x, m := q.AddNode("x", "place"), q.AddNode("m", "integer")
	a, n := q.AddNode("a", "account"), q.AddNode("n", "integer")
	q.AddNode("z", "date")
	q.AddEdge(x, m, "population")
	q.AddEdge(a, n, "follower")
	rules.Add(core.MustNew("apart", q, nil, []core.Literal{
		core.Lit(expr.Add(expr.V("m", "val"), expr.V("n", "val")), expr.Gt, expr.V("z", "val")),
	}))

	q = pattern.New()
	x = q.AddNode("x", "_")
	q.AddEdge(x, x, "partof")
	rules.Add(core.MustNew("loop", q, nil, []core.Literal{core.Lit(expr.V("x", "val"), expr.Ge, expr.C(0))}))

	q = pattern.New()
	v := q.AddNode("v", "_")
	q.AddEdge(v, v, "partof")
	rules.Add(core.MustNew("loop-renamed", q, nil, []core.Literal{core.Lit(expr.V("v", "val"), expr.Ge, expr.C(0))}))
	return rules
}

// MergedGraph unions G1–G4 into a single graph (fresh node ids, shared
// symbol table) so one Σ can be validated against all four at once.
func MergedGraph() *graph.Graph {
	g := graph.New()
	add := func(src *graph.Graph) {
		offset := graph.NodeID(g.NumNodes())
		for v := 0; v < src.NumNodes(); v++ {
			id := g.AddNode(src.LabelName(graph.NodeID(v)))
			src.Attrs(graph.NodeID(v), func(a graph.AttrID, val graph.Value) {
				g.SetAttr(id, src.Symbols().AttrName(a), val)
			})
		}
		for v := 0; v < src.NumNodes(); v++ {
			for _, h := range src.Out(graph.NodeID(v)) {
				g.AddEdge(offset+graph.NodeID(v), offset+h.To, src.Symbols().LabelName(h.Label))
			}
		}
	}
	g1, _ := G1()
	g2, _ := G2()
	g4, _, _ := G4()
	add(g1)
	add(g2)
	add(G3())
	add(g4)
	return g
}
