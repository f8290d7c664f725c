// Social-network fake-account detection with incremental maintenance —
// the paper's φ4 (Example 3) and the update scenario of Examples 6 and 7.
//
// Accounts keyed to the same company are compared: if a real account
// (status = 1) out-follows and out-followers another by a large margin,
// the other is likely fake. The demo first runs batch detection, then
// streams a batch update ΔG (the deletion from Example 6 plus fresh
// accounts as in Example 7) through IncDetect and PIncDetect, showing
// ΔVio⁺/ΔVio⁻ instead of recomputation.
//
// φ4's precondition s1.val = 1 is the constant-literal shape the matcher
// compiles into an attribute-index candidate filter (§6.2 step (3), see
// DESIGN.md §3), so this example also exercises the pruned matching path.
// Expected output: six seeded "-helpdesk" fakes flagged by the batch run;
// after ΔG, one violation removed (status evidence deleted) and one added,
// with PIncDetect (p=8) agreeing and reporting its simulated makespan.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ngd"
)

func main() {
	g := ngd.NewGraph()
	rng := rand.New(rand.NewSource(7))

	// companies with one verified account and a population of normal
	// accounts; a handful of fakes mimic the NatWest_Help scam
	type company struct {
		node     ngd.NodeID
		verified ngd.NodeID
	}
	var companies []company
	var fakeNames []string
	for c := 0; c < 20; c++ {
		cn := g.AddNode("company")
		g.SetAttr(cn, "name", ngd.Str(fmt.Sprintf("company-%d", c)))
		ver := addAccount(g, fmt.Sprintf("company-%d-official", c), true,
			50000+rng.Int63n(100000), 10000+rng.Int63n(30000))
		g.AddEdge(ver, cn, "keys")
		companies = append(companies, company{cn, ver})
		if rng.Float64() < 0.3 {
			name := fmt.Sprintf("company-%d-helpdesk", c)
			fake := addAccount(g, name, true, rng.Int63n(5), rng.Int63n(5))
			g.AddEdge(fake, cn, "keys")
			fakeNames = append(fakeNames, name)
		}
	}

	rule := phi4()
	set := ngd.NewRuleSet(rule)

	res := ngd.Detect(g, set)
	fmt.Printf("batch detection: %d suspicious account pairs (seeded %d fakes)\n",
		len(res.Violations), len(fakeNames))
	for _, v := range res.Violations {
		y := v.Match[v.Rule.Pattern.VarIndex("y")]
		name, _ := g.AttrByName(y, "name").AsString()
		fmt.Printf("  flagged: %s\n", name)
	}

	// Example 6: the verified account of company 0 loses its status edge;
	// Example 7: a new clean helper account appears for the same company.
	delta := &ngd.Delta{}
	first := companies[0]
	statusLbl := g.Symbols().LookupLabel("status")
	var statusNode ngd.NodeID = -1
	for _, h := range g.Out(first.verified) {
		if h.Label == statusLbl {
			statusNode = h.To
		}
	}
	delta.Delete(first.verified, statusNode, statusLbl)

	clean := addAccount(g, "company-0-support", true, 40000, 9000)
	delta.Insert(clean, first.node, g.Symbols().LookupLabel("keys"))
	// account edges arrive with the batch: re-link its property edges via
	// the delta to exercise insertion pivots
	for _, h := range g.Out(clean) {
		delta.Insert(clean, h.To, h.Label)
		g.DeleteEdgeL(clean, h.To, h.Label)
	}

	dv := ngd.IncDetect(g, set, delta)
	fmt.Printf("\nincremental after ΔG (|ΔG| = %d): %d new violations, %d removed\n",
		delta.Len(), len(dv.Plus), len(dv.Minus))
	for _, v := range dv.Minus {
		y := v.Match[v.Rule.Pattern.VarIndex("y")]
		name, _ := g.AttrByName(y, "name").AsString()
		fmt.Printf("  no longer flagged (status evidence deleted): %s\n", name)
	}

	// the parallel incremental algorithm returns the same answer; it runs
	// as a deterministic simulation of 8 processors, so the makespan below
	// is reproducible
	pdv, metrics := ngd.PIncDetect(g, set, delta, ngd.Parallel(8))
	if len(pdv.Plus) != len(dv.Plus) || len(pdv.Minus) != len(dv.Minus) {
		log.Fatal("PIncDetect disagrees with IncDetect")
	}
	fmt.Printf("\nPIncDetect (p=8) agrees; simulated makespan %.0f cost units, %d work units\n",
		metrics.Makespan, metrics.Units)
}

// phi4 builds φ4 = Q4[x̄]({s1.val = 1, (m1−m2) + (n1−n2) > 10000} → s2.val = 0).
func phi4() *ngd.Rule {
	q := ngd.NewPattern()
	x := q.AddNode("x", "account")
	y := q.AddNode("y", "account")
	w := q.AddNode("w", "company")
	s1 := q.AddNode("s1", "boolean")
	m1 := q.AddNode("m1", "integer")
	n1 := q.AddNode("n1", "integer")
	s2 := q.AddNode("s2", "boolean")
	m2 := q.AddNode("m2", "integer")
	n2 := q.AddNode("n2", "integer")
	q.AddEdge(x, w, "keys")
	q.AddEdge(y, w, "keys")
	q.AddEdge(x, s1, "status")
	q.AddEdge(x, m1, "following")
	q.AddEdge(x, n1, "follower")
	q.AddEdge(y, s2, "status")
	q.AddEdge(y, m2, "following")
	q.AddEdge(y, n2, "follower")
	return ngd.MustRule("phi4", q,
		[]ngd.Literal{
			ngd.MustLiteral("s1.val = 1"),
			ngd.MustLiteral("(m1.val - m2.val) + (n1.val - n2.val) > 10000"),
		},
		[]ngd.Literal{ngd.MustLiteral("s2.val = 0")},
	)
}

func addAccount(g *ngd.Graph, name string, status bool, followers, following int64) ngd.NodeID {
	a := g.AddNode("account")
	g.SetAttr(a, "name", ngd.Str(name))
	s := g.AddNode("boolean")
	g.SetAttr(s, "val", ngd.Bool(status))
	g.AddEdge(a, s, "status")
	fo := g.AddNode("integer")
	g.SetAttr(fo, "val", ngd.Int(followers))
	g.AddEdge(a, fo, "follower")
	fg := g.AddNode("integer")
	g.SetAttr(fg, "val", ngd.Int(following))
	g.AddEdge(a, fg, "following")
	return a
}
