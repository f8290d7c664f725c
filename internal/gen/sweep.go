package gen

import (
	"math/rand"

	"ngd/internal/core"
	"ngd/internal/graph"
)

// Sweep is the setup of the commit-cost-versus-size sweep over yago2 at n
// entities: the dataset, with an attribute index on integer.val and an
// edge-value index on p0 already built, and a Σ of eight generated rules
// plus a flag rule that seeds at that attribute index and a peer rule whose
// ¬Y cut reads that edge index.
func Sweep(n int) (*Dataset, *core.Set) {
	ds := Generate(YAGO2, n, 5)
	syms := ds.G.Symbols()
	ds.G.EnsureAttrIndex(syms.Label("integer"), syms.Attr("val"))
	ds.G.EnsureEdgeValIndex(syms.Label("p0"), syms.Attr("val"), false)
	sigma := Rules(YAGO2, RuleConfig{Count: 8, MaxDiameter: 4, Seed: 17})
	sigma.Add(WildFlagRule(90), PeerCycleRule(YAGO2, 91))
	return ds, sigma
}

// SweepCommit is one kind of the sweep's commits: Next draws the next batch
// of its kind, to be committed on ds.G.
type SweepCommit struct {
	Name string
	Next func() (*graph.Delta, []graph.AttrOp)
}

// SweepCommits returns the sweep's three commit kinds over ds, drawing from
// rng: 16 edge ops, one node arrival, and 16 attribute writes on an indexed
// attribute. The edge and attribute commits touch 16 entities next to each
// other in score order, whose p0 values lie together as the keys of a local
// ΔG do: random picks over a small graph land in most of its index chunks
// and posting pages, which reads as growth with the graph that is not there.
func SweepCommits(ds *Dataset, rng *rand.Rand) []SweepCommit {
	g := ds.G
	syms := g.Symbols()
	integer, p0, val := syms.Label("integer"), syms.Label("p0"), syms.Attr("val")
	window := func() []int {
		i := rng.Intn(len(ds.ScoreOrder) - 16)
		return ds.ScoreOrder[i : i+16]
	}
	return []SweepCommit{
		{"edge", func() (*graph.Delta, []graph.AttrOp) {
			// 8 entities lose their p0 edge, 8 gain a second one
			d := &graph.Delta{}
			w := window()
			for j, i := range w {
				if j%2 == 0 {
					d.Delete(ds.Entities[i], ds.PropNode[i][0], p0)
				} else {
					d.Insert(ds.Entities[i], ds.PropNode[w[j-1]][0], p0)
				}
			}
			return d, nil
		}},
		{"arrival", func() (*graph.Delta, []graph.AttrOp) {
			v := g.AddNodeL(integer)
			g.SetAttrA(v, val, graph.Int(rng.Int63n(2000)))
			d := &graph.Delta{}
			d.Insert(ds.Entities[rng.Intn(len(ds.Entities))], v, p0)
			return d, nil
		}},
		{"setattr", func() (*graph.Delta, []graph.AttrOp) {
			// 16 scores move by one
			var ops []graph.AttrOp
			for _, i := range window() {
				v := ds.PropNode[i][0]
				k, _ := g.Attr(v, val).AsInt()
				ops = append(ops, graph.AttrOp{Node: v, Attr: val, Val: graph.Int(k + 1)})
			}
			return nil, ops
		}},
	}
}
