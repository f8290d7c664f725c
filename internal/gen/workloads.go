package gen

// The differential workload table. Every suite that checks a fast path
// against the reference oracle (internal/ref) draws its inputs from here:
// the rows, the Σ transforms that steer the engine down its other paths,
// and the seeded batch stream. Each suite keeps its own check.

import (
	"fmt"
	"math"
	"strings"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/pattern"
)

// Workload is one row of the table: a generated graph, a Σ over it and a
// stream of Batches seeded batches.
type Workload struct {
	Profile   Profile
	Entities  int
	Rules     int
	Seed      int64
	Batches   int
	BatchFrac float64
	Gamma     float64 // 0 = 1 (paper default)
	Hotspot   float64 // 0 = generator default (burst-skewed); -1 = uniform
	NoPrune   bool    // Σ rewritten by Unprunable
	ParTag    bool    // name carries "par"; see Workloads
	NodeRule  bool    // Σ gains NodeRule (the per-node absorption path)
	LitPaths  bool    // Σ gains LitPathRules, the graph is decorated, batches carry attribute ops
	Band      bool    // Σ gains BandRule, its targets are decorated, batches move them (BandOps)
}

// Workloads is the differential table: every profile, prunable and
// unprunable Σ, two seeds each, plus seed, stream and rule-shape variants.
func Workloads() []Workload {
	var ws []Workload
	profiles := []Profile{DBpedia, YAGO2, Pokec, Synthetic}
	entities := map[string]int{"dbpedia": 180, "yago2": 180, "pokec": 90, "synthetic": 180}
	for _, p := range profiles {
		for _, seed := range []int64{1, 2} {
			for _, noPrune := range []bool{false, true} {
				ws = append(ws, Workload{
					Profile: p, Entities: entities[p.Name], Rules: 10,
					Seed: seed, Batches: 3, BatchFrac: 0.06, NoPrune: noPrune,
				})
			}
		}
	}
	// seeds 3–6, one per profile: these rows once routed the session
	// through PIncDect and commit sequentially like every row now; the "par"
	// tag stays in their names so their test ids do not change
	for i, p := range profiles {
		ws = append(ws, Workload{
			Profile: p, Entities: entities[p.Name], Rules: 10,
			Seed: int64(3 + i), Batches: 3, BatchFrac: 0.06, ParTag: true,
		})
	}
	// edge-less rule in Σ: new-node absorption must stay consistent
	for _, seed := range []int64{5, 6} {
		ws = append(ws, Workload{
			Profile: YAGO2, Entities: 150, Rules: 8,
			Seed: seed, Batches: 3, BatchFrac: 0.08, NodeRule: true,
		})
	}
	// uniform (non-bursty) stream and delete-heavy / insert-heavy mixes
	ws = append(ws,
		Workload{Profile: Synthetic, Entities: 180, Rules: 10,
			Seed: 7, Batches: 3, BatchFrac: 0.06, Hotspot: -1},
		Workload{Profile: DBpedia, Entities: 180, Rules: 10,
			Seed: 8, Batches: 3, BatchFrac: 0.08, Gamma: 3.0},
		Workload{Profile: YAGO2, Entities: 180, Rules: 10,
			Seed: 9, Batches: 3, BatchFrac: 0.08, Gamma: 0.3},
		// every way a literal is decided in one Σ (LitPathRules)
		Workload{Profile: YAGO2, Entities: 180, Rules: 10,
			Seed: 10, Batches: 3, BatchFrac: 0.06, LitPaths: true},
		// the ¬Y cut's soundness trap (BandRule)
		Workload{Profile: YAGO2, Entities: 180, Rules: 10,
			Seed: 11, Batches: 4, BatchFrac: 0.06, Band: true},
	)
	return ws
}

// Name is the row's subtest name: profile/seed, then its tags.
func (w Workload) Name() string {
	var tags []string
	if w.Band {
		tags = append(tags, "band")
	}
	if w.LitPaths {
		tags = append(tags, "litpaths")
	}
	if w.NoPrune {
		tags = append(tags, "noprune")
	}
	if w.ParTag {
		tags = append(tags, "par")
	}
	if w.NodeRule {
		tags = append(tags, "noderule")
	}
	if w.Hotspot < 0 {
		tags = append(tags, "uniform")
	}
	if w.Gamma != 0 {
		tags = append(tags, fmt.Sprintf("gamma%.1f", w.Gamma))
	}
	tag := ""
	if len(tags) > 0 {
		tag = "/" + strings.Join(tags, "+")
	}
	return fmt.Sprintf("%s/seed%d%s", w.Profile.Name, w.Seed, tag)
}

// Sigma builds the row's rule set.
func (w Workload) Sigma() *core.Set {
	rules := Rules(w.Profile, RuleConfig{Count: w.Rules, MaxDiameter: 4, Seed: w.Seed})
	if w.NodeRule {
		rules.Add(NodeRule())
	}
	if w.LitPaths {
		rules.Add(LitPathRules(w.Profile)...)
	}
	if w.Band {
		rules.Add(BandRule(w.Profile))
	}
	if w.NoPrune {
		rules = Unprunable(rules)
	}
	return rules
}

// Dataset generates the row's graph.
func (w Workload) Dataset() *Dataset {
	ds := Generate(w.Profile, w.Entities, w.Seed)
	if w.LitPaths {
		decorate(ds)
	}
	if w.Band {
		decorateBand(ds)
	}
	return ds
}

// Delta is batch b's ΔG against the dataset's current graph. A suite that
// needs one more batch beside the stream passes a b past Batches.
func (w Workload) Delta(ds *Dataset, b int) *graph.Delta {
	return RandomDelta(ds, DeltaConfig{
		Size:    DeltaSize(ds.G, w.BatchFrac),
		Gamma:   w.Gamma,
		Seed:    w.Seed*1000 + int64(b),
		Hotspot: w.Hotspot,
	})
}

// AttrOps is batch b's attribute ops: BandOps on a Band row; none but on a
// LitPaths row, and there none with the first batch, then a third of the
// entities get (or change) a risk.
func (w Workload) AttrOps(ds *Dataset, b int) []graph.AttrOp {
	if w.Band {
		return bandOps(ds, b)
	}
	if !w.LitPaths || b == 0 {
		return nil
	}
	risk := ds.G.Symbols().Attr("risk")
	var ops []graph.AttrOp
	for i, e := range ds.Entities {
		if i%3 == b%3 {
			ops = append(ops, graph.AttrOp{Node: e, Attr: risk, Val: graph.Int(int64((i + b) % 4))})
		}
	}
	return ops
}

// Unprunable rewrites every precondition L ⊗ R as L+0 ⊗ R+0: the same
// meaning on numeric attributes, but no longer the bare-term-vs-constant
// shape the planner compiles into candidate filters and index seeds. The
// same Σ therefore runs down the engine's other path — label-bucket scans
// with every literal left to the level-by-level schedule — on the same graph
// and stream as the prunable row beside it.
func Unprunable(rules *core.Set) *core.Set {
	out := core.NewSet()
	for _, r := range rules.Rules {
		x := make([]core.Literal, len(r.X))
		for i, l := range r.X {
			x[i] = core.Lit(expr.Add(l.L, expr.C(0)), l.Op, expr.Add(l.R, expr.C(0)))
		}
		out.Add(core.MustNew(r.Name, r.Pattern, x, r.Y))
	}
	return out
}

// NodeRule is an edge-less (single-node) rule, "no-seven": integer nodes
// must not hold the value 7. Its violations flow through per-node
// absorption, which the edge-driven pivot detectors cannot cover.
func NodeRule() *core.NGD {
	q := pattern.New()
	q.AddNode("x", "integer")
	return core.MustNew("no-seven", q, nil, []core.Literal{
		core.Lit(expr.V("x", "val"), expr.Ne, expr.C(7)),
	})
}

// LitPathRules is one rule per way a literal can be decided, on top of the
// plain and |·| integer kernels every generated Σ already runs: the string
// kernel, a literal the kernel compiler refuses (a cancelled term), a sum
// that leaves int64 on decorated values and falls back to math/big, and an
// attribute no node carries until a later batch sets it.
func LitPathRules(p Profile) []*core.NGD {
	hop := func() *pattern.Pattern {
		q := pattern.New()
		x, y := q.AddNode("x", "_"), q.AddNode("y", "_")
		a, b := q.AddNode("a", "integer"), q.AddNode("b", "integer")
		q.AddEdge(x, y, "next")
		q.AddEdge(x, a, "p0")
		q.AddEdge(y, b, "p0")
		return q
	}
	sum := pattern.New()
	x := sum.AddNode("x", "_")
	for i, v := range []string{"a", "b", "c"} {
		sum.AddEdge(x, sum.AddNode(v, "integer"), PropLabels[i+1])
	}
	lits := func(srcs ...string) []core.Literal {
		out := make([]core.Literal, len(srcs))
		for i, src := range srcs {
			out[i] = core.MustLiteral(src)
		}
		return out
	}
	return []*core.NGD{
		core.MustNew("lit-string", hop(), lits(`x.tag != "living people"`), lits("x.tag = y.tag")),
		core.MustNew("lit-refused", hop(), lits("a.val - a.val = 0"),
			lits(fmt.Sprintf("abs(a.val - b.val) <= %d", p.MaxDrift))),
		core.MustNew("lit-overflow", sum, nil, lits("a.val + b.val <= c.val")),
		core.MustNew("lit-late", hop(), lits("x.risk - y.risk >= 1"), lits("a.val <= b.val")),
	}
}

// decorate gives LitPathRules something to decide: a string tag on every
// entity, and on every ninth one p1 = p2 = 2⁶² against p3 = MaxInt64, so
// p1 + p2 ≤ p3 is false only in exact arithmetic (wrapped, 2⁶³ is negative).
func decorate(ds *Dataset) {
	for i, e := range ds.Entities {
		tag := "person"
		if i%4 == 0 {
			tag = "living people"
		} else if i%3 == 0 {
			tag = "place"
		}
		ds.G.SetAttr(e, "tag", graph.Str(tag))
		if i%9 == 0 {
			ds.G.SetAttr(ds.PropNode[i][1], "val", graph.Int(1<<62))
			ds.G.SetAttr(ds.PropNode[i][2], "val", graph.Int(1<<62))
			ds.G.SetAttr(ds.PropNode[i][3], "val", graph.Int(math.MaxInt64))
		}
	}
}

// BandRule is the follower shape with a tolerance that spans every value
// the generator draws: two followers of one hub whose p4 values differ by
// at most 4·ValueRange. Only a p4 target without an integer value (absent,
// a string, a non-integral float) or a far outlier violates it, so the ¬Y
// cut (plan.Cut) prunes nearly every branch — and must prune none while such
// a target exists.
func BandRule(p Profile) *core.NGD {
	r := FollowerRule(p, 0)
	return core.MustNew("band-follower", r.Pattern, nil, []core.Literal{
		core.MustLiteral(fmt.Sprintf("abs(a.val - b.val) <= %d", 4*p.ValueRange)),
	})
}

// bandTargets returns the p4 targets of the first four entities other than
// hub 0, which decorateBand makes follow it: each decorated target then sits
// in BandRule's matches, at the same node ids whatever the stream does.
func bandTargets(ds *Dataset) []graph.NodeID {
	var ts []graph.NodeID
	for i := 0; len(ts) < 4; i++ {
		if ds.Entities[i] != ds.Hubs[0] {
			ts = append(ts, ds.PropNode[i][4])
		}
	}
	return ts
}

// decorateBand leaves BandRule's targets the four ways the cut must not
// ignore: one entity gains a second p4 target without a value, one target
// holds a string, one a non-integral float, one a far outlier.
func decorateBand(ds *Dataset) {
	g := ds.G
	for i := 0; i < 5; i++ {
		if e := ds.Entities[i]; e != ds.Hubs[0] {
			g.AddEdge(e, ds.Hubs[0], "follows")
		}
	}
	ts := bandTargets(ds)
	g.AddEdge(g.In(ts[0])[0].To, g.AddNode("integer"), "p4")
	g.SetAttr(ts[1], "val", graph.Str("n/a"))
	g.SetAttr(ts[2], "val", graph.Float(2.5))
	g.SetAttr(ts[3], "val", graph.Int(1<<40))
}

// bandOps moves BandRule's targets in and out of its band, batch by batch:
// the outlier comes in while three targets stay uncovered; an edge-only
// batch; every target covered and inside the band, so the cut takes every
// branch; then a string and a far outlier again.
func bandOps(ds *Dataset, b int) []graph.AttrOp {
	g := ds.G
	ts := bandTargets(ds)
	val := g.Symbols().Attr("val")
	in := graph.Int(ds.Profile.ValueRange / 2)
	switch b {
	case 0:
		return []graph.AttrOp{{Node: ts[3], Attr: val, Val: in}}
	case 2:
		ops := []graph.AttrOp{{Node: ts[1], Attr: val, Val: in}, {Node: ts[2], Attr: val, Val: graph.Float(3)}}
		// the valueless target: the one integer node the stream never gives
		// a value
		for _, v := range g.NodesWithLabel(g.Symbols().Label("integer")) {
			if !g.Attr(v, val).Valid() {
				ops = append(ops, graph.AttrOp{Node: v, Attr: val, Val: in})
			}
		}
		return ops
	case 3:
		return []graph.AttrOp{{Node: ts[1], Attr: val, Val: graph.Str("n/a")},
			{Node: ts[0], Attr: val, Val: graph.Int(-1 << 40)}}
	}
	return nil
}
