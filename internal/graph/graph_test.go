package graph

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func buildTriangle(t *testing.T) (*Graph, [3]NodeID) {
	t.Helper()
	g := New()
	a := g.AddNode("person")
	b := g.AddNode("person")
	c := g.AddNode("city")
	g.AddEdge(a, b, "knows")
	g.AddEdge(b, c, "livesIn")
	g.AddEdge(a, c, "livesIn")
	return g, [3]NodeID{a, b, c}
}

func TestBasicGraphOps(t *testing.T) {
	g, n := buildTriangle(t)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("size = (%d,%d), want (3,3)", g.NumNodes(), g.NumEdges())
	}
	knows := g.Symbols().LookupLabel("knows")
	livesIn := g.Symbols().LookupLabel("livesIn")
	if !g.HasEdgeL(n[0], n[1], knows) {
		t.Error("missing a-knows->b")
	}
	if g.HasEdgeL(n[1], n[0], knows) {
		t.Error("edges must be directed")
	}
	if !g.HasEdgeL(n[0], n[2], livesIn) || !g.HasEdgeL(n[1], n[2], livesIn) {
		t.Error("missing livesIn edges")
	}
	// duplicate insertion is a no-op
	if g.AddEdgeL(n[0], n[1], knows) {
		t.Error("duplicate edge reported as new")
	}
	if g.NumEdges() != 3 {
		t.Error("duplicate changed edge count")
	}
	// parallel edge with different label is distinct
	if !g.AddEdge(n[0], n[1], "follows") {
		t.Error("parallel edge with new label should insert")
	}
	if g.NumEdges() != 4 {
		t.Error("edge count after parallel insert")
	}
	if got := g.InDegree(n[2]); got != 2 {
		t.Errorf("InDegree(city) = %d, want 2", got)
	}
	if got := len(g.NodesWithLabel(g.Symbols().LookupLabel("person"))); got != 2 {
		t.Errorf("NodesWithLabel(person) = %d, want 2", got)
	}
	if g.CountLabel(Wildcard) != 3 {
		t.Errorf("CountLabel(wildcard) = %d, want 3", g.CountLabel(Wildcard))
	}
}

func TestDeleteEdge(t *testing.T) {
	g, n := buildTriangle(t)
	knows := g.Symbols().LookupLabel("knows")
	if !g.DeleteEdgeL(n[0], n[1], knows) {
		t.Fatal("delete existing edge failed")
	}
	if g.DeleteEdgeL(n[0], n[1], knows) {
		t.Fatal("double delete reported success")
	}
	if g.HasEdgeL(n[0], n[1], knows) || g.NumEdges() != 2 {
		t.Fatal("edge still present after delete")
	}
	if len(g.In(n[1])) != 0 {
		t.Fatal("in-list not updated")
	}
}

func TestLabelRun(t *testing.T) {
	list := []Half{{Label: 1, To: 5}, {Label: 2, To: 1}, {Label: 2, To: 9}, {Label: 4, To: 0}}
	if got := LabelRun(list, 2); len(got) != 2 {
		t.Errorf("LabelRun(2) = %v", got)
	}
	if got := LabelRun(list, 3); len(got) != 0 {
		t.Errorf("LabelRun(3) = %v", got)
	}
	if got := LabelRun(nil, 1); len(got) != 0 {
		t.Errorf("LabelRun(nil) = %v", got)
	}
}

func TestAttributes(t *testing.T) {
	g := New()
	v := g.AddNode("x")
	g.SetAttr(v, "val", Int(42))
	g.SetAttr(v, "name", Str("foo"))
	a := g.Symbols().LookupAttr("val")
	if got := g.Attr(v, a); !got.Equal(Int(42)) {
		t.Errorf("val = %v", got)
	}
	if got := g.AttrByName(v, "name"); !got.Equal(Str("foo")) {
		t.Errorf("name = %v", got)
	}
	if g.AttrByName(v, "absent").Valid() {
		t.Error("absent attribute should be invalid")
	}
	g.SetAttr(v, "val", Int(43)) // overwrite
	if got := g.AttrByName(v, "val"); !got.Equal(Int(43)) {
		t.Errorf("val after overwrite = %v", got)
	}
	if g.NumAttrs(v) != 2 {
		t.Errorf("NumAttrs = %d, want 2", g.NumAttrs(v))
	}
}

// TestValueEqualIsExact: numeric values are equal exactly when literals,
// which compare them as big.Rat, say so — never through float64, where
// 2⁶² − 1 and 2⁶² are one number.
func TestValueEqualIsExact(t *testing.T) {
	rat := func(v Value) *big.Rat {
		if v.kind == KindFloat {
			return new(big.Rat).SetFloat64(v.f)
		}
		return new(big.Rat).SetInt64(v.i)
	}
	for _, c := range []struct {
		a, b Value
		want bool
	}{
		{Int(1), Bool(true), true},
		{Int(3), Float(3.0), true},
		{Int(1<<62 - 1), Int(1 << 62), false},
		{Int(1<<53 + 1), Float(1 << 53), false},
		{Int(math.MaxInt64), Float(1 << 63), false},
		{Int(math.MinInt64), Float(-(1 << 63)), true},
		{Bool(false), Float(0), true},
		{Int(3), Float(3.5), false},
		{Float(2.5), Float(2.5), true},
	} {
		for _, p := range [][2]Value{{c.a, c.b}, {c.b, c.a}} {
			if got := p[0].Equal(p[1]); got != c.want {
				t.Errorf("%v.Equal(%v) = %v, want %v", p[0], p[1], got, c.want)
			}
		}
		if byRat := rat(c.a).Cmp(rat(c.b)) == 0; byRat != c.want {
			t.Errorf("row %v = %v disagrees with big.Rat (%v)", c.a, c.b, byRat)
		}
	}
}

func TestValues(t *testing.T) {
	cases := []struct {
		v    Value
		text string
	}{
		{Int(-7), "-7"},
		{Str("a b"), `"a b"`},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Float(2.5), "2.5"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.text {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.text)
		}
		parsed, err := ParseValue(c.text)
		if err != nil {
			t.Fatalf("ParseValue(%q): %v", c.text, err)
		}
		if !parsed.Equal(c.v) {
			t.Errorf("round trip %q: got %v", c.text, parsed)
		}
	}
	if Int(3).Equal(Str("3")) {
		t.Error("numbers must not equal strings")
	}
	if _, err := ParseValue(""); err == nil {
		t.Error("empty value should fail")
	}
	if _, err := ParseValue("nonsense words"); err == nil {
		t.Error("garbage should fail")
	}
}

func TestNeighborhood(t *testing.T) {
	// path a -> b -> c -> d plus a detached node e
	g := New()
	a := g.AddNode("n")
	b := g.AddNode("n")
	c := g.AddNode("n")
	d := g.AddNode("n")
	e := g.AddNode("n")
	g.AddEdge(a, b, "l")
	g.AddEdge(b, c, "l")
	g.AddEdge(c, d, "l")

	if got := len(NeighborhoodOf(g, []NodeID{a}, 0)); got != 1 {
		t.Errorf("V_0(a) size = %d, want 1", got)
	}
	if got := len(NeighborhoodOf(g, []NodeID{a}, 1)); got != 2 {
		t.Errorf("V_1(a) size = %d, want 2", got)
	}
	if got := len(NeighborhoodOf(g, []NodeID{a}, 3)); got != 4 {
		t.Errorf("V_3(a) size = %d, want 4", got)
	}
	// neighborhoods are undirected: d reaches a in 3 hops
	if got := len(NeighborhoodOf(g, []NodeID{d}, 3)); got != 4 {
		t.Errorf("V_3(d) size = %d, want 4", got)
	}
	if got := len(NeighborhoodOf(g, []NodeID{e}, 5)); got != 1 {
		t.Errorf("V_5(e) size = %d, want 1 (isolated)", got)
	}
	// monotonicity property
	for dd := 0; dd < 4; dd++ {
		if len(NeighborhoodOf(g, []NodeID{a}, dd)) > len(NeighborhoodOf(g, []NodeID{a}, dd+1)) {
			t.Errorf("neighborhood not monotone at d=%d", dd)
		}
	}
	union := NeighborhoodOf(g, []NodeID{a, e}, 1)
	if len(union) != 3 {
		t.Errorf("union neighborhood size = %d, want 3", len(union))
	}
}

func TestOverlaySemantics(t *testing.T) {
	g, n := buildTriangle(t)
	knows := g.Symbols().LookupLabel("knows")
	livesIn := g.Symbols().LookupLabel("livesIn")

	d := &Delta{}
	d.Delete(n[0], n[1], knows)
	d.Insert(n[2], n[0], knows) // city knows person (new edge)

	o := NewOverlay(g, d)
	if o.HasEdgeL(n[0], n[1], knows) {
		t.Error("overlay should hide deleted edge")
	}
	if !o.HasEdgeL(n[2], n[0], knows) {
		t.Error("overlay should show inserted edge")
	}
	if !o.HasEdgeL(n[0], n[2], livesIn) {
		t.Error("overlay should pass through untouched edges")
	}
	if o.NumEdges() != 3 {
		t.Errorf("overlay edges = %d, want 3", o.NumEdges())
	}
	// base graph untouched
	if !g.HasEdgeL(n[0], n[1], knows) || g.NumEdges() != 3 {
		t.Error("overlay mutated the base graph")
	}
	// no-op operations change nothing
	d2 := &Delta{}
	d2.Insert(n[0], n[1], knows)   // already exists
	d2.Delete(n[1], n[0], livesIn) // never existed
	o2 := NewOverlay(g, d2)
	if o2.NumEdges() != 3 {
		t.Errorf("no-op overlay edges = %d, want 3", o2.NumEdges())
	}
}

func TestDeltaNormalize(t *testing.T) {
	g, n := buildTriangle(t)
	knows := g.Symbols().LookupLabel("knows")
	follows := g.Symbols().Label("follows")

	d := &Delta{}
	d.Insert(n[0], n[1], knows)   // exists: dropped
	d.Delete(n[0], n[1], knows)   // exists: kept
	d.Insert(n[1], n[2], follows) // new: kept
	d.Delete(n[1], n[2], follows) // last op wins: net effect nothing
	d.Insert(n[2], n[0], follows) // new: kept

	norm := d.Normalize(g)
	if len(norm.Insertions()) != 1 || len(norm.Deletions()) != 1 {
		t.Fatalf("normalized = %v", norm.Ops)
	}
	// applying normalized delta == applying original sequence
	g1 := g.Clone()
	d.Apply(g1)
	g2 := g.Clone()
	norm.Apply(g2)
	if !sameEdges(g1, g2) {
		t.Fatal("normalize changed the net effect")
	}
}

func sameEdges(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumNodes(); v++ {
		ao, bo := a.Out(NodeID(v)), b.Out(NodeID(v))
		if len(ao) != len(bo) {
			return false
		}
		for i := range ao {
			if ao[i] != bo[i] {
				return false
			}
		}
	}
	return true
}

// TestDeltaApplyInverseProperty: applying a normalized delta then its
// inverse restores the original edge set, on random graphs.
func TestDeltaApplyInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		g := New()
		n := 20 + rng.Intn(30)
		for i := 0; i < n; i++ {
			g.AddNode("n")
		}
		l := g.Symbols().Label("e")
		for i := 0; i < n*2; i++ {
			g.AddEdgeL(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), l)
		}
		orig := g.Clone()

		d := &Delta{}
		for i := 0; i < 15; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				d.Insert(u, v, l)
			} else {
				d.Delete(u, v, l)
			}
		}
		norm := d.Normalize(g)

		// overlay view must equal eager application
		o := NewOverlay(g, norm)
		applied := g.Clone()
		norm.Apply(applied)
		for v := 0; v < n; v++ {
			ao, oo := applied.Out(NodeID(v)), o.Out(NodeID(v))
			if len(ao) != len(oo) {
				t.Fatalf("trial %d: overlay/apply out mismatch at %d", trial, v)
			}
			for i := range ao {
				if ao[i] != oo[i] {
					t.Fatalf("trial %d: overlay/apply half mismatch", trial)
				}
			}
		}

		norm.Apply(g)
		norm.Inverse().Apply(g)
		if !sameEdges(g, orig) {
			t.Fatalf("trial %d: apply+inverse != identity", trial)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g, n := buildTriangle(t)
	g.SetAttr(n[0], "val", Int(1))
	c := g.Clone()
	c.SetAttr(n[0], "val", Int(2))
	c.AddEdge(n[1], n[0], "knows")
	if !g.AttrByName(n[0], "val").Equal(Int(1)) {
		t.Error("clone shares attribute storage")
	}
	if g.NumEdges() == c.NumEdges() {
		t.Error("clone shares adjacency")
	}
}

func TestStats(t *testing.T) {
	g, _ := buildTriangle(t)
	st := g.ComputeStats()
	if st.Nodes != 3 || st.Edges != 3 {
		t.Errorf("stats size: %+v", st)
	}
	if st.MaxOutDeg != 2 || st.MaxInDeg != 2 {
		t.Errorf("stats degrees: %+v", st)
	}
	if st.Density <= 0 {
		t.Errorf("stats density: %+v", st)
	}
}

func TestInducedEdges(t *testing.T) {
	g, n := buildTriangle(t)
	set := map[NodeID]struct{}{n[0]: {}, n[1]: {}}
	count := 0
	g.InducedEdges(set, func(u, v NodeID, l LabelID) { count++ })
	if count != 1 {
		t.Errorf("induced edges = %d, want 1 (only a->b)", count)
	}
}
