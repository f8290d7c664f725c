package dsl

import (
	"strings"
	"testing"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/paperdata"
	"ngd/internal/pattern"
)

const phi1Text = `
# φ1 from the paper
rule phi1 {
  match {
    x: _
    y: date
    z: date
    x -wasCreatedOnDate-> y
    x -wasDestroyedOnDate-> z
  }
  when {
  }
  then {
    z.val - y.val >= 365
  }
}
`

func TestParseRules(t *testing.T) {
	set, err := ParseRules(strings.NewReader(phi1Text))
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 {
		t.Fatalf("parsed %d rules, want 1", set.Len())
	}
	r := set.Rules[0]
	if r.Name != "phi1" || len(r.Pattern.Nodes) != 3 || len(r.Pattern.Edges) != 2 {
		t.Fatalf("rule shape wrong: %s", r)
	}
	if len(r.X) != 0 || len(r.Y) != 1 {
		t.Fatalf("literal counts wrong: X=%d Y=%d", len(r.X), len(r.Y))
	}
	// parsed rule behaves like the programmatic φ1
	g1, _ := paperdata.G1()
	if detect.Validate(g1, set) {
		t.Error("parsed φ1 does not catch the G1 error")
	}
}

func TestRulesRoundTrip(t *testing.T) {
	orig := paperdata.AllRules()
	text := FormatRules(orig)
	parsed, err := ParseRules(strings.NewReader(text))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if parsed.Len() != orig.Len() {
		t.Fatalf("round trip lost rules: %d vs %d", parsed.Len(), orig.Len())
	}
	// behavioral equivalence on the merged paper graph
	g := paperdata.MergedGraph()
	vo := detect.Dect(g, orig, detect.Options{})
	vp := detect.Dect(g, parsed, detect.Options{})
	if len(vo.Violations) != len(vp.Violations) {
		t.Fatalf("round-tripped rules find %d violations, original %d",
			len(vp.Violations), len(vo.Violations))
	}
}

// TestRulesRoundTripHashInString: '#' starts a comment only outside a string
// literal, so a rule built through the API with one survives FormatRules →
// ParseRules, escaped quotes and backslashes included, and a comment after
// the literal is still cut.
func TestRulesRoundTripHashInString(t *testing.T) {
	p := pattern.New()
	p.AddNode("x", "item")
	strs := []string{"a # b", `q"#`, `\#\`, `"`}
	var y []core.Literal
	for _, s := range strs {
		y = append(y, core.Lit(expr.V("x", "tag"), expr.Ne, expr.S(s)))
	}
	set := core.NewSet(core.MustNew("hashes", p, nil, y))
	text := FormatRules(set)
	parsed, err := ParseRules(strings.NewReader(text))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if again := FormatRules(parsed); again != text {
		t.Fatalf("round trip changed the rules:\n%s\nre-rendered:\n%s", text, again)
	}
	for i, l := range parsed.Rules[0].Y {
		if l.R.Op != expr.OpStr || l.R.Str != strs[i] {
			t.Errorf("literal %d = %s, want the constant %q", i, l, strs[i])
		}
	}

	commented := "rule c {\n match {\n x: item\n }\n then {\n x.tag = \"#\\\"#\" # a comment\n }\n}\n"
	set, err = ParseRules(strings.NewReader(commented))
	if err != nil {
		t.Fatal(err)
	}
	if l := set.Rules[0].Y[0]; l.R.Op != expr.OpStr || l.R.Str != `#"#` {
		t.Fatalf("literal = %s, want x.tag = %q", l, `#"#`)
	}
}

func TestParseRuleErrors(t *testing.T) {
	bad := []string{
		"rule {",                                              // missing name
		"rule r {\n match {\n x y\n}\n}",                      // bad node line
		"rule r {\n match {\n x: a\n x: b\n}\n}",              // dup var
		"rule r {\n match {\n x: a\n x -e-> y\n}\n}",          // undeclared y
		"rule r {\n bogus {\n}\n}",                            // unknown section
		"rule r {\n match {\n x: a\n}\n then {\n x.v <\n}\n}", // bad literal
		"rule r {\n match {\n x: a\n}",                        // EOF
	}
	for _, src := range bad {
		if _, err := ParseRules(strings.NewReader(src)); err == nil {
			t.Errorf("accepted invalid rule file %q", src)
		}
	}
}

// TestParseRulesNameHygiene: a violation's key is name:id:id…, so the keyed
// store can tell two rules apart only when names are unique and hold no
// ':'. Both are rejected with the header's line number (both headers for a
// duplicate).
func TestParseRulesNameHygiene(t *testing.T) {
	body := "\n match {\n x: a\n }\n}\n"
	for src, want := range map[string]string{
		"# Σ\nrule a:1 {" + body:                                  `line 2: rule name "a:1" contains ':'`,
		"rule r {" + body + "rule s {" + body + "rule r {" + body: `line 11: duplicate rule name "r" (first declared at line 1)`,
	} {
		if _, err := ParseRules(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want one mentioning %q", src, err, want)
		}
	}
}

// FuzzParseRules: the rule parser never panics, and every set it accepts
// renders to a fixed point — FormatRules(ParseRules(FormatRules(s))) ==
// FormatRules(s). internal/store persists Σ as that text and recovers it
// with ParseRules, and analyze.Signature hashes it, so a rendering that
// re-parsed to another Σ would change the rules, or their signature, across
// a restart. The seeds (testdata/fuzz/FuzzParseRules) are the examples'
// rule files plus literals with |·|, division, strings and negative
// constants.
func FuzzParseRules(f *testing.F) {
	f.Fuzz(func(t *testing.T, text []byte) {
		set, err := ParseRules(strings.NewReader(string(text)))
		if err != nil {
			return
		}
		once := FormatRules(set)
		again, err := ParseRules(strings.NewReader(once))
		if err != nil {
			t.Fatalf("the rendering does not re-parse: %v\n%s", err, once)
		}
		if twice := FormatRules(again); twice != once {
			t.Fatalf("the rendering is not a fixed point:\n%s\nre-rendered:\n%s", once, twice)
		}
	})
}

func TestGraphRoundTrip(t *testing.T) {
	g := paperdata.MergedGraph()
	var sb strings.Builder
	if err := WriteGraph(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := LoadGraph(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	// violations identical
	rules := paperdata.AllRules()
	v1 := detect.Dect(g, rules, detect.Options{})
	v2 := detect.Dect(g2, rules, detect.Options{})
	if len(v1.Violations) != len(v2.Violations) {
		t.Fatalf("round-tripped graph yields %d violations, original %d",
			len(v2.Violations), len(v1.Violations))
	}
}

func TestGraphWithQuotedStrings(t *testing.T) {
	src := `
node a category name="living people"
node b person name="John \"Mac\" P" year=1713
edge b category a
`
	g, ids, err := LoadGraph(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	name := g.AttrByName(ids["a"], "name")
	if s, _ := name.AsString(); s != "living people" {
		t.Errorf("quoted attr = %q", s)
	}
	if s, _ := g.AttrByName(ids["b"], "name").AsString(); s != `John "Mac" P` {
		t.Errorf("escaped attr = %q", s)
	}
	if v, _ := g.AttrByName(ids["b"], "year").AsInt(); v != 1713 {
		t.Errorf("int attr = %d", v)
	}
}

func TestGraphErrors(t *testing.T) {
	bad := []string{
		"node a",             // missing label
		"node a l\nnode a l", // dup id
		"edge a e b",         // unknown nodes
		"frob x y z",         // unknown directive
		"node a l bad-attr",  // attr without '='
		"node a l x=",        // empty value
	}
	for _, src := range bad {
		if _, _, err := LoadGraph(strings.NewReader(src)); err == nil {
			t.Errorf("accepted invalid graph %q", src)
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 100, 4)
	d := gen.RandomDelta(ds, gen.DeltaConfig{Size: 40, Gamma: 1, Seed: 5})

	// write graph (after delta generation: it may add nodes) and delta
	var gb, db strings.Builder
	if err := WriteGraph(&gb, ds.G); err != nil {
		t.Fatal(err)
	}
	if err := WriteDelta(&db, ds.G, d); err != nil {
		t.Fatal(err)
	}
	g2, ids, err := LoadGraph(strings.NewReader(gb.String()))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDelta(strings.NewReader(db.String()), g2, ids)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("delta round trip: %d ops vs %d", d2.Len(), d.Len())
	}
	// applying both yields graphs with equal violation sets
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 8, MaxDiameter: 4, Seed: 4})
	a1, a2 := ds.G.Clone(), g2.Clone()
	a1.Apply(d)
	a2.Apply(d2)
	v1 := detect.Dect(a1, rules, detect.Options{})
	v2 := detect.Dect(a2, rules, detect.Options{})
	if len(v1.Violations) != len(v2.Violations) {
		t.Fatalf("delta round trip changes results: %d vs %d",
			len(v1.Violations), len(v2.Violations))
	}
}

var _ = core.NewSet // keep the import if helper use changes
