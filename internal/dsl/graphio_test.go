package dsl

// The loaders' oracle. The tokenizer is checked against the rune-based
// splitter it replaced (kept here as the reference), the loader against the
// graphs WriteGraph renders, and the allocation discipline as a count:
// LoadGraph allocates nothing of its own per line.

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"ngd/internal/gen"
	"ngd/internal/graph"
)

// refSplitQuoted is the splitter LoadGraph used before the byte tokenizer:
// one rune at a time through a strings.Builder. Ranging over a string
// decodes every invalid byte as U+FFFD, so on invalid UTF-8 it differs from
// the byte tokenizer by exactly that rewrite (see fieldsAgree).
func refSplitQuoted(s string) []string {
	var out []string
	var cur strings.Builder
	inQ := false
	esc := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case esc:
			cur.WriteRune(r)
			esc = false
		case r == '\\' && inQ:
			cur.WriteRune(r)
			esc = true
		case r == '"':
			cur.WriteRune(r)
			inQ = !inQ
		case (r == ' ' || r == '\t') && !inQ:
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}

// fieldsAgree runs both tokenizers over every line of text the way
// scanLines delivers it and reports the first disagreement. The byte
// tokenizer preserves invalid UTF-8 where the reference rewrote it, so
// fields are compared after that same rewrite (string([]rune(f))), which
// is the identity on valid input.
func fieldsAgree(text []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 4*1024*1024)
	for line := 1; sc.Scan(); line++ {
		s := bytes.TrimSpace(sc.Bytes())
		want := refSplitQuoted(string(s))
		got := splitQuoted(nil, s)
		if len(got) != len(want) {
			return fmt.Errorf("line %d %q: %d fields %q, reference %d %q", line, s, len(got), got, len(want), want)
		}
		for i := range got {
			if g := string([]rune(string(got[i]))); g != want[i] {
				return fmt.Errorf("line %d %q: field %d = %q, reference %q", line, s, i, got[i], want[i])
			}
		}
	}
	return sc.Err()
}

func TestTokenizerMatchesReference(t *testing.T) {
	lines := []string{
		`node a person`,
		`node  a   person  `,
		"node\ta\tperson\tage=3",
		"  \t node a person",
		`node a category name="living people"`,
		`node b person name="John \"Mac\" P" year=1713`,
		`node c person name="tab	inside" x="back\\slash"`,
		`node d person name="unterminated x=1`,
		`node e person name="trailing escape\`,
		`node f per"so n"x a"b"=1`,
		`node g person back\slash out\ side`,
		`node h "" ""=""`,
		`node i person name="" ""`,
		`node ж город имя="Санкт Петербург" 人口=5`,
		`edge ж "дорога в" 東京`,
		"node j person name=\"nb\u00a0sp\" a\u00a0b=1", "node k person\u00a0", "\u0085node l q\v", "node\u00a0m n", "node o p\r",
		`#comment`, `# node x y`, ``, `   `, `"`, `\`, `" "`, `a" "b`,
		"node k l\xff\xfe m=\"\xc3\x28 \xe2\x82\"", // invalid UTF-8 stays as it is
		"node \xf0\x9f l",
	}
	if err := fieldsAgree([]byte(strings.Join(lines, "\n"))); err != nil {
		t.Fatal(err)
	}
	// and the fields are views of the line, not copies
	line := []byte(`node a "x y" k=1`)
	for _, f := range splitQuoted(nil, line) {
		if len(f) == 0 || &f[0] != &line[bytes.Index(line, f)] {
			t.Fatalf("field %q does not alias the line", f)
		}
	}
}

// TestInvalidUTF8IsPreserved pins the decision the byte tokenizer forced:
// ids, labels and attribute names are opaque bytes. Two ids that differ
// only in invalid bytes are two nodes (the rune splitter collapsed both to
// U+FFFD and reported a duplicate), and the label comes back byte for byte.
func TestInvalidUTF8IsPreserved(t *testing.T) {
	g, ids, err := LoadGraph(strings.NewReader("node a\xff l\xfe\nnode a\xfe l\xfe k\xfd=1\nedge a\xff e\xfc a\xfe\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("ids %q, %d nodes, %d edges", ids, g.NumNodes(), g.NumEdges())
	}
	if got := g.LabelName(ids["a\xff"]); got != "l\xfe" {
		t.Errorf("label %q, want the file's bytes", got)
	}
	if v := g.AttrByName(ids["a\xfe"], "k\xfd"); !v.Equal(graph.Int(1)) {
		t.Errorf("attribute under an invalid-UTF-8 name = %s", v)
	}
}

// TestNodeLineAttributeOrder: repeated attributes on one node line are
// last-wins and tuples stay sorted by AttrID, whatever the order on the
// line (the Builder inserts inside the open tuple of its slab).
func TestNodeLineAttributeOrder(t *testing.T) {
	g, ids, err := LoadGraph(strings.NewReader("node a l z=1 y=2 x=3\nnode b l x=1 a=1 a=2 z=9 x=4\nnode c l\n"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	g.Attrs(ids["b"], func(a graph.AttrID, v graph.Value) {
		got = append(got, fmt.Sprintf("%d:%s=%s", a, g.Symbols().AttrName(a), v))
	})
	if want := "[0:z=9 2:x=4 3:a=2]"; fmt.Sprint(got) != want {
		t.Errorf("tuple of b = %v, want %s", got, want)
	}
	if g.NumAttrs(ids["c"]) != 0 || g.NumAttrs(ids["a"]) != 3 {
		t.Errorf("neighbouring tuples disturbed")
	}
}

func TestParseValueMatchesGraphParseValue(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "+0", "7", "-7", "+7", "007", "999999999999999999", "-999999999999999999",
		"1000000000000000000", "9223372036854775807", "-9223372036854775808", "9223372036854775808",
		"1.5", "1e3", "9007199254740993.0", "1e30", "1e999999999", "-", "+", "", "1_000", "0x10", "12a", "true", "false", `"s"`, `"bad`, "NaN", "-Inf", "--1",
	} {
		got, gerr := parseValue([]byte(s))
		want, werr := graph.ParseValue(s)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Errorf("parseValue(%q) error %v, graph.ParseValue %v", s, gerr, werr)
		}
		if got.Kind() != want.Kind() || got.String() != want.String() {
			t.Errorf("parseValue(%q) = %s %s, graph.ParseValue %s %s", s, got.Kind(), got, want.Kind(), want)
		}
	}
}

// canon renders g by names rather than ids (a reload interns labels in a
// different order: WriteGraph lists every node before the first edge), with
// tuples and adjacency sorted by name.
func canon(g *graph.Graph) string {
	var sb strings.Builder
	syms := g.Symbols()
	for i := 0; i < g.NumNodes(); i++ {
		v := graph.NodeID(i)
		var parts []string
		g.Attrs(v, func(a graph.AttrID, val graph.Value) {
			parts = append(parts, fmt.Sprintf("%q=%s", syms.AttrName(a), val))
		})
		sort.Strings(parts)
		fmt.Fprintf(&sb, "%d %q %s\n", v, g.LabelName(v), parts)
		parts = parts[:0]
		for _, h := range g.Out(v) {
			parts = append(parts, fmt.Sprintf("%q>%d", syms.LabelName(h.Label), h.To))
		}
		sort.Strings(parts)
		fmt.Fprintf(&sb, "  %s\n", parts)
	}
	return sb.String()
}

// reload is LoadGraph(WriteGraph(g)).
func reload(g *graph.Graph) (*graph.Graph, map[string]graph.NodeID, error) {
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		return nil, nil, err
	}
	return LoadGraph(&buf)
}

func TestLoadGraphReproducesWrittenGraph(t *testing.T) {
	for _, p := range []gen.Profile{gen.DBpedia, gen.YAGO2, gen.Pokec, gen.Synthetic} {
		g := gen.Generate(p, 150, 7).G
		g2, ids, err := reload(g)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(ids) != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: %d ids, %d edges, want %d, %d", p.Name, len(ids), g2.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		if got, want := canon(g2), canon(g); got != want {
			t.Fatalf("%s: LoadGraph(WriteGraph(g)) differs from g", p.Name)
		}
	}
}

// genText is a generated graph in the text format, split into its node
// lines and all of it.
func genText(tb testing.TB, n int) (nodesOnly, all []byte, nodes, edges int) {
	g := gen.Generate(gen.YAGO2, n, 1).G
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		tb.Fatal(err)
	}
	all = buf.Bytes()
	return all[:bytes.Index(all, []byte("\nedge "))+1], all, g.NumNodes(), g.NumEdges()
}

// TestLoadGraphAllocBudget: LoadGraph allocates nothing of its own per node
// line or edge line. An id is a substring of a shared 32 KB arena chunk,
// the Builder stages nodes and edges in fixed chunks, and the rest is map
// and slab growth, which is logarithmic in the input. Before the arena an id
// cost one string (≈ 1.01 objects per node line), and before the byte
// tokenizer every line cost ≈ 8.4.
func TestLoadGraphAllocBudget(t *testing.T) {
	nodesOnly, all, nodes, edges := genText(t, 500)
	load := func(text []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := LoadGraph(bytes.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
	}
	perNode := load(nodesOnly) / float64(nodes)
	perEdge := (load(all) - load(nodesOnly)) / float64(edges)
	t.Logf("%d node lines: %.2f objects each; %d edge lines: %.3f each", nodes, perNode, edges, perEdge)
	if perNode >= 0.1 {
		t.Errorf("LoadGraph allocates %.2f objects per node line, budget < 0.1", perNode)
	}
	if perEdge >= 0.05 {
		t.Errorf("LoadGraph allocates %.3f objects per edge line, budget < 0.05", perEdge)
	}
}

// BenchmarkLoadGraph is the load half of one ngdcheck process at roughly
// cold-batch size (48k node lines, 61k edge lines).
func BenchmarkLoadGraph(b *testing.B) {
	_, all, nodes, _ := genText(b, 6000)
	b.SetBytes(int64(len(all)))
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		if _, _, err := LoadGraph(bytes.NewReader(all)); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(nodes), "allocs/nodeline")
}

// quoteFree reports whether WriteGraph can render g faithfully: it writes
// labels and attribute names as they are, so a name holding a quote or a
// backslash may swallow what follows it on the line.
func quoteFree(s *graph.Symbols) bool {
	for l := 0; l < s.NumLabels(); l++ {
		if strings.ContainsAny(s.LabelName(graph.LabelID(l)), `"\`) {
			return false
		}
	}
	for a := 0; a < s.NumAttrs(); a++ {
		if strings.ContainsAny(s.AttrName(graph.AttrID(a)), `"\`) {
			return false
		}
	}
	return true
}

var fuzzGraphSeeds = []string{
	"node a person age=3 name=\"x y\"\nnode b person\nedge a knows b\n",
	"# c\n\nnode a l x=1 x=2 w=1.5 t=true\nnode b m s=\"q\\\"r\"\nedge b e a\nedge b e a\nedge a e a\n",
	"node a l\nedge a e ghost\n",
	"node \xff l\xfe k=9223372036854775808\nnode ж город\nedge \xff \"e f\" ж\n",
	"node a \"l m\" \"k k\"=1\nnode b l z=-0.0 y=NaN\n",
	// numbers enter as the exact int64 they denote, or not at all
	"node a l x=9007199254740993.0 y=1e3 z=-0.0\n",
	"node a l x=2.5\n",
	"node a l x=1e30\n",
	"node a l x=1e999999999\n",
}

// FuzzLoadGraph: the loader never panics, agrees with the reference
// tokenizer on every line, and a graph it accepts survives
// WriteGraph → LoadGraph.
func FuzzLoadGraph(f *testing.F) {
	for _, s := range fuzzGraphSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		if err := fieldsAgree(text); err != nil && !strings.Contains(err.Error(), "too long") {
			t.Fatal(err)
		}
		g, ids, err := LoadGraph(bytes.NewReader(text))
		if err != nil {
			return
		}
		if len(ids) != g.NumNodes() {
			t.Fatalf("%d ids for %d nodes", len(ids), g.NumNodes())
		}
		if !quoteFree(g.Symbols()) {
			return
		}
		g2, _, err := reload(g)
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
		if got, want := canon(g2), canon(g); got != want {
			t.Fatalf("reloaded graph differs:\n%s\nwant:\n%s", got, want)
		}
	})
}

// FuzzLoadDelta: an update file against a fixed graph never panics the
// loader, yields only ops over known nodes and interned labels, and
// survives WriteDelta → LoadDelta against the reloaded graph.
func FuzzLoadDelta(f *testing.F) {
	const base = "node a person age=3\nnode b person\nnode c place\nedge a knows b\nedge b born_in c\n"
	for _, s := range []string{
		"insert a knows c\ndelete a knows b\n",
		"node d place pop=12 pop=13\ninsert a born_in d\ninsert d near c\n",
		"# c\n\ndelete ghost knows a\n",
		"node a person\n",
		"node \xff \"l m\" k=\"v w\"\ninsert \xff e\xfe \xff\ndelete a knows b\ninsert a knows b\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		g, ids, err := LoadGraph(strings.NewReader(base))
		if err != nil {
			t.Fatal(err)
		}
		d, err := LoadDelta(bytes.NewReader(text), g, ids)
		if err != nil {
			return
		}
		if len(ids) != g.NumNodes() {
			t.Fatalf("%d ids for %d nodes", len(ids), g.NumNodes())
		}
		n, nl := graph.NodeID(g.NumNodes()), graph.LabelID(g.Symbols().NumLabels())
		for _, op := range d.Ops {
			if op.Src < 0 || op.Src >= n || op.Dst < 0 || op.Dst >= n || op.Label < 0 || op.Label >= nl {
				t.Fatalf("op %v out of range (%d nodes, %d labels)", op, n, nl)
			}
		}
		if !quoteFree(g.Symbols()) {
			return
		}
		g2, ids2, err := reload(g)
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteDelta(&buf, g, d); err != nil {
			t.Fatal(err)
		}
		d2, err := LoadDelta(&buf, g2, ids2)
		if err != nil {
			t.Fatalf("reload delta: %v", err)
		}
		g.Apply(d)
		g2.Apply(d2)
		if got, want := canon(g2), canon(g); got != want {
			t.Fatalf("G ⊕ ΔG differs after the round trip:\n%s\nwant:\n%s", got, want)
		}
	})
}
