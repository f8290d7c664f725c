package dsl

// Table-driven malformed-input coverage for the graph/update loaders:
// every rejection must name the 1-based line it arose on (comments and
// blank lines still count toward numbering), so an operator staring at a
// million-line ingest file gets a usable pointer, and the message must
// identify the offending token where there is one.

import (
	"strings"
	"testing"

	"ngd/internal/graph"
)

func TestLoadGraphErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  []string // substrings the error must contain
	}{
		{
			name:  "node missing label",
			input: "# header comment\nnode a person\nnode b",
			want:  []string{"line 3", "node needs id and label"},
		},
		{
			name:  "duplicate node id",
			input: "node a person\n\nnode a person",
			want:  []string{"line 3", `duplicate node id "a"`},
		},
		{
			name:  "edge arity",
			input: "node a person\nedge a knows",
			want:  []string{"line 2", "edge needs"},
		},
		{
			name:  "edge unknown src",
			input: "node a person\n# comment\nedge ghost knows a",
			want:  []string{"line 3", `unknown node "ghost"`},
		},
		{
			name:  "edge unknown dst",
			input: "node a person\nedge a knows phantom",
			want:  []string{"line 2", `unknown node "phantom"`},
		},
		{
			name:  "unknown directive",
			input: "node a person\nvertex b person",
			want:  []string{"line 2", `unknown directive "vertex"`},
		},
		{
			name:  "attribute without equals",
			input: "node a person age",
			want:  []string{"line 1", `bad attribute "age"`},
		},
		{
			name:  "fractional number",
			input: "node a person rate=1e3\nnode b person rate=2.5",
			want:  []string{"line 2", `value "2.5" is not an integer`},
		},
		{
			name:  "number beyond int64",
			input: "node a person\n\nnode b person rate=1e999999999",
			want:  []string{"line 3", `value "1e999999999" is out of int64 range`},
		},
		{
			name:  "attribute with empty value",
			input: "node a person\nnode b person age=",
			want:  []string{"line 2", "empty value"},
		},
		{
			name:  "attribute with unterminated string",
			input: "node a person name=\"unterminated",
			want:  []string{"line 1", "bad string value"},
		},
		{
			name:  "scanner overflow",
			input: "node a person\nnode b person name=\"" + strings.Repeat("x", 5*1024*1024) + "\"",
			want:  []string{"line 2", "too long"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := LoadGraph(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("malformed input accepted")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not contain %q", err, w)
				}
			}
		})
	}
}

func TestLoadDeltaErrorsCarryLineNumbers(t *testing.T) {
	base := "node a person\nnode b person\nedge a knows b\n"
	cases := []struct {
		name  string
		input string
		want  []string
	}{
		{
			name:  "insert arity",
			input: "insert a knows",
			want:  []string{"line 1", "insert needs"},
		},
		{
			name:  "delete arity",
			input: "# leading comment\ndelete a",
			want:  []string{"line 2", "delete needs"},
		},
		{
			name:  "insert unknown src",
			input: "\ninsert ghost knows b",
			want:  []string{"line 2", `insert references unknown node "ghost"`},
		},
		{
			name:  "delete unknown dst",
			input: "delete a knows phantom",
			want:  []string{"line 1", `delete references unknown node "phantom"`},
		},
		{
			name:  "duplicate inline node",
			input: "node c person\nnode c person",
			want:  []string{"line 2", `duplicate node id "c"`},
		},
		{
			name:  "redeclared base node",
			input: "insert a knows b\nnode a person",
			want:  []string{"line 2", `duplicate node id "a"`},
		},
		{
			name:  "unknown directive",
			input: "insert a knows b\nupsert a knows b",
			want:  []string{"line 2", `unknown directive "upsert"`},
		},
		{
			name:  "inline node bad attribute",
			input: "node c person age=notanumber!",
			want:  []string{"line 1", "cannot parse value"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, ids, err := LoadGraph(strings.NewReader(base))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadDelta(strings.NewReader(tc.input), g, ids); err == nil {
				t.Fatal("malformed update accepted")
			} else {
				for _, w := range tc.want {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("error %q does not contain %q", err, w)
					}
				}
			}
		})
	}
}

// TestLoadGraphLineNumbersCountEveryLine pins the numbering convention:
// blank lines and comments advance the count, so reported numbers match
// what an editor shows.
func TestLoadGraphLineNumbersCountEveryLine(t *testing.T) {
	input := "\n\n# three header lines\n\nnode a person\nbroken"
	_, _, err := LoadGraph(strings.NewReader(input))
	if err == nil || !strings.Contains(err.Error(), "line 6") {
		t.Fatalf("error %v, want a line 6 reference", err)
	}
}

// TestLoadDeltaAddsInlineNodes guards the happy path around the error
// table: inline node declarations land on the graph with their attributes
// before the delta is returned.
func TestLoadDeltaAddsInlineNodes(t *testing.T) {
	g, ids, err := LoadGraph(strings.NewReader("node a person\n"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := LoadDelta(strings.NewReader("node c place pop=12\ninsert a born_in c\n"), g, ids)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := ids["c"]
	if !ok || g.LabelName(c) != "place" {
		t.Fatalf("inline node not registered: %v", ids)
	}
	if v := g.AttrByName(c, "pop"); !v.Equal(graph.Int(12)) {
		t.Errorf("inline node attr = %s", v)
	}
	if d.Len() != 1 || !d.Ops[0].Insert {
		t.Errorf("delta = %+v", d.Ops)
	}
}
