package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ngd/bench/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the generator")

// TestGoldenInputs pins the sha256 of every input the generator produces
// for -seed 1 at the benchmark's real sizes, so the benchmark's inputs
// cannot drift unnoticed: a change here resets every recorded baseline.
func TestGoldenInputs(t *testing.T) {
	got := map[string]string{}
	hash := func(name string, b []byte) {
		sum := sha256.Sum256(b)
		got[name] = hex.EncodeToString(sum[:])
	}
	for _, sp := range specs {
		ds := workload.Generate(workload.Config{Entities: sp.entities, ErrorRate: sp.errorRate, Faults: sp.faults, Seed: 1})
		var buf bytes.Buffer
		if err := ds.WriteGraph(&buf); err != nil {
			t.Fatal(err)
		}
		hash(sp.name+"/graph", buf.Bytes())
		hash(sp.name+"/rules", []byte(sp.rules()))
		if sp.batch {
			buf.Reset()
			if err := ds.WriteDelta(&buf, sp.deltaFrac, 31); err != nil {
				t.Fatal(err)
			}
			hash(sp.name+"/delta", buf.Bytes())
			continue
		}
		in := &inputs{ds: ds}
		if err := in.generateStreams(sp, 1, 4*workload.Window); err != nil {
			t.Fatal(err)
		}
		for w, bodies := range in.bodies {
			hash(fmt.Sprintf("%s/stream-%d", sp.name, w), bytes.Join(bodies, []byte("\n")))
		}
	}

	golden := filepath.Join("testdata", "golden.json")
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("generator produced %d inputs, golden file has %d", len(got), len(want))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: sha256 %s, golden %s (go test -run TestGoldenInputs -update after a deliberate change)", name, sum, want[name])
		}
	}
}

// TestStreamInvariants checks what the streams promise: every op is
// effective on the model, a request never touches an edge twice, writers
// touch disjoint edges, and after 2W requests the graph is back to the size
// it had after W.
func TestStreamInvariants(t *testing.T) {
	ds := workload.Generate(workload.Config{Entities: 400, ErrorRate: 0.05, Faults: 1, Seed: 3})
	edges := map[string]int{} // edge -> owning writer, for edges a stream touched
	for w := 0; w < 2; w++ {
		st := workload.NewStream(ds, w, 2, 32, 3)
		present := map[string]bool{}
		size := make([]int, 0, 4*workload.Window)
		count := 0
		for i := 0; i < 4*workload.Window; i++ {
			req := st.Next()
			touched := map[string]bool{}
			for _, op := range req.Ops {
				if op.Op == "node" {
					continue
				}
				e := op.Src + " " + op.Label + " " + op.Dst
				if touched[e] {
					t.Fatalf("writer %d request %d touches %s twice", w, i, e)
				}
				touched[e] = true
				if owner, seen := edges[e]; seen && owner != w {
					t.Fatalf("writers %d and %d both touch %s", owner, w, e)
				}
				edges[e] = w
				// an edge first seen as a delete was present in the base graph
				was, known := present[e]
				if !known {
					was = op.Op == "delete"
				}
				if was == (op.Op == "insert") {
					t.Fatalf("writer %d request %d: %s of %s has no effect", w, i, op.Op, e)
				}
				present[e] = op.Op == "insert"
				if op.Op == "insert" {
					count++
				} else {
					count--
				}
			}
			if i >= workload.Window && req.Inverse == 0 {
				t.Fatalf("writer %d request %d undoes nothing", w, i)
			}
			size = append(size, count)
		}
		// stationary: the edge count never leaves a band of one window's ops
		for i := workload.Window; i < len(size); i++ {
			if d := size[i] - size[workload.Window]; d > 32*workload.Window || d < -32*workload.Window {
				t.Errorf("writer %d: edge count drifted by %d at request %d", w, d, i)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles(samples{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := samples{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name        string
		a, b        samples
		lowerBetter bool
		want        string
	}{
		{"same", steady, samples{100, 100, 101, 99, 101}, true, "unchanged"},
		{"slower", steady, samples{120, 121, 119, 122, 120}, true, "regressed"},
		{"faster", steady, samples{80, 81, 79, 82, 80}, true, "unchanged"},
		{"throughput drop", steady, samples{80, 81, 79, 82, 80}, false, "regressed"},
		{"noisy", steady, samples{60, 150, 90, 130, 105}, true, "unresolved"},
		{"noisy but all worse", steady, samples{150, 260, 190, 230, 205}, true, "regressed"},
	} {
		if got := verdict(c.a, c.b, c.lowerBetter, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSmoke runs every workload at tiny sizes against the real binaries,
// once untraced and once traced, and checks the contract with
// BENCHMARK.json: exactly its metric and workload names, each with its unit,
// every check passing, and a well-formed trace.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns ngdserve and ngdcheck")
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, sp := range specs {
		have = append(have, sp.name)
	}
	if strings.Join(names, " ") != strings.Join(have, " ") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, have)
	}
	h, err := newHarness(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()

	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(h, sp.smoke(), 1, 0.2, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", sp.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", sp.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s of BENCHMARK.json not emitted", sp.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", sp.name, m.Name, got.Unit, m.Unit)
				case got.Value < 0 && m.Name != "serve.feed_lag_us_p50":
					t.Errorf("%s: metric %s is negative: %v", sp.name, m.Name, got.Value)
				case !traced && (got.Value <= 0 || got.N < 1):
					t.Errorf("%s: end-to-end metric %s = %v over %d samples", sp.name, m.Name, got.Value, got.N)
				}
			}
			if traced {
				checkTrace(t, h.path("trace-"+sp.name+".json"), sp)
			}
		}
	}
}

// checkTrace verifies the span file of one traced run: ids are unique, every
// parent is the same request's span one rung up, and along each request's
// chain the self times (a rung minus the rung below) sum to the top rung.
func checkTrace(t *testing.T, path string, sp spec) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	byID := map[int]span{}
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("%s: span id %d is zero or repeated", path, s.ID)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %d ends before it starts", path, s.ID)
		}
		byID[s.ID] = s
	}
	if sp.batch {
		return
	}
	child := map[int]span{} // parent id -> the span below it
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Req != s.Req || p.Name <= s.Name {
			t.Errorf("%s: span %d (%s, req %d) has parent %d (%s, req %d)", path, s.ID, s.Name, s.Req, s.Parent, p.Name, p.Req)
		}
		child[s.Parent] = s
	}
	var tops []int
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "R4.http" {
			tops = append(tops, s.ID)
		}
	}
	sort.Ints(tops)
	if len(tops) != sp.smoke().ladder*sp.writers {
		t.Errorf("%s: %d top-rung spans, want %d", path, len(tops), sp.smoke().ladder*sp.writers)
	}
	for _, id := range tops {
		top, self := byID[id], int64(0)
		for s := top; ; {
			below, ok := child[s.ID]
			if !ok {
				self += s.EndNS - s.StartNS // the bottom rung is all self time
				break
			}
			self += (s.EndNS - s.StartNS) - (below.EndNS - below.StartNS)
			s = below
		}
		if self != top.EndNS-top.StartNS {
			t.Errorf("%s: request %d: self times sum to %d ns, top rung is %d ns", path, top.Req, self, top.EndNS-top.StartNS)
		}
	}
}
