package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny is the scale every registry entry finishes at in milliseconds;
// analyze's budgets shrink with it (exhaustion degrades to unknown).
var tiny = config{n: 60, rules: 10, seed: 1, gateBudget: 20 * time.Millisecond, conflictBudget: 20 * time.Millisecond}

func runTiny(t *testing.T, e experiment, c config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.run(&buf, c); err != nil {
		t.Fatalf("%s: %v", e.name, err)
	}
	return buf.Bytes()
}

// TestEveryExperimentRuns keeps the registry from bit-rotting: every entry
// prints a header and at least one row, and the entries whose whole output
// is in cost units print the same bytes twice — EXPERIMENTS.md's "exactly
// reproducible: same flags, same numbers".
func TestEveryExperimentRuns(t *testing.T) {
	c := tiny
	c.shardsOut = filepath.Join(t.TempDir(), "shards.json")
	seen := map[string]bool{}
	for _, e := range registry {
		if seen[e.name] || e.name == "all" || e.doc == "" {
			t.Errorf("registry entry %q: duplicate, reserved or undocumented", e.name)
		}
		seen[e.name] = true
		out := runTiny(t, e, c)
		var headers, rows int
		for _, line := range strings.Split(string(out), "\n") {
			switch {
			case strings.HasPrefix(line, "#"):
				headers++
			case strings.TrimSpace(line) != "":
				rows++
			}
		}
		if headers == 0 || rows == 0 {
			t.Errorf("%s: %d header and %d row lines:\n%s", e.name, headers, rows, out)
		}
		if strings.HasPrefix(e.name, "fig4") || e.name == "exp5" {
			if again := runTiny(t, e, c); !bytes.Equal(out, again) {
				t.Errorf("%s is not reproducible:\n%s\nthen\n%s", e.name, out, again)
			}
		}
	}
}

// TestAllWritesNoFile: `ngdbench -n 400 all` must not replace the
// checked-in BENCH_shards.json with a 400-entity series.
func TestAllWritesNoFile(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	c := tiny
	c.shardsOut = "BENCH_shards.json" // main's default
	var buf bytes.Buffer
	if err := runAll(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# shards ") {
		t.Error("all skipped the shards table")
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("all left %v in its working directory (err %v)", left, err)
	}
}

// checkShards decodes a BENCH_shards.json into the struct that writes it,
// unknown keys disallowed, and makes the assertions of the validator CI used
// to run: a key that is missing or not numeric decodes to an error or to a
// zero the range checks reject.
func checkShards(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var r shardReport
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if r.Experiment != "shards" || r.HostCores < 1 || r.Gomaxprocs < 1 || r.Profile == "" ||
		r.Entities < 1 || r.Rules < 1 || r.DeltaFrac <= 0 || r.GeneratedBy == "" || len(r.Series) == 0 {
		t.Fatalf("%s: missing or out-of-range key in %+v", path, r)
	}
	for _, pt := range r.Series {
		if pt.P < 1 || pt.PDectMS <= 0 || pt.PIncDectMS <= 0 || pt.PDectSpeedup <= 0 || pt.PIncDectSpeedup <= 0 {
			t.Errorf("%s: missing or out-of-range key in point %+v", path, pt)
		}
	}
}

func TestShardsArtifact(t *testing.T) {
	c := tiny
	c.shardsOut = filepath.Join(t.TempDir(), "shards.json")
	if err := shardsExp(&bytes.Buffer{}, c); err != nil {
		t.Fatal(err)
	}
	checkShards(t, c.shardsOut)
	checkShards(t, filepath.Join("..", "..", "BENCH_shards.json"))
}
