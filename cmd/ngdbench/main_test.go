package main

import (
	"bytes"
	"os"
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

// TestAllWritesNoFile: `ngdbench all` prints every table and leaves nothing
// in its working directory.
func TestAllWritesNoFile(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	var buf bytes.Buffer
	if err := runAll(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# repair ") {
		t.Error("all skipped the last table")
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("all left %v in its working directory (err %v)", left, err)
	}
}
