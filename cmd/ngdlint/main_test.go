package main

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func lintSource(t *testing.T, src string) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return lintFile(token.NewFileSet(), path)
}

func TestBannedImportAndCall(t *testing.T) {
	got := lintSource(t, `package p
import "time"
func f() time.Time { return time.Now() }
`)
	if len(got) != 3 { // import + time.Time + time.Now
		t.Fatalf("want 3 findings, got %d: %v", len(got), got)
	}
	if !strings.Contains(got[0], `import "time" forbidden`) {
		t.Errorf("first finding should flag the import: %s", got[0])
	}
	if !strings.Contains(got[2], "time.Now") {
		t.Errorf("call finding missing: %v", got)
	}
}

func TestRenamedImportStillCaught(t *testing.T) {
	got := lintSource(t, `package p
import clock "time"
var _ = clock.Now
`)
	if len(got) != 2 {
		t.Fatalf("want import + selector findings, got %v", got)
	}
	if !strings.Contains(got[1], `clock.Now reaches "time"`) {
		t.Errorf("renamed selector not traced: %v", got)
	}
}

func TestMathRandBanned(t *testing.T) {
	got := lintSource(t, `package p
import "math/rand"
var _ = rand.Int
`)
	if len(got) != 2 {
		t.Fatalf("want 2 findings, got %v", got)
	}
}

func TestCleanFile(t *testing.T) {
	got := lintSource(t, `package p
import "math/big"
var _ = big.NewRat(1, 2)
`)
	if len(got) != 0 {
		t.Fatalf("clean file flagged: %v", got)
	}
}

func TestRefImportBanned(t *testing.T) {
	write := func(src string) string {
		path := filepath.Join(t.TempDir(), "x.go")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	got := lintRefImport(token.NewFileSet(), write(`package p
import oracle "ngd/internal/ref"
var _ = oracle.Detect
`))
	if len(got) != 1 || !strings.Contains(got[0], "for tests only") {
		t.Fatalf("want one oracle-import finding, got %v", got)
	}
	if got := lintRefImport(token.NewFileSet(), write(`package p
import "ngd/internal/detect"
var _ = detect.Dect
`)); len(got) != 0 {
		t.Fatalf("clean file flagged: %v", got)
	}
}

// TestRepoIsClean runs the real walk over this repository: the guarded
// packages must stay free of wall-clock and randomness imports, and every
// allowlisted file must exist — a stale entry would exempt whatever file
// next takes the name. internal/par allows exactly one: the goroutine
// scheduler's pool.go, so the unit step, the balance round and the virtual
// scheduler are statically clock-free.
func TestRepoIsClean(t *testing.T) {
	fset := token.NewFileSet()
	root := "../.."
	if allow := guarded["internal/par"]; len(allow) != 1 || !allow["pool.go"] {
		t.Errorf("internal/par allowlist = %v, want exactly pool.go", allow)
	}
	for dir, allow := range guarded {
		for name := range allow {
			if _, err := os.Stat(filepath.Join(root, dir, name)); err != nil {
				t.Errorf("stale allowlist entry: %v", err)
			}
		}
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") ||
				strings.HasSuffix(name, "_test.go") || allow[name] {
				continue
			}
			if got := lintFile(fset, filepath.Join(root, dir, name)); len(got) != 0 {
				t.Errorf("%s: %v", name, got)
			}
		}
	}
}
