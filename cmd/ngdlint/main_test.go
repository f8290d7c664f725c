package main

import (
	"go/token"
	"os"
	"path/filepath"
	"slices"
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

func TestContextBanned(t *testing.T) {
	got := lintSource(t, `package p
import "context"
func f(ctx context.Context) <-chan struct{} { return ctx.Done() }
`)
	if len(got) != 2 { // import + context.Context
		t.Fatalf("want 2 findings, got %v", got)
	}
	if !strings.Contains(got[0], "cancellation arrives as a Done channel") {
		t.Errorf("import finding should say how cancellation arrives: %s", got[0])
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

// writeTree materializes files (path relative to the root → source) and
// returns the root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestRefImportBanned(t *testing.T) {
	got, err := lintTree(token.NewFileSet(), writeTree(t, map[string]string{
		"cmd/x/main.go": `package main
import oracle "ngd/internal/ref"
var _ = oracle.Detect
`,
		"cmd/y/main.go": `package main
import "ngd/internal/detect"
var _ = detect.Dect
`,
		"internal/detect/d.go":    "package detect\n",
		"internal/ref/ref.go":     "package ref\n",
		"cmd/x/main_test.go":      "package main\nimport _ \"ngd/internal/ref\"\n",
		"internal/detect/.x/a.go": "package hidden\nimport _ \"ngd/internal/ref\"\n",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !strings.Contains(got[0], "for tests only") || !strings.Contains(got[0], filepath.Join("cmd", "x", "main.go")) {
		t.Fatalf("want one oracle-import finding in cmd/x/main.go, got %v", got)
	}
}

// TestOrphanPackageFlagged: a directory under internal/ that only its own
// files and tests import is reported (it would have flagged internal/discover);
// one imported from elsewhere, a nested one, and the test-only allowlist are
// not.
func TestOrphanPackageFlagged(t *testing.T) {
	got, err := lintTree(token.NewFileSet(), writeTree(t, map[string]string{
		"cmd/x/main.go":                "package main\nimport _ \"ngd/internal/used\"\n",
		"internal/used/u.go":           "package used\nimport _ \"ngd/internal/used/sub\"\n",
		"internal/used/sub/s.go":       "package sub\n",
		"internal/orphan/o.go":         "package orphan\nimport _ \"ngd/internal/used\"\n",
		"internal/orphan/o2.go":        "package orphan\nimport _ \"ngd/internal/orphan\"\n",
		"internal/used/u_test.go":      "package used\nimport _ \"ngd/internal/orphan\"\n",
		"internal/paperdata/p.go":      "package paperdata\n",
		"internal/onlytests/t_test.go": "package onlytests\n",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !strings.HasPrefix(got[0], "internal/orphan: imported by no non-test file") {
		t.Fatalf("want exactly internal/orphan flagged, got %v", got)
	}
}

// TestRepoIsClean runs the real walk over this repository: the guarded
// packages must stay free of wall-clock and randomness imports, with no file
// exempt — internal/par included, so the unit step, the balance round and
// the scheduler are statically clock-free.
func TestRepoIsClean(t *testing.T) {
	fset := token.NewFileSet()
	root := "../.."
	if got, err := lintTree(fset, root); err != nil || len(got) != 0 {
		t.Errorf("import rules: %v %v", got, err)
	}
	if !slices.Contains(guarded, "internal/par") {
		t.Errorf("guarded = %v, want internal/par among them", guarded)
	}
	for _, dir := range guarded {
		for _, path := range sourceFiles(root, dir) {
			if got := lintFile(fset, path); len(got) != 0 {
				t.Errorf("%s: %v", path, got)
			}
		}
	}
}

// TestDocsReferencesResolve: a backticked reference to a module package, a
// type's method or field, or a flag in an OPERATIONS §1 table of a command
// must name what the source declares or registers; references into the
// standard library, file names, lowercase pkg.names (metrics), fenced code
// and tables outside §1 are left alone.
func TestDocsReferencesResolve(t *testing.T) {
	got, err := lintTree(token.NewFileSet(), writeTree(t, map[string]string{
		"internal/p/p.go": `package p
type T struct {
	F int
	G[int]
}
type G[X any] struct{}
func (t *T) M()      {}
func (g G[X]) N()    {}
func Exported()      {}
var V int
const C = 1
`,
		"internal/p/p_test.go": "package p_test\nfunc Helper() {}\n",
		"cmd/tool/main.go": `package main
import (
	"flag"
	_ "ngd/internal/p"
)
var x int
var _ = flag.String("good", "", "")
func init() { flag.IntVar(&x, "also", 0, "") }
`,
		"DESIGN.md": "`p.Exported`, `p.T.M`, `T.F`, `*T.M`, `T.G`, `G.N`, `p.V`, `p.C`, `p.Helper`,\n" +
			"`io.EOF`, `p.go`, `p.lower`, `x.y`, `p.Exported(a, b)` resolve or are skipped;\n" +
			"```go\nx := `p.InFence`\n```\n" +
			"stale: `p.Gone`, `p.T.Gone`, ``T.Gone``, and after a span `across\n" +
			"lines` one more: `p.Late`.\n",
		"README.md": "`p.Exported()` and `-gone` outside OPERATIONS\n",
		"docs/OPERATIONS.md": "## 1. CLI\n### 1.1 tool — x\n| Flag | Meaning |\n|---|---|\n" +
			"| `-good` / `-also` | ok |\n| `-gone` | stale |\n| x | `-good` in a later column is not checked: `-nope` |\n" +
			"### 1.2 The feed (`GET /feed`)\n| `-nope` | no command |\n" +
			"## 2. Formats\n| `-nope` | not §1 |\n",
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"DESIGN.md:6: `T.Gone` names no declaration",
		"DESIGN.md:6: `p.Gone` names no declaration",
		"DESIGN.md:6: `p.T.Gone` names no declaration",
		"DESIGN.md:7: `p.Late` names no declaration",
		"docs/OPERATIONS.md:6: `-gone` is no flag cmd/tool registers",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestDocsHeadingsOnce: a `## ` heading that an earlier one repeats, in a
// doc the references rule reads or in EXPERIMENTS.md, is a section pasted
// twice; lower levels and fenced code may repeat.
func TestDocsHeadingsOnce(t *testing.T) {
	got, err := lintTree(token.NewFileSet(), writeTree(t, map[string]string{
		"DESIGN.md":      "## A\n### x\n## B\n### x\n## A\n",
		"README.md":      "## A\n```\n## A\n```\n",
		"EXPERIMENTS.md": "## Run (seed 1)\ntext\n## Run (seed 2)\n## Run (seed 1)\n## Run (seed 1)\n`p.Gone` is history\n",
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`DESIGN.md:5: heading "## A" repeats line 1`,
		`EXPERIMENTS.md:4: heading "## Run (seed 1)" repeats line 1`,
		`EXPERIMENTS.md:5: heading "## Run (seed 1)" repeats line 1`,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
