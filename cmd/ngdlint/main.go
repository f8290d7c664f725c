// Command ngdlint enforces the repo's determinism contract on the §4/§5
// decision-procedure packages.
//
// The reasoning oracle (internal/reason), the repair engine
// (internal/repair), the exact integer solver (internal/solver) and the
// parallel engine with its virtual-time scheduler (internal/par) must be
// pure functions of their inputs: replaying a WAL, re-running an admission
// analysis, or re-simulating a makespan must produce byte-identical results.
// Reading a clock or a random source breaks that silently — budgets in
// those packages are therefore package constants and a deadline is a
// caller-supplied Done channel, never a time.Now() comparison (see
// reason.Options and solver.Options).
//
// ngdlint walks the source with go/parser and fails the build when a
// non-test file of a guarded package imports "time" or "math/rand" (any API
// from either package smuggles nondeterminism in), or "context" (a
// deadline is one Done channel, not a context read only for Done). Test
// files may time themselves freely.
//
// It also enforces the allocation discipline of the hot detect path: the
// match, detect and inc packages may not declare map[NodeID]struct{}
// seen-sets (the pooled graph.NodeSet bitset replaced them; a map there is
// a per-traversal allocation regression the benchmarks may take weeks to
// surface).
//
// It keeps the reference oracle (internal/ref, the brute-force detector
// every differential suite is grounded in) out of production: no non-test
// file outside internal/ref may import it.
//
// Finally, on the same walk, it fails when a directory under internal/ is
// imported by no non-test file outside itself: a package nothing ships is
// paid for by every refactor that must keep it compiling. internal/ref and
// internal/paperdata are test-only by design and exempt.
//
// Usage: ngdlint [repo root]   (default ".")
// Exit 0 = clean, 1 = violations (one "file:line: message" per finding),
// 2 = bad invocation or unparsable source.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// guarded lists the package directories (relative to the repo root) whose
// non-test files may not import a banned package.
var guarded = []string{"internal/reason", "internal/repair", "internal/solver", "internal/par"}

var banned = map[string]string{
	"time":      "wall-clock reads break replay determinism (use budgets / Done channels)",
	"math/rand": "random sources break replay determinism (derive choices from input order)",
	"context":   "cancellation arrives as a Done channel",
}

// hotPackages are the allocation-disciplined detect-path packages: building
// a map[NodeID]struct{} seen-set there reintroduces the per-traversal heap
// churn the pooled graph.NodeSet bitsets removed. Test files are exempt
// (reference implementations in differential tests use maps on purpose).
var hotPackages = []string{"internal/match", "internal/detect", "internal/inc"}

// refDir holds the reference oracle and refImport is its import path: the
// oracle is the tests' ground truth precisely because the engine does not
// depend on it, so only _test.go files (and the package itself) may import it.
const (
	refDir    = "internal/ref"
	refImport = "ngd/internal/ref"
)

// modulePrefix turns an import path of this module into a directory relative
// to the repo root. testOnly lists the directories under internal/ that no
// production file is meant to import (refDir is never walked at all).
const modulePrefix = "ngd/"

var testOnly = map[string]bool{"internal/paperdata": true}

func main() {
	root := "."
	if len(os.Args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: ngdlint [repo root]")
		os.Exit(2)
	}
	if len(os.Args) == 2 {
		root = os.Args[1]
	}

	fset := token.NewFileSet()
	var findings []string
	for _, dir := range guarded {
		for _, path := range sourceFiles(root, dir) {
			findings = append(findings, lintFile(fset, path)...)
		}
	}
	for _, dir := range hotPackages {
		for _, path := range sourceFiles(root, dir) {
			findings = append(findings, lintSeenSets(fset, path)...)
		}
	}
	tree, err := lintTree(fset, root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ngdlint: %v\n", err)
		os.Exit(2)
	}
	findings = append(findings, tree...)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "ngdlint: %d violation(s)\n", len(findings))
		os.Exit(1)
	}
}

// sourceFiles lists the non-test .go files of one package directory.
func sourceFiles(root, dir string) []string {
	entries, err := os.ReadDir(filepath.Join(root, dir))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ngdlint: %v\n", err)
		os.Exit(2)
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			paths = append(paths, filepath.Join(root, dir, name))
		}
	}
	return paths
}

// lintFile reports every banned import in the file, and — defense in depth,
// in case a banned package sneaks in under a renamed import that a pure
// import check would still catch but a human reviewer might not — every
// selector call through such an import.
func lintFile(fset *token.FileSet, path string) []string {
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ngdlint: %v\n", err)
		os.Exit(2)
	}
	var findings []string
	// import check: record the local name each banned import binds to
	bannedNames := map[string]string{} // local identifier -> import path
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		reason, bad := banned[p]
		if !bad {
			continue
		}
		findings = append(findings, fmt.Sprintf("%s: import %q forbidden here: %s",
			fset.Position(imp.Pos()), p, reason))
		local := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		bannedNames[local] = p
	}
	// call check: any use through the banned import's name
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if p, bad := bannedNames[id.Name]; bad {
			findings = append(findings, fmt.Sprintf("%s: %s.%s reaches %q",
				fset.Position(sel.Pos()), id.Name, sel.Sel.Name, p))
		}
		return true
	})
	return findings
}

// lintSeenSets reports every map[NodeID]struct{} (or
// map[graph.NodeID]struct{}) type in a hot-path file: seen-sets there must
// use the pooled graph.NodeSet bitset instead.
func lintSeenSets(fset *token.FileSet, path string) []string {
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ngdlint: %v\n", err)
		os.Exit(2)
	}
	var findings []string
	ast.Inspect(f, func(n ast.Node) bool {
		mt, ok := n.(*ast.MapType)
		if !ok {
			return true
		}
		if !isNodeIDType(mt.Key) {
			return true
		}
		if st, ok := mt.Value.(*ast.StructType); !ok || len(st.Fields.List) != 0 {
			return true
		}
		findings = append(findings, fmt.Sprintf(
			"%s: map[NodeID]struct{} seen-set on the hot detect path: use graph.AcquireNodeSet / graph.NodeSet",
			fset.Position(mt.Pos())))
		return true
	})
	return findings
}

// lintTree walks every non-test file under root once, for the two rules that
// are about who imports whom: the reference oracle stays out of production,
// and every directory under internal/ has a production importer outside
// itself.
func lintTree(fset *token.FileSet, root string) ([]string, error) {
	var findings []string
	holds := map[string]bool{} // directories under internal/ with a non-test file
	used := map[string]bool{}  // module directories imported from another directory
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// hidden directories hold build caches and VCS state, not source
			if (path != root && strings.HasPrefix(name, ".")) || path == filepath.Join(root, refDir) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir = filepath.ToSlash(dir)
		if strings.HasPrefix(dir, "internal/") {
			holds[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == refImport {
				findings = append(findings, fmt.Sprintf(
					"%s: import %q outside a _test.go file: the reference oracle is for tests only",
					fset.Position(imp.Pos()), p))
			}
			if target, ok := strings.CutPrefix(p, modulePrefix); ok && target != dir {
				used[target] = true
			}
		}
		return nil
	})
	for dir := range holds {
		if !used[dir] && !testOnly[dir] {
			findings = append(findings, fmt.Sprintf(
				"%s: imported by no non-test file outside itself: wire it in or delete it", dir))
		}
	}
	sort.Strings(findings)
	return findings, err
}

// isNodeIDType matches the identifier NodeID, bare or package-qualified.
func isNodeIDType(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name == "NodeID"
	case *ast.SelectorExpr:
		return t.Sel.Name == "NodeID"
	}
	return false
}
