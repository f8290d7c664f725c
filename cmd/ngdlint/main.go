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
// On the same walk, it fails when a directory under internal/ is imported
// by no non-test file outside itself: a package nothing ships is paid for by
// every refactor that must keep it compiling. internal/ref and
// internal/paperdata are test-only by design and exempt.
//
// Finally, the walk records what the module declares, and the prose must
// name only that. A backticked pkg.Name (Name exported), pkg.Type.Member or
// Type.Member in DESIGN.md, README.md or docs/OPERATIONS.md whose pkg (or
// Type) the module declares must name a func, type, var, const, method or
// field of it; references into the standard library and file names are
// not checked. A backticked -flag in the first column of a table in
// OPERATIONS §1 must be registered by the command the subsection is about.
// Those three documents and EXPERIMENTS.md may not repeat a `## ` heading.
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
	"regexp"
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
// production file is meant to import.
const modulePrefix = "ngd/"

var testOnly = map[string]bool{"internal/paperdata": true, refDir: true}

// docs are the files whose code references the docs rule resolves, and
// opsDoc the one whose §1 flag tables it checks. Each of them and
// experimentsDoc must head each of its sections with a `## ` line of its
// own.
var docs = []string{"DESIGN.md", "README.md", opsDoc}

const (
	opsDoc         = "docs/OPERATIONS.md"
	experimentsDoc = "EXPERIMENTS.md"
)

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

// lintTree walks every .go file under root once. Non-test files are held to
// the two rules about who imports whom: the reference oracle stays out of
// production, and every directory under internal/ has a production importer
// outside itself. Every file's declarations, and each command's flags, are
// what the docs rule resolves references against.
func lintTree(fset *token.FileSet, root string) ([]string, error) {
	var findings []string
	holds := map[string]bool{} // directories under internal/ with a non-test file
	used := map[string]bool{}  // module directories imported from another directory
	known := map[string]bool{} // see declare and registerFlags
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// hidden directories hold build caches and VCS state, not source
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir = filepath.ToSlash(dir)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declare(known, f)
		if strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if strings.HasPrefix(dir, "cmd/") {
			registerFlags(known, dir, f)
		}
		if strings.HasPrefix(dir, "internal/") {
			holds[dir] = true
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == refImport && dir != refDir {
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
	if err != nil {
		return nil, err
	}
	for dir := range holds {
		if !used[dir] && !testOnly[dir] {
			findings = append(findings, fmt.Sprintf(
				"%s: imported by no non-test file outside itself: wire it in or delete it", dir))
		}
	}
	for _, doc := range append(docs[:len(docs):len(docs)], experimentsDoc) {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			return nil, err
		}
		findings = append(findings, repeatedHeadings(doc, string(src))...)
		if doc != experimentsDoc {
			findings = append(findings, lintDoc(doc, string(src), known)...)
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// declare records in known what f declares: "pkg" for its package (a test
// package under the name of the package it tests), "pkg.Name" for each
// top-level name, "type Name" for each type, and "pkg.Type.Member" and
// "Type.Member" for each method and field.
func declare(known map[string]bool, f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	known[pkg] = true
	member := func(typ, name string) {
		known[pkg+"."+typ+"."+name] = true
		known[typ+"."+name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				known[pkg+"."+d.Name.Name] = true
			} else {
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						known[pkg+"."+n.Name] = true
					}
				case *ast.TypeSpec:
					typ := spec.Name.Name
					known[pkg+"."+typ] = true
					known["type "+typ] = true
					var fields []*ast.Field
					switch t := spec.Type.(type) {
					case *ast.StructType:
						fields = t.Fields.List
					case *ast.InterfaceType:
						fields = t.Methods.List
					}
					for _, fl := range fields {
						if len(fl.Names) == 0 {
							member(typ, typeName(fl.Type)) // embedded
						}
						for _, n := range fl.Names {
							member(typ, n.Name)
						}
					}
				}
			}
		}
	}
}

// typeName is the name of a receiver or embedded type: T in T, *T, T[P],
// pkg.T.
func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.IndexExpr:
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// registerFlags records in known "cmd/x -name" for each flag the command in
// dir registers in f, and "cmd/x" once it registers one: the name is the
// first string literal among the first two arguments of a call into package
// flag.
func registerFlags(known map[string]bool, dir string, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		for _, a := range call.Args[:min(2, len(call.Args))] {
			if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				known[dir] = true
				known[dir+" -"+name] = true
				break
			}
		}
		return true
	})
}

var (
	// docRef is a backticked reference the docs rule resolves: a, b and
	// optionally c of a.b.c, then optionally a call's arguments.
	docRef = regexp.MustCompile(`^\*?([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)
	// fileExt are the last parts of backticked names that are file names.
	fileExt = map[string]bool{"go": true, "md": true, "json": true, "mod": true, "sh": true, "txt": true,
		"ngd": true, "ngds": true, "ngdw": true, "tmp": true, "yml": true}
	codeSpan   = regexp.MustCompile("``([^`]+)``|`([^`]+)`")
	opsCommand = regexp.MustCompile(`^### 1\.\d+ (\S+)`)
	opsFlag    = regexp.MustCompile("^`(-[A-Za-z0-9-]+)`$")
)

// lintDoc reports the references in one doc that name nothing the module
// declares, and, in OPERATIONS §1, the table flags no command registers.
func lintDoc(doc, src string, known map[string]bool) []string {
	var findings []string
	codeSpans(src, func(line int, span string) {
		m := docRef.FindStringSubmatch(span)
		if m == nil || fileExt[m[2]] || fileExt[m[3]] {
			return
		}
		ref := m[1] + "." + m[2]
		switch {
		case known["type "+m[1]]: // Type.Member
		case !known[m[1]] || !token.IsExported(m[2]):
			// not this module's (the standard library, a variable), or
			// pkg.lower, which is as often a metric such as plan.hits
			return
		case m[3] != "" && known["type "+m[2]]:
			ref += "." + m[3] // pkg.Type.Member
		}
		if !known[ref] {
			findings = append(findings, fmt.Sprintf("%s:%d: `%s` names no declaration", doc, line, span))
		}
	})
	if doc != opsDoc {
		return findings
	}
	section, cmd := "", ""
	for i, l := range strings.Split(src, "\n") {
		if strings.HasPrefix(l, "## ") {
			section = l
		} else if m := opsCommand.FindStringSubmatch(l); m != nil {
			cmd = "cmd/" + m[1]
		}
		if !strings.HasPrefix(section, "## 1.") || !known[cmd] || !strings.HasPrefix(l, "|") {
			continue
		}
		first := strings.Split(l, "|")[1]
		for _, f := range strings.Fields(first) {
			if m := opsFlag.FindStringSubmatch(f); m != nil && !known[cmd+" "+m[1]] {
				findings = append(findings, fmt.Sprintf("%s:%d: `%s` is no flag %s registers", doc, i+1, m[1], cmd))
			}
		}
	}
	return findings
}

// repeatedHeadings reports each `## ` heading of a doc that an earlier one
// repeats: a section pasted twice.
func repeatedHeadings(doc, src string) []string {
	var findings []string
	first := map[string]int{}
	for i, l := range unfenced(src) {
		if !strings.HasPrefix(l, "## ") {
			continue
		}
		if at, ok := first[l]; ok {
			findings = append(findings, fmt.Sprintf("%s:%d: heading %q repeats line %d", doc, i+1, l, at))
		} else {
			first[l] = i + 1
		}
	}
	return findings
}

// unfenced is a markdown text's lines with fenced blocks blanked.
func unfenced(src string) []string {
	lines := strings.Split(src, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced, lines[i] = !fenced, ""
		} else if fenced {
			lines[i] = ""
		}
	}
	return lines
}

// codeSpans calls fn with each inline code span of a markdown text outside
// fenced blocks, its white space collapsed, and the line it starts on.
func codeSpans(src string, fn func(line int, span string)) {
	src = strings.Join(unfenced(src), "\n")
	line, at := 1, 0
	for _, m := range codeSpan.FindAllStringSubmatchIndex(src, -1) {
		line += strings.Count(src[at:m[0]], "\n")
		at = m[0]
		g := 2 // the group that matched: ``span`` or `span`
		if m[g] < 0 {
			g = 4
		}
		fn(line, strings.Join(strings.Fields(src[m[g]:m[g+1]]), " "))
	}
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
