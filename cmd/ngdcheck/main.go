// Command ngdcheck detects NGD violations in a graph file, in batch or
// incremental mode, and runs the §4 static analyses over a rule set.
//
// Usage:
//
//	ngdcheck -rules rules.ngd -graph g.txt [-update delta.txt] [-limit n]
//	ngdcheck -rules rules.ngd -analyze [-graph g.txt]
//
// Without -update it runs batch detection (Dect) and prints Vio(Σ, G). With
// -update it runs incremental detection (IncDect) and prints ΔVio⁺ and
// ΔVio⁻. The -p flag is accepted and ignored: it is deprecated, and will be
// removed.
//
// With -analyze it first runs the Σ admission analysis (satisfiability
// triage, unsat-core extraction, minimization report); -graph becomes
// optional — without it the command is a pure static check.
//
// With -repair (batch mode only) it additionally prints, per violation,
// the top ranked candidate fixes the repair engine previews: minimal
// attribute reassignments and match-breaking edge deletions, with their
// cross-violation clearance. The graph is never mutated.
//
// Exit codes:
//
//	0  success: analysis found Σ satisfiable / detection completed
//	1  runtime error (unreadable or malformed input)
//	2  usage error (bad flags)
//	3  -analyze: Σ is unsatisfiable (the minimal unsat core is printed)
//	4  -analyze: satisfiability undecided within the analysis budget
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"ngd"
)

var (
	rulesPath  = flag.String("rules", "", "rule file (required)")
	graphPath  = flag.String("graph", "", "graph file (required unless -analyze)")
	updatePath = flag.String("update", "", "update file (optional: incremental mode)")
	_          = flag.Int("p", 1, "deprecated and ignored: detection is sequential")
	limit      = flag.Int("limit", 0, "stop after this many violations (0 = all)")
	quiet      = flag.Bool("q", false, "print only counts")
	doAnalyze  = flag.Bool("analyze", false, "run the Σ admission analysis (satisfiability, unsat core, minimization); exit 3 = unsatisfiable, 4 = undecided")
	anTimeout  = flag.Duration("analyze-timeout", 30*time.Second, "wall-clock budget for -analyze")
	doRepair   = flag.Bool("repair", false, "after batch detection, print ranked candidate fixes per violation (offline repair preview; incompatible with -update)")
	repairMax  = flag.Int("repair-fixes", 3, "ranked fixes to print per violation with -repair")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ngdcheck: ")
	flag.Parse()
	if *rulesPath == "" || (*graphPath == "" && !*doAnalyze) {
		flag.Usage()
		os.Exit(2)
	}

	rf, err := os.Open(*rulesPath)
	if err != nil {
		log.Fatal(err)
	}
	rules, lines, err := ngd.ParseRulesLocated(rf)
	rf.Close()
	if err != nil {
		log.Fatal(err)
	}

	if *doAnalyze {
		runAnalysis(rules, lines)
		if *graphPath == "" {
			return
		}
	}

	gf, err := os.Open(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	g, ids, err := ngd.LoadGraph(gf)
	gf.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges; Σ: %d rules (dΣ=%d)\n",
		g.NumNodes(), g.NumEdges(), rules.Len(), rules.Diameter())

	if *updatePath == "" {
		if *doRepair {
			runRepair(g, rules)
		} else {
			runBatch(g, rules)
		}
		return
	}
	if *doRepair {
		log.Print("-repair previews fixes for the stored violations of a graph; run it without -update")
		os.Exit(2)
	}
	uf, err := os.Open(*updatePath)
	if err != nil {
		log.Fatal(err)
	}
	delta, err := ngd.LoadDelta(uf, g, ids)
	uf.Close()
	if err != nil {
		log.Fatal(err)
	}
	runIncremental(g, rules, delta)
}

// runAnalysis prints the Σ admission report and exits non-zero when Σ is
// unusable: 3 = proven unsatisfiable, 4 = undecided within budget. On a
// satisfiable Σ it returns so detection can proceed (when -graph is given).
func runAnalysis(rules *ngd.RuleSet, lines map[string]int) {
	rep := ngd.AnalyzeRules(rules, ngd.AnalysisOptions{Timeout: *anTimeout, Lines: lines})
	fmt.Printf("Σ analysis: satisfiable=%v strongly=%v rules=%d dropped=%d elapsed=%dms\n",
		rep.Satisfiable, rep.StronglySatisfiable, rep.NumRules, len(rep.Dropped), rep.ElapsedMS)
	fmt.Printf("signature: %s\n", rep.Signature)
	if d := rep.Diagnostic(); d != "" && !*quiet {
		fmt.Print(d)
	}
	switch {
	case rep.Unsat():
		fmt.Fprint(os.Stderr, rep.Diagnostic())
		log.Print("Σ is unsatisfiable: every batch against it is wasted work")
		os.Exit(3)
	case rep.Err != "":
		log.Printf("analysis failed: %s", rep.Err)
		os.Exit(4)
	case rep.Satisfiable == ngd.Unknown:
		log.Print("satisfiability undecided within the analysis budget (raise -analyze-timeout)")
		os.Exit(4)
	}
}

func runBatch(g *ngd.Graph, rules *ngd.RuleSet) {
	var vios []ngd.Violation
	if *limit > 0 {
		vios = ngd.DetectLimit(g, rules, *limit).Violations
	} else {
		vios = ngd.Detect(g, rules).Violations
	}
	fmt.Printf("violations: %d\n", len(vios))
	printVios(vios)
}

func runIncremental(g *ngd.Graph, rules *ngd.RuleSet, delta *ngd.Delta) {
	fmt.Printf("ΔG: %d unit updates\n", delta.Len())
	dv := ngd.IncDetect(g, rules, delta)
	fmt.Printf("ΔVio⁺: %d new violations\n", len(dv.Plus))
	printVios(dv.Plus)
	fmt.Printf("ΔVio⁻: %d removed violations\n", len(dv.Minus))
	printVios(dv.Minus)
}

// runRepair seeds a session (the live store repair ranks against) and
// prints the ranked candidate fixes for every stored violation: solver-
// backed minimal attribute reassignments and match-breaking edge deletions,
// each annotated with its previewed cross-violation clearance. Pure
// preview — the graph is never mutated.
func runRepair(g *ngd.Graph, rules *ngd.RuleSet) {
	sess := ngd.NewSession(g, rules, ngd.SessionOptions{})
	vios := sess.Violations()
	fmt.Printf("violations: %d\n", len(vios))
	repairable := 0
	for _, v := range vios {
		res, err := sess.PreviewRepair(v.Key(), ngd.RepairOptions{MaxFixes: *repairMax})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Unrepairable {
			repairable++
		}
		if *quiet {
			continue
		}
		fmt.Printf("  %s\n", v)
		if res.Unrepairable {
			fmt.Printf("    unrepairable: %s\n", res.Reason)
			continue
		}
		for i, f := range res.Fixes {
			fmt.Printf("    %d. %s\n", i+1, describeFix(f))
		}
	}
	fmt.Printf("repairable: %d/%d\n", repairable, len(vios))
}

// describeFix renders one fix for the terminal.
func describeFix(f ngd.RepairFix) string {
	var what string
	switch f.Kind {
	case "attr":
		what = fmt.Sprintf("node %d:", f.Node)
		for _, set := range f.Sets {
			if set.Old != nil {
				what += fmt.Sprintf(" set %s %d→%d", set.Attr, *set.Old, set.New)
			} else {
				what += fmt.Sprintf(" set %s=%d (new)", set.Attr, set.New)
			}
		}
		what += fmt.Sprintf(" (perturb %d,", f.Perturb)
	case "edge-delete":
		what = fmt.Sprintf("delete edge %d -%s-> %d (", f.Src, f.Label, f.Dst)
	default:
		what = f.ID + " ("
	}
	return fmt.Sprintf("%s clears %d, introduces %d)", what, len(f.Clears), len(f.Introduces))
}

func printVios(vios []ngd.Violation) {
	if *quiet {
		return
	}
	for _, v := range vios {
		fmt.Printf("  %s\n", v)
	}
}
