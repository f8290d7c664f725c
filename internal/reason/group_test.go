package reason

import (
	"fmt"
	"testing"

	"ngd/internal/core"
)

// groupCorpora are rule sets whose verdicts hang on the grouping itself.
var groupCorpora = []corpus{
	// a group after the first refutes Σ: strongly satisfiable is No
	{"group/later group refutes", core.NewSet(
		mk("nonneg", "x: a", "", "x.A >= 0"),
		mk("phi5", "y: b", "", "y.A = 7; y.B = 7"),
		mk("phi6", "z: b", "", "z.A + z.B = 11"))},
	// the two demands on y.B meet only through the middle node of a path
	{"group/middle node", core.NewSet(
		mk("path", "x: a; y: b; z: c; x -e-> y; y -f-> z", "", "y.B = 1"),
		mk("node", "y: b", "", "y.B = 2"))},
	// φ's violation falsifies a literal on a node only another rule binds
	{"group/violation joins its nodes", core.NewSet(
		mk("rho", "y: b", "", "y.B = 2"),
		mk("phi", "x: a; y: b; x -e-> y", "", "y.B = 2"))},
}

// TestGroupedSearchAgreesWithWhole runs the Satisfiable,
// StronglySatisfiable, PatternConsistent and Implies probes of every rule
// set of probeCorpora and groupCorpora twice: deciding the obligations one
// independent group at a time, and as one group. Wherever the one-group
// search decides, the grouped verdict must be the same. Implies is probed
// without subsumption, so that the search decides it.
func TestGroupedSearchAgreesWithWhole(t *testing.T) {
	setMaxBranches(t, 200)
	var opts Options
	type probe struct {
		name string
		run  func() (Verdict, error)
	}
	var probes []probe
	for _, c := range append(probeCorpora(), groupCorpora...) {
		set := c.set
		probes = append(probes,
			probe{c.name + " satisfiable", func() (Verdict, error) { return Satisfiable(set, opts) }},
			probe{c.name + " strongly satisfiable", func() (Verdict, error) { return StronglySatisfiable(set, opts) }})
		for i, phi := range set.Rules {
			rest := core.NewSet(append(append([]*core.NGD{}, set.Rules[:i]...), set.Rules[i+1:]...)...)
			probes = append(probes,
				probe{fmt.Sprintf("%s pattern-consistent %s", c.name, phi.Name), func() (Verdict, error) {
					return PatternConsistent(set, phi, opts)
				}},
				probe{fmt.Sprintf("%s implies %s", c.name, phi.Name), func() (Verdict, error) {
					v, _, err := implies(rest, phi, opts, false)
					return v, err
				}})
		}
	}
	grouped := make([]Verdict, len(probes))
	for i, p := range probes {
		v, err := p.run()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		grouped[i] = v
	}
	searchWhole(t)
	decided := 0
	for i, p := range probes {
		whole, err := p.run()
		if err != nil {
			t.Fatalf("%s: one group: %v", p.name, err)
		}
		switch {
		case whole == grouped[i]:
		case whole == Unknown:
			decided++
		default:
			t.Fatalf("%s: %v grouped, %v as one group", p.name, grouped[i], whole)
		}
	}
	t.Logf("%d probes: the grouped search decides %d that the one-group search leaves unknown", len(probes), decided)
}
