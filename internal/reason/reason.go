// Package reason implements the static analyses of NGDs (paper §4): the
// satisfiability, strong satisfiability and implication problems, which are
// Σp2-complete, Σp2-complete and Πp2-complete respectively (Theorem 1).
//
// The decision procedure rests on a canonical-instance property mirroring
// the paper's small-model argument: Σ is strongly satisfiable iff the
// *canonical instance* — the disjoint union of all patterns in Σ, with
// every wildcard node given a fresh label — admits an attribute assignment
// (values and *presence*) under which every homomorphic match of every
// pattern satisfies its rule. Pulling any model G back along the canonical
// matches shows completeness; the canonical instance itself is the witness
// for soundness. Plain satisfiability quantifies existentially over which
// single pattern is materialized, and Σ ⊨ φ fails exactly when the
// canonical instance of Q_φ supports an assignment satisfying Σ while
// violating X_φ → Y_φ on the identity match.
//
// The exponential lives where the complexity class says it must: in the
// enumeration of matches and in the disjunctive search over ways to satisfy
// or falsify literals (missing attribute vs. negated comparison, paper §3
// semantics), with exact integer linear feasibility (package solver) as the
// base case. The canonical instance is a disjoint union, so the obligations
// fall into groups that bind disjoint nodes; each group is searched on its
// own, and the exponential is paid per group, not over their product.
// Inputs with non-linear expressions are rejected up front: by Theorem 3
// the analyses are undecidable already at degree 2.
//
// Implication tests each obligation for subsumption as it is enumerated
// (subsume.go): a rule of Σ that already states φ, under some match, decides
// Σ ⊨ φ in polynomial time, and the search runs only when none does.
package reason

import (
	"errors"
	"fmt"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/pattern"
	"ngd/internal/plan"
	"ngd/internal/solver"
)

// ErrNonLinear reports rules outside the linear fragment (undecidable).
var ErrNonLinear = errors.New("reason: non-linear NGD: satisfiability and implication are undecidable (Theorem 3)")

// Verdict is a three-valued answer; Unknown arises only when a search
// budget is exhausted.
type Verdict uint8

// Verdict values.
const (
	No Verdict = iota
	Yes
	Unknown
)

func (v Verdict) String() string {
	switch v {
	case No:
		return "no"
	case Yes:
		return "yes"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the verdict as its string form ("no"/"yes"/"unknown")
// so analysis reports stay readable on the wire.
func (v Verdict) MarshalJSON() ([]byte, error) {
	return []byte(`"` + v.String() + `"`), nil
}

// UnmarshalJSON accepts the string form.
func (v *Verdict) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"no"`:
		*v = No
	case `"yes"`:
		*v = Yes
	case `"unknown"`:
		*v = Unknown
	default:
		return fmt.Errorf("reason: bad verdict %s", b)
	}
	return nil
}

// Budgets of the analyses. The decision procedures are exact within them —
// a Yes or No answer is always correct — and degrade to Unknown, never to a
// wrong answer, when one is exhausted. maxMatches bounds how many
// homomorphic matches of Σ-patterns into a canonical instance are
// enumerated (the obligation set); maxBranches bounds the disjunctive search
// tree over ways to satisfy or falsify literals (where the Σp2 exponential
// lives), per group of obligations that bind disjoint nodes. The solver's
// own caps behave the same way: its Unknown propagates as Unknown here.
const maxMatches = 2000

var maxBranches = 200000 // a variable so that tests can shrink it

// Options carry a call's deadline.
type Options struct {
	// Done, when non-nil, bounds the whole call in wall-clock time: the
	// search polls it between branches and between candidate patterns, the
	// solver per node and every 32 pivots, and the analyses return Unknown
	// once it is closed. An admission gate running in strict mode can then
	// never hang inside a Σp2 search.
	Done <-chan struct{}
}

// solver hands the deadline to the integer feasibility solver.
func (o Options) solver() solver.Options { return solver.Options{Done: o.Done} }

// expired reports whether the wall-clock budget is already exhausted.
func (o Options) expired() bool { return o.solver().Expired() }

// Satisfiable decides whether Σ has a model in which at least one pattern
// of Σ matches (paper §4 satisfiability).
func Satisfiable(rules *core.Set, opts Options) (Verdict, error) {
	if err := checkLinear(rules.Rules...); err != nil {
		return Unknown, err
	}
	sawUnknown := false
	for _, r := range rules.Rules {
		if opts.expired() {
			return Unknown, nil
		}
		v, _ := consistentCanonical(rules, []*pattern.Pattern{r.Pattern}, nil, false, opts)
		switch v {
		case Yes:
			return Yes, nil
		case Unknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return Unknown, nil
	}
	return No, nil
}

// PatternConsistent decides whether the canonical instance of anchor's
// pattern admits an attribute assignment under which every match of every
// rule in Σ satisfies its dependency. It is the single-pattern probe that
// Satisfiable existentially quantifies over; the analyze package uses it
// to shrink an unsatisfiable Σ to a minimal core while holding the anchor
// pattern fixed.
func PatternConsistent(rules *core.Set, anchor *core.NGD, opts Options) (Verdict, error) {
	if err := checkLinear(append(append([]*core.NGD{}, rules.Rules...), anchor)...); err != nil {
		return Unknown, err
	}
	v, _ := consistentCanonical(rules, []*pattern.Pattern{anchor.Pattern}, nil, false, opts)
	return v, nil
}

// StronglySatisfiable decides whether Σ has a model in which *every*
// pattern of Σ matches.
func StronglySatisfiable(rules *core.Set, opts Options) (Verdict, error) {
	if err := checkLinear(rules.Rules...); err != nil {
		return Unknown, err
	}
	var pats []*pattern.Pattern
	for _, r := range rules.Rules {
		pats = append(pats, r.Pattern)
	}
	v, _ := consistentCanonical(rules, pats, nil, false, opts)
	return v, nil
}

// Implies decides Σ ⊨ φ: Yes when every model of Σ satisfies φ.
func Implies(rules *core.Set, phi *core.NGD, opts Options) (Verdict, error) {
	v, _, err := ImpliedBy(rules, phi, opts)
	return v, err
}

// ImpliedBy decides Σ ⊨ φ like Implies and also names the rule ψ ∈ Σ that
// subsumes φ when subsumption decided the answer (see subsumes); by is nil
// when the witness search decided it.
func ImpliedBy(rules *core.Set, phi *core.NGD, opts Options) (v Verdict, by *core.NGD, err error) {
	return implies(rules, phi, opts, true)
}

// implies decides Σ ⊨ φ, trying subsumption first when subsume is set.
// Without it the answer is the witness search's alone: the specification
// the tests hold the subsumption check to.
func implies(rules *core.Set, phi *core.NGD, opts Options, subsume bool) (Verdict, *core.NGD, error) {
	if err := checkLinear(append(append([]*core.NGD{}, rules.Rules...), phi)...); err != nil {
		return Unknown, nil, err
	}
	// witness search: canonical(Q_φ) satisfying Σ with the identity match
	// violating X_φ → Y_φ
	v, by := consistentCanonical(rules, []*pattern.Pattern{phi.Pattern}, phi, subsume, opts)
	switch v {
	case Yes:
		return No, nil, nil // witness exists: not implied
	case No:
		return Yes, by, nil
	default:
		return Unknown, nil, nil
	}
}

func checkLinear(rules ...*core.NGD) error {
	for _, r := range rules {
		for _, l := range append(append([]core.Literal{}, r.X...), r.Y...) {
			if !l.IsLinear() {
				return fmt.Errorf("%w: rule %s literal %s", ErrNonLinear, r.Name, l)
			}
		}
	}
	return nil
}

// canonical builds the canonical instance of the given patterns: their
// disjoint union with fresh labels on wildcard nodes. It returns the graph
// and, for each input pattern, its identity match.
func canonical(pats []*pattern.Pattern) (*graph.Graph, []core.Match) {
	g := graph.New()
	fresh := 0
	matches := make([]core.Match, len(pats))
	for pi, p := range pats {
		m := make(core.Match, len(p.Nodes))
		for i, n := range p.Nodes {
			label := n.Label
			if label == "_" {
				label = fmt.Sprintf("⊥fresh%d", fresh) // ⊥freshN: never in Γ
				fresh++
			}
			m[i] = g.AddNode(label)
		}
		for _, e := range p.Edges {
			g.AddEdge(m[e.Src], m[e.Dst], e.Label)
		}
		matches[pi] = m
	}
	return g, matches
}

// implication is one obligation: match m of rule r must satisfy X → Y.
type implication struct {
	rule *core.NGD
	m    core.Match
}

// consistentCanonical reports whether the canonical instance of pats admits
// an attribute assignment making every match of every Σ-rule satisfy its
// dependency, and (when negate != nil) making the identity match of
// negate's pattern violate negate. With subsume set, each obligation is
// tested as it is enumerated: one that subsumes negate answers No at once,
// before maxMatches or the search could turn it into Unknown, and is
// returned as by.
//
// The obligations are decided one independent group at a time (see
// groupObligations): the answer is No as soon as one group's search says
// No, and Yes only when every group's says Yes.
func consistentCanonical(rules *core.Set, pats []*pattern.Pattern, negate *core.NGD, subsume bool, opts Options) (v Verdict, by *core.NGD) {
	g, idMatches := canonical(pats)
	var idm core.Match
	if len(idMatches) > 0 {
		idm = idMatches[0]
	}
	subsume = subsume && negate != nil

	// enumerate obligations: all matches of all Σ-patterns
	var obligations []implication
	for _, r := range rules.Rules {
		if opts.expired() {
			return Unknown, nil
		}
		if !labelsIn(g.Symbols(), r.Pattern) {
			continue // no match: a label the instance lacks
		}
		cp := pattern.Compile(r.Pattern, g.Symbols())
		pl := plan.ForPattern(g, cp)
		mr := match.NewMatcher(g, pl)
		over := false
		mr.Run(match.NewPartial(len(r.Pattern.Nodes)), func(sol []graph.NodeID) bool {
			ob := implication{rule: r, m: append(core.Match(nil), sol...)}
			if subsume && subsumes(ob, negate, idm) {
				by = r
				return false
			}
			obligations = append(obligations, ob)
			if len(obligations) > maxMatches {
				over = true
				return false
			}
			return len(obligations)&0x3f != 0 || !opts.expired()
		})
		if by != nil {
			return No, by
		}
		if over || opts.expired() {
			return Unknown, nil
		}
	}

	var neg core.Match
	if negate != nil {
		neg = idm
	}
	sawUnknown := false
	for i, grp := range groupObligations(g.NumNodes(), obligations, neg) {
		var gneg *core.NGD
		if i == 0 {
			gneg = negate
		}
		budget := maxBranches
		switch newSearch(g, opts).searchImplications(grp, 0, gneg, idm, &budget) {
		case No:
			return No, nil
		case Unknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return Unknown, nil
	}
	return Yes, nil
}

// labelsIn reports whether every node and edge label p names is in syms;
// otherwise p has no match in a graph over syms.
func labelsIn(syms *graph.Symbols, p *pattern.Pattern) bool {
	for _, n := range p.Nodes {
		if syms.LookupLabel(n.Label) == graph.NoLabel {
			return false
		}
	}
	for _, e := range p.Edges {
		if syms.LookupLabel(e.Label) == graph.NoLabel {
			return false
		}
	}
	return true
}

// groupObligations splits the obligations over a canonical instance of n
// nodes into groups that bind disjoint sets of nodes, transitively, in the
// order of their first obligations. The negated rule's identity match neg,
// when non-nil, joins the group of its nodes, which comes first, even if it
// holds no obligation.
//
// Deciding the groups apart is exact: an unknown is an attribute of one
// node (varKey), so groups share no unknown, and no presence, type, string
// or numeric decision in one group constrains another. An assignment
// satisfies every obligation iff its restriction to each group satisfies
// that group's. Each group's search has its own maxBranches, as each
// solver part has its own caps: a group the whole search would refute is
// refuted within the budget whatever the other groups cost.
var groupObligations = func(n int, obls []implication, neg core.Match) [][]implication {
	root := make([]graph.NodeID, n)
	for v := range root {
		root[v] = graph.NodeID(v)
	}
	find := func(v graph.NodeID) graph.NodeID {
		for root[v] != v {
			root[v] = root[root[v]]
			v = root[v]
		}
		return v
	}
	union := func(m core.Match) {
		for _, v := range m {
			root[find(v)] = find(m[0])
		}
	}
	union(neg)
	for _, ob := range obls {
		union(ob.m)
	}
	of := make([]int, n+1) // root node (n: a match of no node) → group + 1
	var out [][]implication
	add := func(m core.Match) int {
		r := n
		if len(m) > 0 {
			r = int(find(m[0]))
		}
		if of[r] == 0 {
			out = append(out, nil)
			of[r] = len(out)
		}
		return of[r] - 1
	}
	if neg != nil {
		add(neg)
	}
	for _, ob := range obls {
		i := add(ob.m)
		out[i] = append(out[i], ob)
	}
	return out
}
