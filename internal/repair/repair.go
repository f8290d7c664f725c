// Package repair turns detected violations into candidate fixes: the
// resolution half the paper leaves open (it stops at computing Vio(Σ, G)).
// For one target violation the enumerator produces two candidate shapes:
//
//   - attribute reassignments: the target node's numeric attributes are
//     freed as integer variables and the rule's literals re-solved with
//     internal/solver (exact simplex + branch-and-bound), picking the
//     feasible assignment of minimal L1 perturbation Σ|new − old| — either
//     all of X ∧ Y made to hold, or one X literal falsified;
//   - edge deletions: removing any edge the match uses breaks the match
//     itself.
//
// Every candidate is then previewed without committing, by the
// reconciliation a commit of it runs (internal/inc): attribute fixes with
// inc.Attr on a graph.Overlay carrying the reassignment (SetAttr overrides +
// masked index pairs), edge deletions with inc.Minus over the store's
// postings. The preview yields the fix's cross-violation clearance — which
// *other* stored violations it removes and which new ones it introduces —
// and the ranking orders fixes by net clearance. Applying a chosen fix is the serving layer's job (it routes
// the fix through the ordinary ingest path); this package never mutates the
// graph.
//
// Determinism: candidates are enumerated in match-slot and pattern-edge
// order, store postings are read in canonical-key order, and the solver is
// deterministic, so the same (graph, store, target) always yields the same
// ranked fixes. The package imports neither "time" nor "math/rand"
// (enforced by ngdlint); deadlines arrive via solver.Options.Done.
package repair

import (
	"fmt"
	"sort"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/plan"
	"ngd/internal/solver"
)

// AttrSet is one attribute reassignment of a fix: set Attr of the fix's
// node to New. Old is the committed value (nil when the attribute was
// absent — the fix then creates it). Repair values are always integers:
// the solver works over the NGD integer attribute domain.
type AttrSet struct {
	Attr string `json:"attr"`
	Old  *int64 `json:"old,omitempty"`
	New  int64  `json:"new"`
}

// Fix kinds.
const (
	KindAttr       = "attr"        // reassign attributes of one node
	KindEdgeDelete = "edge-delete" // delete one edge the match uses
)

// Fix is one candidate repair with its previewed consequences.
type Fix struct {
	// ID identifies the fix within its Result; stable across
	// re-enumeration at the same epoch, which is what lets a client pick a
	// fix from a preview and apply it by ID later (a commit in between
	// surfaces as a changed epoch / stale violation key, not a silent
	// different fix).
	ID   string `json:"id"`
	Kind string `json:"kind"`

	// Attr fixes: the node whose attributes are reassigned, and the sets.
	Node graph.NodeID `json:"node,omitempty"`
	Sets []AttrSet    `json:"sets,omitempty"`

	// Edge-delete fixes: the edge to remove.
	Src   graph.NodeID `json:"src,omitempty"`
	Dst   graph.NodeID `json:"dst,omitempty"`
	Label string       `json:"label,omitempty"`

	// Perturb is the attr fix's L1 perturbation Σ|new − old| (absent
	// attributes count from 0); 0 for edge deletions.
	Perturb int64 `json:"perturb"`

	// Clears lists the canonical keys of stored violations the fix removes
	// (always including the target); Introduces the keys of violations the
	// fix would create. Score = len(Clears) − len(Introduces) is the net
	// clearance the ranking maximizes.
	Clears     []string `json:"clears"`
	Introduces []string `json:"introduces,omitempty"`
	Score      int      `json:"score"`
}

// Stats counts the enumeration's work (the ngdbench repair experiment
// reports these against |Vio|).
type Stats struct {
	AttrCands   int `json:"attr_candidates"` // nodes attempted
	EdgeCands   int `json:"edge_candidates"` // distinct match edges tried
	SolverCalls int `json:"solver_calls"`    // exact Solve invocations
	Discarded   int `json:"discarded"`       // candidates dropped by preview
}

// Result is the ranked fix list for one target violation.
type Result struct {
	Target string `json:"target"`
	Rule   string `json:"rule"`
	// Fixes is ranked best-first: net clearance desc, then attr before
	// edge-delete, then perturbation asc, then ID.
	Fixes []Fix `json:"fixes"`
	// Unrepairable is set when no candidate survived and Reason says why
	// (non-linear literals, infeasible literal system, exhausted budget).
	Unrepairable bool   `json:"unrepairable,omitempty"`
	Reason       string `json:"reason,omitempty"`
	Stats        Stats  `json:"stats"`
}

// Top returns the top-ranked fix, or false when none exists.
func (r *Result) Top() (Fix, bool) {
	if len(r.Fixes) == 0 {
		return Fix{}, false
	}
	return r.Fixes[0], true
}

// FixByID finds a fix by its ID.
func (r *Result) FixByID(id string) (Fix, bool) {
	for _, f := range r.Fixes {
		if f.ID == id {
			return f, true
		}
	}
	return Fix{}, false
}

// Options configure enumeration.
type Options struct {
	// MaxFixes caps the ranked fixes returned (default 8).
	MaxFixes int
	// Solver carries the deadline of every exact Solve; Solver.Done is also
	// polled between candidates, so one closed channel deadlines the whole
	// enumeration.
	Solver solver.Options
}

// enum carries one enumeration's state.
type enum struct {
	g      *graph.Graph
	rules  *core.Set
	search inc.Options
	store  inc.Store
	opts   Options

	target core.Violation
	stats  Stats
	reason string // first failure reason seen (reported if nothing survives)
}

func (e *enum) note(why string) {
	if e.reason == "" {
		e.reason = why
	}
}

// Enumerate produces the ranked candidate fixes for target, which must be a
// current violation of g held by st (callers take it from the live store).
// The previews run the reconciliations a commit of the fix runs (inc.Minus,
// inc.Attr) with search: a session passes its program and searcher cache;
// with no Program a private one is built. g is never mutated beyond
// attribute-index cache fills, so Enumerate is a pure preview.
func Enumerate(g *graph.Graph, rules *core.Set, search inc.Options, st inc.Store, target core.Violation, opts Options) *Result {
	if opts.MaxFixes <= 0 {
		opts.MaxFixes = 8
	}
	if search.Program == nil {
		search.Program = plan.New(g, rules, plan.Options{})
	}
	e := &enum{g: g, rules: rules, search: search, store: st, opts: opts, target: target}
	res := &Result{Target: target.Key(), Rule: target.Rule.Name}

	var fixes []Fix

	// attribute candidates: one per distinct match node, in slot order
	seen := make(map[graph.NodeID]bool)
	for _, n := range target.Match {
		if seen[n] {
			continue
		}
		seen[n] = true
		if e.opts.Solver.Expired() {
			e.note("deadline exhausted mid-enumeration")
			break
		}
		e.stats.AttrCands++
		if f, ok := e.attrFix(n); ok {
			fixes = append(fixes, f)
		}
	}

	// edge-deletion candidates: every distinct graph edge the match uses
	fixes = append(fixes, e.edgeFixes()...)

	rank(fixes)
	if len(fixes) > opts.MaxFixes {
		fixes = fixes[:opts.MaxFixes]
	}
	res.Fixes = fixes
	res.Stats = e.stats
	if len(fixes) == 0 {
		res.Unrepairable = true
		res.Reason = e.reason
		if res.Reason == "" {
			res.Reason = "no candidate fix clears the violation"
		}
	}
	return res
}

// attrFix attempts the solver-backed attribute reassignment of node n, and
// previews it on an overlay when a feasible minimal assignment exists.
func (e *enum) attrFix(n graph.NodeID) (Fix, bool) {
	sets, perturb, why := e.solveNode(n)
	if sets == nil {
		if why != "" {
			e.note(why)
		}
		return Fix{}, false
	}
	clears, intro, ok := e.attrClearance(n, sets)
	if !ok {
		e.stats.Discarded++
		e.note("solved assignment failed the overlay preview")
		return Fix{}, false
	}
	return Fix{
		ID:      fmt.Sprintf("attr:%d", n),
		Kind:    KindAttr,
		Node:    n,
		Sets:    sets,
		Perturb: perturb,
		Clears:  clears, Introduces: intro,
		Score: len(clears) - len(intro),
	}, true
}

// attrClearance previews sets applied to node n on an overlay of the live
// graph with inc.Attr, the reconciliation a commit of the fix runs: which
// stored violations disappear, which new violations appear. ok is false when
// the assignment does not actually clear the target (a solver-level artifact
// the preview is the ground truth for).
func (e *enum) attrClearance(n graph.NodeID, sets []AttrSet) (clears, introduces []string, ok bool) {
	ov := graph.NewOverlay(e.g, &graph.Delta{})
	syms := e.g.Symbols()
	for _, s := range sets {
		ov.SetAttr(n, syms.Attr(s.Attr), graph.Int(s.New))
	}
	if e.search.Program.CompiledFor(e.target.Rule).Violated(ov, e.target.Match) {
		return nil, nil, false
	}
	seen := make(map[string]bool)
	inc.Attr(ov, e.rules, e.store, []graph.NodeID{n}, e.search,
		func(k string, _ core.Violation) { clears = append(clears, k) },
		func(r *core.NGD, m core.Match) {
			k := core.Violation{Rule: r, Match: m}.Key()
			if !e.store.Has(k) && !seen[k] {
				seen[k] = true
				introduces = append(introduces, k)
			}
		})
	sort.Strings(introduces)
	return clears, introduces, true
}

// edgeFixes enumerates the distinct graph edges of the target match. What
// deleting one clears is what a commit of the deletion takes out of the
// store (inc.Minus), and a deletion introduces nothing. The target uses its
// own edges, so every fix clears at least it.
func (e *enum) edgeFixes() []Fix {
	r, m := e.target.Rule, e.target.Match
	c := e.search.Program.CompiledFor(r)

	type ekey struct {
		src, dst graph.NodeID
		label    graph.LabelID
	}
	tried := make(map[ekey]bool)
	var fixes []Fix
	for ei, pe := range r.Pattern.Edges {
		if e.opts.Solver.Expired() {
			e.note("deadline exhausted mid-enumeration")
			break
		}
		l := c.CP.EdgeLabels[ei]
		k := ekey{m[pe.Src], m[pe.Dst], l}
		if tried[k] || l == graph.NoLabel || !e.g.HasEdgeL(k.src, k.dst, l) {
			continue
		}
		tried[k] = true
		e.stats.EdgeCands++

		var clears []string
		del := []graph.EdgeOp{{Src: k.src, Dst: k.dst, Label: l}}
		inc.Minus(e.store, e.search.Program, del, func(key string, _ core.Violation) {
			clears = append(clears, key)
		})
		fixes = append(fixes, Fix{
			ID:   fmt.Sprintf("del:%d:%s:%d", k.src, e.g.Symbols().LabelName(l), k.dst),
			Kind: KindEdgeDelete,
			Src:  k.src, Dst: k.dst, Label: e.g.Symbols().LabelName(l),
			Clears: clears,
			Score:  len(clears),
		})
	}
	return fixes
}

// rank orders fixes best-first: net clearance desc, attr fixes before edge
// deletions (value repair is the less destructive shape), perturbation asc,
// ID asc. Total and deterministic.
func rank(fixes []Fix) {
	sort.SliceStable(fixes, func(i, j int) bool {
		a, b := fixes[i], fixes[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Kind != b.Kind {
			return a.Kind == KindAttr
		}
		if a.Perturb != b.Perturb {
			return a.Perturb < b.Perturb
		}
		return a.ID < b.ID
	})
}
