package plan

import (
	"fmt"
	"sort"
	"strings"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/match"
)

// This file arranges the batch (no pre-bound pivots) plans of a rule set
// into a prefix forest: rules whose plans begin with structurally identical
// steps — same node label, same candidate source (label scan, index run, or
// anchor edge), same edge checks, same candidate filters — share a path and
// diverge only where their plans differ. The batch detector walks the
// forest once, so a shared prefix's candidate scans, edge checks and filter
// evaluations are paid once for all rules riding it, with each rule's
// literal schedule evaluated independently along the way (detect.Searcher).
//
// Step signatures are depth-relative (pattern node indices are translated
// to the step depth that binds them), so rules over different Pattern
// objects — even with different variable names — share whenever their
// compiled structure matches. Rules in the same (pattern, filters) group
// trivially share their entire path; the forest additionally merges prefixes
// across groups.

// ShareRule is one rule's entry in a prefix forest.
type ShareRule struct {
	Rule *core.NGD
	C    *Compiled
	Plan *match.Plan
	// Pins lists the pattern nodes a pivot pre-binds, by role: the pivot
	// edge's source, then its destination (one entry for a self-loop pattern
	// edge); nil for a batch plan. Plan.Bound cannot stand in for it: the
	// plan cache keys pivot plans by the sorted bound set, so Bound is in the
	// order of whichever slot built the entry.
	Pins []int
}

// ShareNode is one forest node: the state after binding the steps of the
// path leading to it. Children are the distinct next steps taken from here.
type ShareNode struct {
	// Depth is the number of steps bound on the path to this node; the step
	// binding it is Share.Rules[Rep].Plan.Steps[Depth-1].
	Depth int
	// Rep indexes Share.Rules: the rule whose plan and matcher drive
	// candidate generation and edge checks for this node's subtree (-1 at
	// the root, which binds nothing).
	Rep int
	// Rules indexes Share.Rules: every rule whose path passes through this
	// node (always includes Rep).
	Rules []int
	// Terminal indexes Share.Rules: rules whose plan completes at Depth —
	// their pattern is fully bound here and matches are emitted.
	Terminal []int
	// Children are the divergent continuations, in first-insertion order.
	Children []*ShareNode

	sigs map[string]int // child signature -> Children index (build only)
}

// Share is the prefix forest of one rule set's batch plans.
type Share struct {
	// Rules lists the participating rules (rules with an empty consequence
	// are excluded up front: X → ∅ holds vacuously).
	Rules []ShareRule
	// Root is the depth-0 node; its children are the distinct seed steps.
	Root *ShareNode
	// SharedRules counts rules that share at least their seed step with
	// another rule (the plan-cache counter surfaced as SharedRules).
	SharedRules int
}

// ShareFor returns the prefix forest for the batch plans of the given rule
// set over v, memoized per set and rebuilt whenever any underlying plan was
// rebuilt (churn invalidation) or the set grew.
func (p *Program) ShareFor(v *graph.Graph, rules *core.Set) *Share {
	// resolve the group plans first (outside the memo check: these are the
	// cache lookups whose pointers serve as the validity token)
	plans := make([]*match.Plan, 0, len(rules.Rules))
	srs := make([]ShareRule, 0, len(rules.Rules))
	for _, r := range rules.Rules {
		if len(r.Y) == 0 {
			continue
		}
		c, pl := p.PlanFor(v, r, nil)
		srs = append(srs, ShareRule{Rule: r, C: c, Plan: pl})
		plans = append(plans, pl)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.shares[rules]; ok && samePlans(e.plans, plans) {
		return e.share
	}
	// The memo is keyed by set pointer; callers cycling through ephemeral
	// sets would otherwise pin every dead forest. Rebuilding is cheap, so
	// just reset the memo when it accumulates.
	if len(p.shares) >= 16 {
		clear(p.shares)
	}
	sh := ShareOf(srs)
	p.shares[rules] = &shareEntry{share: sh, plans: plans}
	p.sharedRules.Store(int64(sh.SharedRules))
	return sh
}

func samePlans(a, b []*match.Plan) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ShareOf inserts every rule's step-signature path into a fresh forest. The
// plans need not be batch plans: ChainFor calls it with one pre-bound plan,
// its pins named in ShareRule.Pins, and gets a chain (a plan with no steps
// left, both ends of a one-edge pattern pinned, is Terminal on the Root
// itself).
func ShareOf(rules []ShareRule) *Share {
	sh := &Share{
		Rules: rules,
		Root:  &ShareNode{Depth: 0, Rep: -1, sigs: make(map[string]int)},
	}
	for ri := range rules {
		sigs := stepSigs(rules[ri].Plan, rules[ri].Pins)
		nd := sh.Root
		nd.Rules = append(nd.Rules, ri)
		for d, sig := range sigs {
			ci, ok := nd.sigs[sig]
			if !ok {
				ci = len(nd.Children)
				nd.sigs[sig] = ci
				nd.Children = append(nd.Children, &ShareNode{
					Depth: d + 1, Rep: ri, sigs: make(map[string]int),
				})
			}
			nd = nd.Children[ci]
			nd.Rules = append(nd.Rules, ri)
		}
		nd.Terminal = append(nd.Terminal, ri)
	}
	for _, c := range sh.Root.Children {
		if len(c.Rules) >= 2 {
			sh.SharedRules += len(c.Rules)
		}
	}
	return sh
}

// stepSigs canonicalizes a plan's steps into depth-relative signatures. A
// pinned node signs as a negative depth by role (−1 the pivot's source, −2
// its destination), so "anchored at the source pin", "at the destination
// pin" and "at the step-0 node" are three different steps.
func stepSigs(pl *match.Plan, pins []int) []string {
	depthOf := make(map[int]int, len(pins)+len(pl.Steps))
	for i, b := range pins {
		depthOf[b] = -1 - i
	}
	for d, st := range pl.Steps {
		depthOf[st.Node] = d
	}
	sigs := make([]string, len(pl.Steps))
	for d := range pl.Steps {
		st := &pl.Steps[d]
		var b strings.Builder
		fmt.Fprintf(&b, "n%d", pl.CP.NodeLabels[st.Node])
		if st.AnchorEdge >= 0 {
			fmt.Fprintf(&b, "|a%d:%v:%d", pl.CP.EdgeLabels[st.AnchorEdge],
				st.AnchorOut, depthOf[st.AnchorFrom])
		} else if st.SeedPred >= 0 {
			fmt.Fprintf(&b, "|s%s", predKey(&pl.Filters[st.Node].Preds[st.SeedPred]))
		} else {
			b.WriteString("|scan")
		}
		checks := make([]string, len(st.Checks))
		for i, c := range st.Checks {
			other := "self"
			if c.Other != st.Node {
				other = fmt.Sprint(depthOf[c.Other])
			}
			checks[i] = fmt.Sprintf("c%d:%v:%s", pl.CP.EdgeLabels[c.Edge], c.Out, other)
		}
		sort.Strings(checks)
		b.WriteString("|")
		b.WriteString(strings.Join(checks, ","))
		if pl.Filters != nil {
			preds := make([]string, len(pl.Filters[st.Node].Preds))
			for i := range pl.Filters[st.Node].Preds {
				preds[i] = predKey(&pl.Filters[st.Node].Preds[i])
			}
			sort.Strings(preds)
			fmt.Fprintf(&b, "|f%s", strings.Join(preds, ","))
		}
		sigs[d] = b.String()
	}
	return sigs
}
