// Package plan is the shared rule-program layer: it compiles an entire NGD
// set Σ once into a reusable Program that every detector — Dect, IncDect,
// PDect, PIncDect — and the serving session consume, instead of rebuilding
// per-rule matching plans on every invocation.
//
// The Program owns three things:
//
//   - compilation: each rule's pattern resolved against the graph's symbol
//     table plus the candidate filters derived from its precondition
//     literals (moved here from internal/detect), with identical compiled
//     patterns deduplicated across Σ;
//
//   - planning: a cost-based matching-order builder (cost.go) scored with
//     the graph's maintained statistics (graph.LiveStats) — seed cost is the
//     attribute-index run or label-bucket size, extension cost the expected
//     fan-out of the anchor edge — memoized in a plan cache keyed by
//     (rule group, bound-slot signature) and invalidated when graph churn
//     since plan build crosses a drift threshold;
//
//   - sharing: plans are arranged into prefix forests (share.go), the one
//     shape every search executes (detect.Searcher sequentially, the
//     internal/par engine in work units). In Σ's batch forest rules whose
//     plans begin with structurally identical step prefixes share a path,
//     so each shared prefix runs once and fans out only at the divergence
//     point, with per-rule literal schedules layered on top; a pre-bound
//     search walks a one-rule chain (ChainFor), cached beside its plan.
//     Rules that are one dependency under several names form a clone class
//     (class.go), which the incremental detector searches once.
//
// A Program is cheap to build relative to detection and is never persisted:
// recovery (internal/store) restores Σ and the graph, then rebuilds the
// Program from them.
package plan

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/pattern"
)

// FilterLit records that X-literal Lit was compiled into a candidate
// predicate on pattern node Node (so the literal scheduler can avoid
// re-evaluating it when the node's candidates were already filter-checked).
type FilterLit struct {
	Lit, Node int
}

// Compiled bundles a rule with its pattern compiled against a graph's
// symbols, the candidate filters derived from its precondition literals
// (nil when no X-literal has the single-node constant shape), the integer
// kernels of its literals — X[i] decides Rule.X[i] and Y[i] decides
// Rule.Y[i] wherever expr.Kernel can (see Satisfied) — and the ¬Y cuts of a
// one-literal Y (at most one per orientation).
type Compiled struct {
	Rule       *core.NGD
	CP         *pattern.Compiled
	Filters    match.Filters
	FilterLits []FilterLit
	X, Y       []expr.Kernel
	Cuts       []Cut
}

// Cut is the ¬Y cut of a rule whose Y is one literal with a band (see
// expr.Band): a match violates only if its free side's value lies outside
// the band its bound side's value fixes. The free side is bound through
// pattern edges of label Label, so every value it can take is the Attr-value
// of an endpoint of such an edge — its target, or its source when BySrc
// (the free side is the edge's source). Once the bound side is bound, a
// branch is cut when the graph's edge-value index for (Label, Band.FreeAttr,
// BySrc) has no uncovered edge and its span lies inside the band.
type Cut struct {
	Band  expr.Band
	Label graph.LabelID
	BySrc bool
}

// Live returns the cut's edge-value index over v when the cut can fire
// there, or nil: v has no such index built, an edge of the label has an
// uncovered endpoint, or no band can hold the index's span. None of that
// changes within a search, so a detector asks once per search and then
// calls Holds per branch.
func (c *Cut) Live(v *graph.Graph) *graph.EdgeValIndex {
	ix := v.EdgeValIndexFor(c.Label, c.Band.FreeAttr, c.BySrc)
	if ix == nil || ix.Uncovered() > 0 || !c.fits(ix) {
		return nil
	}
	return ix
}

// fits reports whether some band of the cut could hold ix's span.
func (c *Cut) fits(ix *graph.EdgeValIndex) bool {
	lo, hi, ok := ix.Span()
	return !ok || c.Band.CanHold(lo, hi)
}

// Holds reports whether the cut applies to partial, whose bound side is
// bound: every free value the index holds lies in the band, so no
// completion of partial violates the rule over v. ix is Live(v), which has
// no uncovered edge.
func (c *Cut) Holds(v *graph.Graph, ix *graph.EdgeValIndex, partial []graph.NodeID) bool {
	lo, hi, ok := c.Band.Of(v.Attr(partial[c.Band.Bound], c.Band.BoundAttr))
	if !ok {
		return false
	}
	min, max, any := ix.Span()
	return !any || (min >= lo && max <= hi)
}

// compileCuts derives the cuts of a one-literal Y compiled as k: one per
// slot the band can be solved from, through the free slot's first pattern
// edge.
func compileCuts(cp *pattern.Compiled, k *expr.Kernel) []Cut {
	var cuts []Cut
	for bound := range cp.Src.Nodes {
		b, ok := k.Band(bound)
		if !ok {
			continue
		}
		for i, e := range cp.Src.Edges {
			if e.Src != b.Free && e.Dst != b.Free {
				continue
			}
			if l := cp.EdgeLabels[i]; l != graph.NoLabel && l != graph.Wildcard {
				cuts = append(cuts, Cut{Band: b, Label: l, BySrc: e.Dst != b.Free})
			}
			break
		}
	}
	return cuts
}

// CompileRule resolves the rule's pattern against syms and compiles the
// rule's X-literals into per-pattern-node candidate predicates. Only
// precondition literals prune: a candidate falsifying one can never
// satisfy X, whereas a falsified consequence literal is exactly what a
// violation needs.
func CompileRule(r *core.NGD, syms *graph.Symbols) *Compiled {
	c := &Compiled{Rule: r, CP: pattern.Compile(r.Pattern, syms)}
	f := match.NewFilters(len(r.Pattern.Nodes))
	for i, l := range r.X {
		if node := f.AddLiteral(r.Pattern, syms, l.L, l.Op, l.R); node >= 0 {
			c.FilterLits = append(c.FilterLits, FilterLit{Lit: i, Node: node})
		}
	}
	if len(c.FilterLits) > 0 {
		c.Filters = f
	}
	kernels := func(lits []core.Literal) []expr.Kernel {
		ks := make([]expr.Kernel, len(lits))
		for i, l := range lits {
			ks[i] = expr.CompileKernel(l.L, l.Op, l.R, r.Pattern.VarIndex, syms)
		}
		return ks
	}
	c.X, c.Y = kernels(r.X), kernels(r.Y)
	if len(c.Y) == 1 {
		c.Cuts = compileCuts(c.CP, &c.Y[0])
	}
	return c
}

// UsesEdge reports whether match m of the rule maps a pattern edge labelled
// label onto the graph edge (src, dst): whether deleting that edge kills m.
// The session reads ΔVio⁻ off its store with it and the repair engine an
// edge deletion's clearance; both walk the violations posted under one
// endpoint, so a match that merely binds src or dst is the common "no".
func (c *Compiled) UsesEdge(m core.Match, src, dst graph.NodeID, label graph.LabelID) bool {
	for i, pe := range c.Rule.Pattern.Edges {
		if c.CP.EdgeLabels[i] == label && m[pe.Src] == src && m[pe.Dst] == dst {
			return true
		}
	}
	return false
}

// Satisfied decides literal l, compiled as k (an entry of c.X or c.Y), for
// the match held in partial over g: through the kernel, and through
// Literal.Satisfied only where the kernel declines (a refused literal, int64
// overflow, a string value inside arithmetic).
func (c *Compiled) Satisfied(g *graph.Graph, k *expr.Kernel, l core.Literal, partial []graph.NodeID) bool {
	if sat, decided := k.Eval(g, partial); decided {
		return sat
	}
	return l.Satisfied(c.Rule.Binding(g, partial))
}

// Violated is core.NGD.Violated decided through Satisfied: the complete
// match m satisfies X but not Y over g. The session's attribute pass and the
// repair preview re-decide stored violations with it.
func (c *Compiled) Violated(g *graph.Graph, m core.Match) bool {
	for i := range c.X {
		if !c.Satisfied(g, &c.X[i], c.Rule.X[i], m) {
			return false
		}
	}
	for i := range c.Y {
		if !c.Satisfied(g, &c.Y[i], c.Rule.Y[i], m) {
			return true
		}
	}
	return false
}

// Options configure a Program.
type Options struct {
	// ChurnThreshold is the number of graph mutations after which a cached
	// plan is considered stale and rebuilt. 0 picks an automatic threshold
	// proportional to the graph size (stats drift slowly on large graphs).
	ChurnThreshold uint64
}

// Counters is a point-in-time snapshot of a Program's plan-cache activity.
// Safe to read from any goroutine.
type Counters struct {
	Hits          int64 `json:"hits"`          // plan served from cache
	Misses        int64 `json:"misses"`        // plan built (first use of a key)
	Invalidations int64 `json:"invalidations"` // cached plan discarded for churn drift and rebuilt
	SharedRules   int64 `json:"shared_rules"`  // rules riding a shared prefix in the latest batch forest
	Groups        int64 `json:"groups"`        // distinct (pattern, filters) groups across Σ
	Classes       int64 `json:"classes"`       // distinct clone classes across Σ (see Class)
	Rules         int64 `json:"rules"`         // rules compiled into the program
}

// Sub returns the per-interval delta c − prev for the monotone counters
// (SharedRules/Groups/Classes/Rules are level gauges and pass through
// unchanged).
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Hits:          c.Hits - prev.Hits,
		Misses:        c.Misses - prev.Misses,
		Invalidations: c.Invalidations - prev.Invalidations,
		SharedRules:   c.SharedRules,
		Groups:        c.Groups,
		Classes:       c.Classes,
		Rules:         c.Rules,
	}
}

// group is a set of rules with identical compiled patterns and identical
// candidate filters: they share one matching plan per bound-slot set.
type group struct {
	key   string
	rules []int // program rule indices, in Σ order
}

// planKey addresses one cached plan.
type planKey struct {
	group int
	bound string // sorted bound slots, e.g. "0,2" ("" = batch seed plan)
}

type cachedPlan struct {
	p       *match.Plan
	churnAt uint64
	on      *graph.Graph // the graph it last built its indexes over
	chains  []*Share     // ChainFor's one-rule forests over p
}

type shareEntry struct {
	share *Share
	plans []*match.Plan // group plans the forest was built from (validity token)
}

// Program is the compiled, shared form of one rule set Σ over one graph's
// symbol table. Build it once (per session / per serving daemon) and hand it
// to every detector via their Options; one-shot detector calls without a
// Program build a private one internally. Every search draws its forest
// from here: ShareFor for Σ's batch forest, ChainFor for the one-rule chain
// of a pre-bound search.
//
// Plan building may construct attribute indexes on the underlying graph and
// must happen during single-threaded setup (all detectors build plans before
// their workers start); the counter snapshot (Counters) is safe to read from
// any goroutine at any time.
type Program struct {
	opts Options
	syms *graph.Symbols

	mu       sync.Mutex
	rules    []*core.NGD
	compiled []*Compiled
	byRule   map[*core.NGD]int
	groupOf  []int
	groups   []*group
	classOf  []int          // program rule index -> clone class id
	classIDs map[string]int // clone key -> clone class id
	patCP    map[string]*pattern.Compiled
	cache    map[planKey]*cachedPlan
	shares   map[*core.Set]*shareEntry // memoized prefix forests, by set
	classes  map[*core.Set]*classEntry // memoized clone classes, by set

	hits, misses, invalidations atomic.Int64
	sharedRules                 atomic.Int64
}

// New compiles Σ into a Program against the graph's symbol table. Rules
// added to the set later are absorbed lazily on first lookup.
//
// A Program identifies rules by *core.NGD pointer and accretes everything
// it is shown, so it should live exactly as long as its Σ: callers that
// re-parse their rule text (fresh rule pointers for the same rules) must
// build a fresh Program rather than feeding the new set into an old one —
// the old entries would be retained and recompiled alongside.
func New(v *graph.Graph, rules *core.Set, opts Options) *Program {
	p := &Program{
		opts:     opts,
		syms:     v.Symbols(),
		byRule:   make(map[*core.NGD]int),
		classIDs: make(map[string]int),
		patCP:    make(map[string]*pattern.Compiled),
		cache:    make(map[planKey]*cachedPlan),
		shares:   make(map[*core.Set]*shareEntry),
		classes:  make(map[*core.Set]*classEntry),
	}
	p.mu.Lock()
	for _, r := range rules.Rules {
		p.addRuleLocked(r)
	}
	p.mu.Unlock()
	return p
}

// NumRules reports how many rules are compiled into the program.
func (p *Program) NumRules() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.rules)
}

// Counters snapshots the plan-cache activity.
func (p *Program) Counters() Counters {
	p.mu.Lock()
	groups, classes, rules := len(p.groups), len(p.classIDs), len(p.rules)
	p.mu.Unlock()
	return Counters{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		Invalidations: p.invalidations.Load(),
		SharedRules:   p.sharedRules.Load(),
		Groups:        int64(groups),
		Classes:       int64(classes),
		Rules:         int64(rules),
	}
}

// addRuleLocked compiles r, dedupes its pattern against previously compiled
// ones, and files it into its (pattern, filters) group and its clone class.
func (p *Program) addRuleLocked(r *core.NGD) int {
	if i, ok := p.byRule[r]; ok {
		return i
	}
	c := CompileRule(r, p.syms)
	pk := patternKey(c.CP)
	if shared, ok := p.patCP[pk]; ok {
		c.CP = shared // identical pattern: one compiled instance across Σ
	} else {
		p.patCP[pk] = c.CP
	}
	gk := pk + "|" + filterKey(c.Filters)
	gi := -1
	for j, g := range p.groups {
		if g.key == gk {
			gi = j
			break
		}
	}
	if gi < 0 {
		gi = len(p.groups)
		p.groups = append(p.groups, &group{key: gk})
	}
	ck := cloneKey(gk, r)
	ci, ok := p.classIDs[ck]
	if !ok {
		ci = len(p.classIDs)
		p.classIDs[ck] = ci
	}
	i := len(p.rules)
	p.rules = append(p.rules, r)
	p.compiled = append(p.compiled, c)
	p.byRule[r] = i
	p.groupOf = append(p.groupOf, gi)
	p.groups[gi].rules = append(p.groups[gi].rules, i)
	p.classOf = append(p.classOf, ci)
	return i
}

// CompiledFor returns the compiled form of r, absorbing it into the program
// if it was added to Σ after New.
func (p *Program) CompiledFor(r *core.NGD) *Compiled {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compiled[p.addRuleLocked(r)]
}

// PlanFor returns the compiled rule and its matching plan for the given
// pre-bound pattern slots over v, serving from the plan cache when the
// graph has not churned past the drift threshold since the plan was built
// (either way: a fork's churn runs ahead of its parent's).
// Rules in the same (pattern, filters) group share cache entries; ShareFor
// and ChainFor build their forests over plans from the same cache.
func (p *Program) PlanFor(v *graph.Graph, r *core.NGD, bound []int) (*Compiled, *match.Plan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ri := p.addRuleLocked(r)
	return p.compiled[ri], p.planLocked(v, ri, bound).p
}

// ChainFor returns r's plan for the pre-bound slots bound as a one-rule
// prefix forest: the chain a pre-bound search walks (detect.Searcher). bound
// lists the slots by role, as ShareRule.Pins does. The chain is memoized on
// the plan-cache entry its plan came from, once per rule and pin order, so
// it costs what PlanFor costs on a hit, and a rebuilt plan drops its chains
// with it.
func (p *Program) ChainFor(v *graph.Graph, r *core.NGD, bound []int) *Share {
	p.mu.Lock()
	defer p.mu.Unlock()
	ri := p.addRuleLocked(r)
	e := p.planLocked(v, ri, bound)
	for _, ch := range e.chains {
		if sr := &ch.Rules[0]; sr.Rule == r && slices.Equal(sr.Pins, bound) {
			return ch
		}
	}
	ch := ShareOf([]ShareRule{{Rule: r, C: p.compiled[ri], Plan: e.p, Pins: slices.Clone(bound)}})
	e.chains = append(e.chains, ch)
	return ch
}

// planLocked serves program rule ri's plan-cache entry for bound over v,
// building it on a miss or past the drift threshold.
func (p *Program) planLocked(v *graph.Graph, ri int, bound []int) *cachedPlan {
	c := p.compiled[ri]
	key := planKey{group: p.groupOf[ri], bound: boundSig(bound)}
	churn := v.LiveStats().Churn()
	if e, ok := p.cache[key]; ok {
		if max(churn, e.churnAt)-min(churn, e.churnAt) <= p.threshold(v) {
			p.hits.Add(1)
			if e.on != v {
				// served over another graph than it was built over (a fork
				// and its parent): the indexes it reads are built there too
				ensureSeedIndexes(v, c.CP, bound, c.Filters)
				p.groupCutsLocked(v, p.groupOf[ri])
				e.on = v
			}
			return e
		}
		p.invalidations.Add(1)
	} else {
		p.misses.Add(1)
	}
	pl := costPlan(v, c.CP, bound, c.Filters, p.groupCutsLocked(v, p.groupOf[ri]))
	e := &cachedPlan{p: pl, churnAt: churn, on: v}
	p.cache[key] = e
	return e
}

// groupCutsLocked builds the edge-value indexes the cuts of group gi's
// rules read (plan time, like the attribute indexes costPlan builds) and
// lists the (bound, free) slot pairs of the cuts whose band could hold
// their index's span: the planner binds a bound side early when that is
// cheap, so the cut runs before the scans it removes. A cut that can never
// fire leaves the plan as it would be without it.
func (p *Program) groupCutsLocked(v *graph.Graph, gi int) []cutSlots {
	var cs []cutSlots
	for _, ri := range p.groups[gi].rules {
		for i := range p.compiled[ri].Cuts {
			cut := &p.compiled[ri].Cuts[i]
			if ix := v.EnsureEdgeValIndex(cut.Label, cut.Band.FreeAttr, cut.BySrc); ix != nil && cut.fits(ix) {
				cs = append(cs, cutSlots{bound: cut.Band.Bound, free: cut.Band.Free})
			}
		}
	}
	return cs
}

// threshold resolves the churn drift threshold for the current graph size.
func (p *Program) threshold(v *graph.Graph) uint64 {
	if p.opts.ChurnThreshold > 0 {
		return p.opts.ChurnThreshold
	}
	t := uint64(v.NumNodes()+v.NumEdges()) / 8
	if t < 1024 {
		t = 1024
	}
	return t
}

// ForPattern builds a one-shot, cost-ordered plan for a bare compiled
// pattern with no rule attached (no filters, no cache) — the entry point
// for pattern matching outside detection (the reasoner's witness search).
func ForPattern(v *graph.Graph, cp *pattern.Compiled) *match.Plan {
	return costPlan(v, cp, nil, nil, nil)
}

// boundSig canonicalizes a bound-slot set into a cache-key string. Runs on
// every PlanFor — one string allocation, stack scratch otherwise.
func boundSig(bound []int) string {
	if len(bound) == 0 {
		return ""
	}
	var sbuf [16]int
	var s []int
	if len(bound) <= len(sbuf) {
		s = sbuf[:len(bound)]
		copy(s, bound)
	} else {
		s = append([]int(nil), bound...)
	}
	sort.Ints(s)
	var bbuf [96]byte
	b := bbuf[:0]
	for i, x := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

// patternKey canonicalizes a compiled pattern's structure: node labels in
// index order plus edges as (src, dst, label) triples in index order. Two
// patterns with equal keys are interchangeable for matching (variable names
// play no role at this layer).
func patternKey(cp *pattern.Compiled) string {
	var b strings.Builder
	for _, l := range cp.NodeLabels {
		fmt.Fprintf(&b, "n%d;", l)
	}
	for i, e := range cp.Src.Edges {
		fmt.Fprintf(&b, "e%d-%d-%d;", e.Src, e.Dst, cp.EdgeLabels[i])
	}
	return b.String()
}

// filterKey canonicalizes candidate filters: per node, the sorted predicate
// set. Rules with equal pattern and filter keys generate identical candidate
// streams and can share plans and prefix enumeration.
func filterKey(f match.Filters) string {
	if f == nil {
		return "-"
	}
	var b strings.Builder
	for node := range f {
		preds := make([]string, len(f[node].Preds))
		for i := range f[node].Preds {
			preds[i] = predKey(&f[node].Preds[i])
		}
		sort.Strings(preds)
		fmt.Fprintf(&b, "f%d[%s];", node, strings.Join(preds, ","))
	}
	return b.String()
}

// predKey canonicalizes one candidate predicate.
func predKey(pr *match.AttrPred) string {
	if pr.IsStr {
		return fmt.Sprintf("%d#%d#s:%q", pr.Attr, pr.Op, pr.Const)
	}
	return fmt.Sprintf("%d#%d#n:%s", pr.Attr, pr.Op, pr.Const)
}
