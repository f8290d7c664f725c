package inc

import (
	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/plan"
)

// This file answers "what does this change do to Vio(Σ, G)?" for a caller
// that holds Vio(Σ, G): an edge deletion is looked up in the store (Minus),
// an attribute change re-evaluates what the store posts under the touched
// nodes and searches from them (Attr), and a node pinned at one pattern slot
// is searched from (Seeded). The session's commit and the repair preview
// both call these; they differ only in what they do with each violation
// emitted — the commit changes its store, the preview lists keys.

// Store is the read view of a violation store Vio(Σ, G) the reconciliations
// work against (the session's snapshot). Posting lists the records of the
// stored violations whose match binds n, in ascending canonical-key order,
// each violation beside its key so a caller keeps or drops an entry
// without deriving the key. The slice is the store's own: read it, never
// write it.
type Store interface {
	Has(key string) bool
	Posting(n graph.NodeID) []*core.Keyed
}

// Minus reads ΔVio⁻ of the edge deletions del off st, which must be
// Vio(Σ, G) before them: the stored violations whose match maps a pattern
// edge onto a deleted edge. Such a match binds both endpoints, so it is
// posted under both, and the shorter posting is the one walked. Exact
// because a deleted edge can only kill the matches that use it; the graph is
// never read. emit sees each such violation with its key, once per deleted
// edge it uses. Minus returns the number of posting entries examined.
func Minus(st Store, prog *plan.Program, del []graph.EdgeOp, emit func(key string, v core.Violation)) (looked int) {
	for _, op := range del {
		p := st.Posting(op.Src)
		if q := st.Posting(op.Dst); len(q) < len(p) {
			p = q
		}
		looked += len(p)
		for _, k := range p {
			if prog.CompiledFor(k.Rule).UsesEdge(k.Match, op.Src, op.Dst, op.Label) {
				emit(k.Key, k.Violation)
			}
		}
	}
	return looked
}

// Attr reconciles st, Vio(Σ, G), with attribute changes at the nodes
// touched; v is G with the changes made. Topology is unchanged, so only a
// match binding a touched node can change status. gone sees each violation
// posted under a touched node that v no longer violates, once per touched
// node it binds. found sees each violating match of v that binds a touched
// node, stored or not, once per (touched node, slot) that reaches it: the
// searches are Seeded's, in Σ and slot order. opts.Program must be set. v
// may be a fork of the graph the program plans for (the repair preview): a
// plan is valid over any fork, because seed runs resolve at match time
// against the matcher's graph, whose indexes are its own.
// Attr returns the searches' work counters.
func Attr(v *graph.Graph, rules *core.Set, st Store, touched []graph.NodeID, opts Options,
	gone func(key string, v core.Violation), found func(*core.NGD, core.Match)) (work match.Counters) {
	for _, n := range touched {
		for _, k := range st.Posting(n) {
			if !opts.Program.CompiledFor(k.Rule).Violated(v, k.Match) {
				gone(k.Key, k.Violation)
			}
		}
	}
	emit := func(r *core.NGD, m core.Match) bool {
		found(r, m)
		return true
	}
	for _, r := range rules.Rules {
		for slot := range r.Pattern.Nodes {
			work.Add(Seeded(v, r, slot, touched, opts, emit))
		}
	}
	return work
}

// Seeded searches the violations of r over v that bind a node of seeds at
// pattern slot slot: one pre-bound search per seed that the slot's label
// admits and whose self-loops at the slot v holds (match.VerifyBound). The
// chain is asked of opts.Program, which must be set, once, at the first
// seed searched. emit sees r and each violating match, valid only during
// the call. Seeded returns the searches' work counters.
func Seeded(v *graph.Graph, r *core.NGD, slot int, seeds []graph.NodeID, opts Options, emit func(*core.NGD, core.Match) bool) (work match.Counters) {
	if len(r.Y) == 0 {
		return work // X → ∅ can never be violated
	}
	c := opts.Program.CompiledFor(r)
	var partial []graph.NodeID
	var s *detect.Searcher
	for _, n := range seeds {
		if !c.CP.NodeMatches(slot, v.Label(n)) {
			continue
		}
		if partial == nil {
			partial = match.NewPartial(len(r.Pattern.Nodes))
		}
		partial[slot] = n
		if match.VerifyBound(v, c.CP, partial) {
			if s == nil {
				s = opts.searcher(v, r, []int{slot}, detect.SlotKey(r, slot))
			}
			work.Add(s.Run(partial, emit))
		}
		partial[slot] = match.Unbound
	}
	return work
}
