// Package session implements continuous detection sessions: the stateful
// serving layer the batch and incremental algorithms plug into. A Session
// owns a graph G and a rule set Σ, commits batch updates ΔG in place with
// graph.(*Graph).Apply, and keeps the violation store Vio(Σ, G) live across
// commits instead of re-running batch detection. The paper's incremental
// problem (§6.1) hands the algorithm Vio(Σ, G) along with ΔG, and the session
// holds exactly that: ΔVio⁻ is read off the store by inc.Minus (the
// violations posted under a deleted edge's endpoints whose match uses the
// edge), ΔG is applied, and only ΔVio⁺ is searched, by inc.Plus on G′
// itself. That is the one commit path; the parallel detectors of
// internal/par are offline tools. What a change does to the store is
// internal/inc's to say (inc.Minus, inc.Plus, inc.Attr, inc.Seeded); the
// session decides only what its store keeps.
//
// Store invariant: after every Commit the store equals Dect(Σ, G) on the
// committed graph, keyed by canonical violation identity (core.Violation.Key).
// The ΔVio⁻ lookup is derived from the invariant, so nothing re-establishes a
// missed removal: Recheck audits it, differential_test.go enforces it against
// all four detectors on seeded update streams and the lookup against
// inc.IncDect's searched ΔVio⁻, FuzzCommitSequence on arbitrary batches.
//
// Each batch is coalesced before pivot generation — duplicate unit updates
// dedupe (last op per edge wins), insert+delete pairs annihilate, and ops
// without effect on G (re-inserting a present edge, deleting an absent one)
// are elided — so the incremental detectors and the commit see the minimal
// normalized ΔG.
//
// Node arrivals are allowed between commits (a new entity lands with its
// attribute star before its edges do; see gen.RandomDelta): Commit absorbs
// nodes added since the previous commit. Update-driven pivots are
// edge-only, so the one match shape they can never see is a new node bound
// to an *isolated* pattern node (a pattern node with no incident pattern
// edges — the whole pattern for single-node rules, one cross-product
// component for disconnected patterns); Commit searches those matches
// directly from the arriving nodes.
package session

import (
	"fmt"
	"slices"
	"time"

	"ngd/internal/analyze"
	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/par"
	"ngd/internal/plan"
)

// Options configure a detection session.
type Options struct {
	// Par is read by nothing: every commit takes the one sequential path.
	//
	// Deprecated: the session has no parallel route; the field is kept only
	// so that callers setting it still compile.
	Par par.Options
	// Plan configures the session's shared rule program (the plan-cache
	// churn threshold; the zero value picks it automatically).
	Plan plan.Options
	// Analyze configures the Σ admission pass run at construction. The
	// zero value minimizes: unviolable rules (∅ ⊨ φ — no graph can violate
	// them) are dropped before the program is compiled, which preserves
	// Vio(Σ, G) exactly for every G while shrinking what every detector
	// and plan pays for. Only Analyze.NoMinimize is read: set it to keep
	// the full Σ. Dropped rule names are reported by DroppedRules.
	Analyze analyze.Options
}

// BatchStats reports what one Commit did.
type BatchStats struct {
	Batch  int // 1-based commit sequence number
	RawOps int // |ΔG| as submitted
	Ops    int // after coalescing (dedupe + annihilation + no-op elision)

	Inserted  int // edges committed into G
	Deleted   int // edges removed from G
	Compacted int // adjacency pages compacted by the commit
	NewNodes  int // nodes absorbed (arrived on G since the previous commit)

	// AttrOps / AttrSets count the batch's attribute ops as submitted and
	// after coalescing (last op per (node, attr) wins, no-ops elided);
	// AttrPlus / AttrMinus count the violations the attribute reconciliation
	// pass added and removed (already folded into Event and StoreSize).
	AttrOps, AttrSets   int
	AttrPlus, AttrMinus int

	// Plus counts the violations of ΔVio⁺ the commit added to the store.
	// Minus counts the violations the commit took out of it for ΔVio⁻: the
	// ones the lookup over the deleted edges' postings removed.
	Plus, Minus int
	// Absorbed counts violations added by the arriving-node searches
	// (isolated pattern slots), so the store-size delta always accounts:
	// StoreSize == previous + Absorbed + Plus − Minus.
	Absorbed int
	// Looked is the number of posting entries the ΔVio⁻ lookup examined: per
	// deleted edge, the shorter of its two endpoints' postings. A deleted
	// edge at a hub whose other endpoint is as busy shows up here.
	Looked int
	// Pivots is the number of insertion pivots expanded: deletions expand
	// none. A clone class (plan.Class) expands its pivots once, however many
	// rules it answers for.
	Pivots int
	// PlanHits / PlanMisses / PlanInvalidations report this batch's plan
	// cache traffic: plans served from the shared program's cache, plans
	// compiled fresh, and cached plans discarded for stats drift. A warm
	// serving session commits whole batches with zero misses — that is the
	// point of the shared program layer.
	PlanHits, PlanMisses, PlanInvalidations int64
	// SharedRules is the number of rules riding a shared matching prefix
	// in the program's latest batch forest (level gauge, not a delta).
	SharedRules int64
	// Cuts is the number of branches the ¬Y cut pruned in the commit's
	// searches: ΔVio⁺, arrivals and the attribute pass (plan.Cut).
	Cuts int
	// Cost is the batch's deterministic detection cost: the work units
	// (candidates + checks) of the ΔVio⁺ search plus Looked. A clone class's
	// search counts once.
	Cost float64
	// StoreSize is |Vio(Σ, G)| after the commit.
	StoreSize int
	// Laps splits the commit's wall time by stage, and Wall is that time:
	// both read one monotonic clock, so the laps sum to Wall exactly.
	// Nanoseconds in JSON.
	Laps Laps
	Wall time.Duration
	// Event is the commit's reconciled violation delta (the actual ΔVio⁺/
	// ΔVio⁻ sets, not just the counts above). Excluded from JSON: /stats
	// reports counts; the sets travel on the change feed.
	Event *CommitEvent `json:"-"`
	// LogErr is the error returned by the commit hook (write-ahead logging;
	// see SetCommitHook), nil when no hook is installed or the append
	// succeeded. The commit itself still completes: in-memory state stays
	// consistent, only durability of this batch is in doubt. Excluded from
	// JSON, which renders most errors as {}: the message reaches /stats as
	// durability_error (see serve.Options.DurabilityErr).
	LogErr error `json:"-"`
}

// Laps holds the stages of one CommitBatch, in the order it runs them. A
// stage with nothing to do (no hook installed, no deletions, no attribute
// ops) still takes its lap, of the few nanoseconds it spends finding that
// out.
type Laps struct {
	Coalesce time.Duration // normalize ΔG and the attribute ops
	WAL      time.Duration // the commit hook (write-ahead append)
	Lookup   time.Duration // ΔVio⁻ read off the postings (inc.Minus)
	Apply    time.Duration // ΔG committed into G
	Absorb   time.Duration // arriving nodes' isolated-slot searches
	Plus     time.Duration // the ΔVio⁺ search (inc.Plus) and its store adds
	Attr     time.Duration // attribute ops applied and reconciled
	Publish  time.Duration // the next snapshot and the commit event
}

// lapClock times consecutive stages on the monotonic clock: each lap ends
// where the next begins, so the laps of one clock add up to its wall time.
type lapClock struct{ start, last time.Time }

func startLaps() lapClock {
	now := time.Now()
	return lapClock{start: now, last: now}
}

// lap ends the running stage and returns its length.
func (c *lapClock) lap() time.Duration {
	now := time.Now()
	d := now.Sub(c.last)
	c.last = now
	return d
}

// wall is the time from the start to the end of the last lap.
func (c *lapClock) wall() time.Duration { return c.last.Sub(c.start) }

// CommitEvent is the reconciled violation delta of one commit: exactly the
// change a subscriber must apply to the previous epoch's violation set to
// obtain this epoch's — store(Epoch) = store(Epoch−1) − Removed + Added.
// Added (ΔVio⁺ and the arriving-node searches' finds) holds the records
// the store now keeps, Removed the ones it held; both are sorted by key and
// deduplicated against the store, so replaying events in epoch order is a
// faithful differential stream. An event is immutable and may alias the
// snapshot's storage.
type CommitEvent struct {
	Epoch          int
	Added, Removed []*core.Keyed
}

// CommitHook observes every commit before it mutates the graph: it receives
// the owned graph, the normalized ΔG about to be applied, the normalized
// attribute ops riding the batch (nil on the pure edge path), and the
// half-open range [newFrom, newTo) of nodes that arrived on the graph since
// the previous commit (their labels and attributes are already set and
// readable from g). internal/store installs its write-ahead log appender
// here, so a batch is durable before the in-place Apply makes it visible.
type CommitHook func(g *graph.Graph, norm *graph.Delta, attrs []graph.AttrOp, newFrom, newTo graph.NodeID) error

// Session is a continuous detection session over an owned graph.
//
// A Session is not safe for concurrent use; Commit mutates the owned graph.
// Between commits the graph may gain nodes (with attributes) externally,
// but edge mutations must go through Commit or the store invariant breaks.
// Concurrent *serving* is layered on top via Snapshot: the single writer
// commits and publishes immutable epoch snapshots that readers consume
// without any locking (see internal/serve for the HTTP daemon doing this).
type Session struct {
	g     *graph.Graph
	rules *core.Set
	// dropped names the rules removed by the admission pass (unviolable
	// rules; see Options.Analyze), in Σ order.
	dropped []string

	// prog is the session's shared rule program: Σ compiled once, matching
	// plans cached across commits, shared prefixes arranged once. Every
	// search the session runs — the seeding Dect, the per-batch inc.Plus, the
	// absorption and attribute searches — draws plans from it.
	prog *plan.Program

	// search is what every inc call of the session runs with: prog, and a
	// cache that reuses pre-bound violation searchers across commits (the
	// same (rule, slot) searches fire every batch, and rebuilding their
	// matchers and literal schedules dominated steady-state allocations).
	// The repair preview runs with it too.
	search inc.Options

	// snap is the violation set as of the last commit (see Snapshot).
	// Between commits it is the whole store; during one, the store is snap
	// plus the commit's net delta so far: added holds violations the commit
	// found that snap lacks, removed the records of snap it cleared (a
	// violation added and then cleared again, or the reverse, is in
	// neither). Both are empty outside CommitBatch, which ends by advancing
	// snap with them.
	snap    *Snapshot
	added   map[string]core.Violation
	removed map[string]*core.Keyed
	// edgeRules (patterns with ≥1 edge) produce update pivots and go to the
	// incremental detectors; isoRules additionally need the arriving-node
	// searches of absorbNewNodes.
	edgeRules *core.Set
	isoRules  []isoRule

	// hook, when set, logs each batch before the in-place Apply (write-ahead
	// logging for durable serving; see SetCommitHook).
	hook CommitHook

	seenNodes int
	commits   int
}

// isoRule is a rule whose pattern has isolated nodes (no incident pattern
// edges); slots lists their indices in ascending order. An arriving node
// bound to such a slot creates matches that use no inserted edge, which
// the edge-driven pivots cannot discover.
type isoRule struct {
	rule  *core.NGD
	slots []int
}

// New opens a session over g and rules, seeding the store with a full
// batch detection run (Dect).
func New(g *graph.Graph, rules *core.Set, opts Options) *Session {
	s := newSession(g, rules, opts)
	vios := detect.Dect(g, s.rules, detect.Options{Program: s.prog}).Violations
	s.snap = newSnapshot(vios, g.NumNodes(), g.NumEdges())
	return s
}

// Restore opens a session over g with a trusted, previously computed
// violation store instead of paying a seeding detection run. It is the
// recovery path of internal/store: the violations come from a snapshot
// whose invariant (store ≡ Dect(Σ, G) at capture) was maintained by the
// session that wrote it, so re-deriving them would be pure waste — this is
// what makes recovery delta-proportional. Callers handing Restore anything
// other than a faithfully persisted store get a session whose invariant is
// broken from the start (Recheck will say so).
func Restore(g *graph.Graph, rules *core.Set, vios []core.Violation, opts Options) *Session {
	s := newSession(g, rules, opts)
	s.snap = newSnapshot(vios, g.NumNodes(), g.NumEdges())
	return s
}

// newSession builds the common session state: rule classification (edge
// rules vs isolated-slot rules) and the node watermark. The store is unset;
// New seeds it with a detection run, Restore from persisted violations.
func newSession(g *graph.Graph, rules *core.Set, opts Options) *Session {
	var dropped []string
	if !opts.Analyze.NoMinimize {
		// Σ admission: drop unviolable rules (∅ ⊨ φ) before compiling the
		// program. Vio-preserving — such a rule contributes no violation in
		// any graph — so the store invariant is stated against the same set
		// every detector now sees.
		rules, dropped = analyze.MinimizeUnviolable(rules)
	}
	internSymbols(g.Symbols(), rules)
	prog := plan.New(g, rules, opts.Plan)
	s := &Session{
		g:         g,
		rules:     rules,
		dropped:   dropped,
		prog:      prog,
		search:    inc.Reusing(prog),
		added:     make(map[string]core.Violation),
		removed:   make(map[string]*core.Keyed),
		edgeRules: core.NewSet(),
	}
	for _, r := range rules.Rules {
		if len(r.Pattern.Edges) > 0 {
			s.edgeRules.Add(r)
		}
		touched := make([]bool, len(r.Pattern.Nodes))
		for _, e := range r.Pattern.Edges {
			touched[e.Src], touched[e.Dst] = true, true
		}
		var slots []int
		for i := range r.Pattern.Nodes {
			if !touched[i] {
				slots = append(slots, i)
			}
		}
		if len(slots) > 0 {
			s.isoRules = append(s.isoRules, isoRule{rule: r, slots: slots})
		}
	}
	s.seenNodes = g.NumNodes()
	return s
}

// internSymbols interns every label and attribute name Σ mentions into the
// graph's symbol table. The program compiles Σ once, resolving names to ids;
// a name the graph has not seen yet would compile to "unmatchable" and stay
// so for the session's lifetime, even after a later batch introduces it.
// Interning first makes the ids stable before the first element carrying
// them arrives.
func internSymbols(syms *graph.Symbols, rules *core.Set) {
	attr := func(_, a string) { syms.Attr(a) }
	for _, r := range rules.Rules {
		for _, n := range r.Pattern.Nodes {
			syms.Label(n.Label)
		}
		for _, e := range r.Pattern.Edges {
			syms.Label(e.Label)
		}
		for _, lits := range [][]core.Literal{r.X, r.Y} {
			for _, l := range lits {
				l.L.Terms(attr)
				l.R.Terms(attr)
			}
		}
	}
}

// SetCommitHook installs (or, with nil, removes) the hook Commit invokes
// with each batch before mutating the graph. internal/store uses it to
// append the batch to the write-ahead log; installing it after recovery
// replay (rather than before) is what keeps replayed batches from being
// re-logged.
func (s *Session) SetCommitHook(h CommitHook) { s.hook = h }

// Close does nothing: a session owns no goroutine and holds nothing that
// needs releasing.
//
// Deprecated: there is nothing to close; the method is kept only so that
// callers invoking it still compile.
func (s *Session) Close() {}

// Graph exposes the owned graph (read it freely; mutate edges only via
// Commit).
func (s *Session) Graph() *graph.Graph { return s.g }

// Rules exposes Σ as the session runs it (after admission minimization).
func (s *Session) Rules() *core.Set { return s.rules }

// DroppedRules names the rules the admission pass removed at construction
// (unviolable rules), in the original Σ order; nil when nothing dropped.
func (s *Session) DroppedRules() []string { return s.dropped }

// Len reports the live store size |Vio(Σ, G)|.
func (s *Session) Len() int { return s.snap.Len() + len(s.added) - len(s.removed) }

// Commits reports how many batches have been committed.
func (s *Session) Commits() int { return s.commits }

// Has reports whether the store holds a violation with the given canonical
// key: two map probes into the running commit's delta (both maps are empty
// between commits), then two binary searches of the last snapshot.
func (s *Session) Has(key string) bool {
	if _, ok := s.added[key]; ok {
		return true
	}
	if _, ok := s.removed[key]; ok {
		return false
	}
	return s.snap.Has(key)
}

// add puts v, keyed k, into the store and reports whether it was new.
func (s *Session) add(k string, v core.Violation) bool {
	if _, ok := s.removed[k]; ok {
		delete(s.removed, k) // cleared earlier in this commit: snap's again
		return true
	}
	if _, ok := s.added[k]; ok || s.snap.Has(k) {
		return false
	}
	s.added[k] = v
	return true
}

// remove takes the violation keyed k out of the store and reports whether
// the store held it.
func (s *Session) remove(k string) bool {
	if _, ok := s.added[k]; ok {
		delete(s.added, k) // found earlier in this commit: never published
		return true
	}
	if _, ok := s.removed[k]; ok {
		return false
	}
	rec := s.snap.record(k)
	if rec == nil {
		return false
	}
	s.removed[k] = rec
	return true
}

// Violations returns the live store sorted by canonical key. The slice is
// the caller's to keep.
func (s *Session) Violations() []core.Violation {
	return s.snap.Violations()
}

// Snapshot returns the immutable view of the current epoch. CommitBatch
// derives it from the previous epoch's, so the call costs nothing and the
// sizes it reports (Nodes, Edges) are those of the commit, not of the call.
// The session's single-writer contract still holds — Snapshot must be
// called from the same goroutine as Commit — but the *returned* snapshot may
// be handed to any number of concurrent readers.
func (s *Session) Snapshot() *Snapshot { return s.snap }

// Program exposes the session's shared rule program. It is rebuilt from Σ
// on every session open (including recovery) and never persisted.
func (s *Session) Program() *plan.Program { return s.prog }

// PlanStats snapshots the program's cumulative plan-cache counters. Safe
// from any goroutine (the serving layer reports it under /stats while the
// writer commits).
func (s *Session) PlanStats() plan.Counters { return s.prog.Counters() }

// Commit coalesces ΔG, takes ΔVio⁻ out of the store, commits ΔG into G in
// place, and adds the ΔVio⁺ it finds on G′. A nil or empty delta still
// absorbs externally arrived nodes.
func (s *Session) Commit(d *graph.Delta) BatchStats {
	return s.CommitBatch(d, nil)
}

// CommitBatch is Commit extended with attribute ops: after the edge delta
// commits, each op sets one attribute of one node, and the store is
// reconciled against the attribute changes — matches binding a retyped node
// are re-evaluated, and newly violating matches that bind it are searched
// with pre-bound plans. Attribute ops cannot change the graph's topology,
// so only matches binding a touched node can change status; the pass
// restores store ≡ Dect(Σ, G') exactly. The repair engine's apply path
// commits its attribute fixes through here, making them ordinary batches in
// the eyes of the WAL, the change feed and the snapshot's postings.
func (s *Session) CommitBatch(d *graph.Delta, attrs []graph.AttrOp) BatchStats {
	clock := startLaps()
	s.commits++
	st := BatchStats{Batch: s.commits}
	if d == nil {
		d = &graph.Delta{}
	}
	st.RawOps = d.Len()
	st.AttrOps = len(attrs)

	// coalesce once: dedupe, annihilate, drop ineffective ops
	norm := d.Normalize(s.g)
	st.Ops = norm.Len()
	attrs = graph.NormalizeAttrOps(s.g, attrs)
	st.AttrSets = len(attrs)
	planBefore := s.prog.Counters()
	st.NewNodes = s.g.NumNodes() - s.seenNodes
	st.Laps.Coalesce = clock.lap()

	// write-ahead: log the normalized batch (plus the arriving-node range)
	// before the store or the graph changes, so a crash at any later point
	// replays to exactly this commit's outcome
	if s.hook != nil {
		st.LogErr = s.hook(s.g, norm, attrs, graph.NodeID(s.seenNodes), graph.NodeID(s.g.NumNodes()))
	}
	st.Laps.WAL = clock.lap()

	// ΔVio⁻ is read off the last snapshot (exact: it is Vio(Σ, G) until ΔG
	// commits, and a normalized ΔG deletes no edge it also inserts); ΔG
	// commits; ΔVio⁺ is searched on G′ itself. Arrivals are absorbed on G′ too: an arriving node binds an
	// isolated slot whatever the edges are, and the rest of such a match is a
	// match of G′.
	st.Looked = inc.Minus(s.snap, s.prog, norm.Deletions(), func(k string, _ core.Violation) {
		// a violation using two deleted edges is removed by the first
		if s.remove(k) {
			st.Minus++
		}
	})
	st.Cost = float64(st.Looked)
	st.Laps.Lookup = clock.lap()
	ap := s.g.Apply(norm)
	st.Inserted, st.Deleted, st.Compacted = ap.Inserted, ap.Deleted, ap.Compacted
	st.Laps.Apply = clock.lap()
	st.Absorbed, st.Cuts = s.absorbNewNodes()
	st.Laps.Absorb = clock.lap()
	if ins := norm.Insertions(); len(ins) > 0 {
		r := inc.Plus(s.g, s.edgeRules, ins, s.search)
		st.Pivots = r.Pivots
		st.Cost += float64(r.Counters.Candidates + r.Counters.Checks)
		st.Cuts += r.Counters.Cuts
		// only *effective* store changes are counted and reach the event: a
		// ΔVio⁺ key the store already holds (an absorbed arrival's match
		// that also uses an inserted edge) is not echoed
		for _, v := range r.Plus {
			if s.add(v.Key(), v) {
				st.Plus++
			}
		}
	}

	planNow := s.prog.Counters().Sub(planBefore)
	st.PlanHits, st.PlanMisses = planNow.Hits, planNow.Misses
	st.PlanInvalidations, st.SharedRules = planNow.Invalidations, planNow.SharedRules
	st.Laps.Plus = clock.lap()

	// commit the attribute ops and reconcile the store against them (on the
	// post-Apply graph, so the pass sees the batch's final attribute *and*
	// edge state)
	if len(attrs) > 0 {
		var cuts int
		st.AttrPlus, st.AttrMinus, cuts = s.applyAttrOps(attrs)
		st.Cuts += cuts
	}
	st.Laps.Attr = clock.lap()

	st.Event = s.publish()
	st.StoreSize = s.snap.Len()
	st.Laps.Publish = clock.lap()
	st.Wall = clock.wall()
	return st
}

// applyAttrOps commits normalized attribute ops into G and reconciles the
// store with inc.Attr: stored violations binding a touched node are
// re-evaluated, and new ones are found by searches seeded at each touched
// node for every slot it can occupy. The store's Has-guard dedupes a match
// reachable from several touched nodes or slots.
func (s *Session) applyAttrOps(attrs []graph.AttrOp) (plus, minus, cuts int) {
	touchedSet := graph.AcquireNodeSet(s.g.NumNodes())
	defer graph.ReleaseNodeSet(touchedSet)
	touched := make([]graph.NodeID, 0, len(attrs))
	s.g.ApplyAttrs(attrs)
	for _, op := range attrs {
		if touchedSet.Add(op.Node) {
			touched = append(touched, op.Node)
		}
	}

	gone := func(k string, _ core.Violation) {
		if s.remove(k) {
			minus++
		}
	}
	// the violations this commit found before the attribute phase are not
	// posted yet: re-evaluate them all (added is small); inc.Attr covers the
	// last epoch's
	for k, v := range s.added {
		if !s.prog.CompiledFor(v.Rule).Violated(s.g, v.Match) {
			gone(k, v)
		}
	}
	work := inc.Attr(s.g, s.rules, s.snap, touched, s.search, gone, func(r *core.NGD, m core.Match) {
		vio := core.Violation{Rule: r, Match: m.Clone()}
		if s.add(vio.Key(), vio) {
			plus++
		}
	})
	return plus, minus, work.Cuts
}

// absorbNewNodes finds the violating matches that bind a node added since
// the previous commit to an isolated pattern slot, and advances the node
// watermark. Each arriving node seeds a pre-bound violation search
// (inc.Seeded; the rest of the pattern — other isolated slots, disconnected
// edge components — expands as usual); a match binding several arriving
// nodes at isolated slots is emitted exactly once, by its smallest such
// slot. Arriving nodes cannot extend any *old* match (they had no edges
// before this commit, and isolated slots bind every candidate
// independently), so only the seeded searches are needed; a match through
// an arriving node at any other slot uses an inserted edge and is ΔVio⁺'s to
// find. Commit absorbs after Apply, on G′, so a match that also uses an
// inserted edge is found here first and not counted again under Plus. It
// returns how many violations it added to the store.
func (s *Session) absorbNewNodes() (absorbed, cuts int) {
	n := s.g.NumNodes()
	lo := s.seenNodes
	s.seenNodes = n
	if n == lo || len(s.isoRules) == 0 {
		return 0, 0
	}
	arrivals := make([]graph.NodeID, 0, n-lo)
	for v := lo; v < n; v++ {
		arrivals = append(arrivals, graph.NodeID(v))
	}
	for _, ir := range s.isoRules {
		for _, slot := range ir.slots {
			work := inc.Seeded(s.g, ir.rule, slot, arrivals, s.search, func(_ *core.NGD, m core.Match) bool {
				for _, s2 := range ir.slots {
					if s2 == slot {
						break
					}
					if int(m[s2]) >= lo {
						return true // a smaller isolated slot owns this match
					}
				}
				vio := core.Violation{Rule: ir.rule, Match: m.Clone()}
				if s.add(vio.Key(), vio) {
					absorbed++
				}
				return true
			})
			cuts += work.Cuts
		}
	}
	return absorbed, cuts
}

// publish ends a commit. added and removed hold its *net* store change (a
// violation the edge phase adds and the attribute phase then clears, or
// vice versa, is in neither), so the event is an exact differential of the
// epoch's store and the next snapshot is the last one advanced by it.
//
// Each added violation becomes its record here, the one the store keeps; a
// removed one is named by the record the last epoch stored.
func (s *Session) publish() *CommitEvent {
	add, del := make(run, 0, len(s.added)), make(run, 0, len(s.removed))
	for k, v := range s.added {
		add = append(add, &core.Keyed{Key: k, Violation: v})
	}
	for _, rec := range s.removed {
		del = append(del, rec)
	}
	slices.SortFunc(add, (*core.Keyed).Cmp)
	slices.SortFunc(del, (*core.Keyed).Cmp)
	clear(s.added)
	clear(s.removed)
	s.snap = s.snap.advance(add, del, s.g.NumNodes(), s.g.NumEdges())
	return &CommitEvent{Epoch: s.commits, Added: add, Removed: del}
}

// Recheck audits the store invariant store ≡ Dect(Σ, G) with a from-scratch
// batch run, returning the first divergence found (nil when consistent).
// It costs a full Dect: a self-audit for tests and debugging, not part of
// the per-batch path. The invariant is guaranteed only at commit
// boundaries; nodes added since the last Commit are not yet absorbed.
func (s *Session) Recheck() error {
	fresh := detect.VioKeySet(detect.Dect(s.g, s.rules, detect.Options{Program: s.prog}).Violations)
	for k := range fresh {
		if !s.snap.Has(k) {
			return fmt.Errorf("session: store missing violation %s", k)
		}
	}
	for k := range s.snap.All().Records() {
		if _, ok := fresh[k.Key]; !ok {
			return fmt.Errorf("session: store holds stale violation %s", k.Key)
		}
	}
	return nil
}
