// Package par implements the parallel detection algorithms of the paper:
// PDect (parallel batch, §5.1) and PIncDect (parallel incremental, §6.3)
// with the hybrid workload-balancing strategy — cost-estimation-based work
// unit splitting plus periodic skew-based redistribution — and its ablation
// variants PIncDect_ns (no splitting), PIncDect_nb (no balancing) and
// PIncDect_NO (neither).
//
// One engine executes the work-unit semantics — a worker queue, a unit step
// (Limit drain, expansion, cost charging, child routing, tallies) and a
// monitoring round (run.go, balance.go) — and two schedulers decide which
// worker steps next:
//
//   - the goroutine scheduler (default; pool.go): p shard goroutines each
//     popping the back of their own queue, parked on a wake channel when it
//     is empty, plus a ticker that fires the monitoring round, for
//     wall-clock use. Long-lived callers (the session/serve layer) hand in
//     a persistent Pool so the shard goroutines survive across calls; every
//     other run borrows a temporary pool that is closed before it returns.
//
//   - the virtual scheduler (Options.Virtual; virtual.go): a deterministic
//     discrete-event loop that always steps the worker whose front unit can
//     start earliest and fires the monitoring round every Intvl cost units.
//     Per-unit costs are the real adjacency scans and edge checks
//     performed, plus a fixed communication latency per broadcast/transfer.
//     It reports the simulated makespan (max worker clock), which
//     reproduces the paper's relative curves — speedup vs p, the U-shaped
//     optima in C and intvl — independently of how many physical cores the
//     host has. (Substitution for the paper's 20-machine cluster; see
//     DESIGN.md.) It is the reference the shard runtime's differential
//     tests compare against: with the same options both schedulers expand
//     the exact same unit multiset, because the step they drive is the
//     same code.
//
// Both produce identical violation sets, equal to the sequential
// algorithms' output.
package par

import (
	"sort"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/match"
	"ngd/internal/partition"
	"ngd/internal/plan"
)

// Options configure the parallel engine.
type Options struct {
	// P is the number of workers ("processors"); default 4.
	P int
	// C is the communication-latency *parameter* of the split decision
	// (paper §6.3: split when C·(k+1) + |adj|/p < |adj|); default 60.
	C int
	// Intvl is the workload-monitoring interval in cost units (the paper's
	// intvl in seconds; at our bench scale 1s of the paper's wall clock
	// corresponds to ≈45 cost units, so the paper's 45s default maps to
	// 2000). Default 2000.
	Intvl float64
	// SplitUnits enables cost-based work-unit splitting (off = _ns).
	SplitUnits bool
	// Balance enables periodic redistribution (off = _nb).
	Balance bool
	// Virtual runs the deterministic virtual-time scheduler instead of the
	// goroutine shard runtime. The zero value — the default — is the
	// goroutine scheduler; the virtual one is the machine-independent
	// oracle used by differential tests and the fig4 cost-unit benchmarks.
	Virtual bool
	// Pool executes goroutine runs on a persistent shard pool (see NewPool).
	// Ignored by the virtual scheduler. With a nil, closed, or
	// differently-sized pool the run borrows a temporary NewPool(P) that is
	// closed before the call returns, so correctness never depends on pool
	// state and no goroutine outlives the call.
	Pool *Pool
	// AssumeNormalized skips PIncDect's internal Normalize pass; the caller
	// guarantees ΔG already has the normalized shape (see inc.Options).
	AssumeNormalized bool
	// Limit stops after this many violations *per side* — ΔVio⁺ and ΔVio⁻
	// each under PIncDect, matching inc.Options.Limit; a batch run (PDect)
	// has a single side, so there it is a total limit. 0 = unlimited; the
	// limit is approximate (a unit emits all its violations before the
	// check applies, and the goroutine scheduler races against it). Once a
	// side hits its limit, that side's remaining units are drained without
	// expansion but still accounted in Metrics.Units.
	Limit int
	// Part is a maintained partition to distribute PIncDect's seed pivots
	// with (see partition.Partition: built once, kept current with
	// Extend/Refine). When nil, PIncDect builds a fresh partition.Greedy
	// over the whole graph — correct, but O(|V|+|E|) per call; long-lived
	// sessions own a maintained partition instead (internal/session).
	Part *partition.Partition
	// Program is the shared rule program to plan with; nil builds a
	// private one per call. Long-lived callers (the session) pass their
	// own so every worker's task plans come from one compiled Σ and one
	// plan cache instead of a per-batch rebuild.
	Program *plan.Program
}

// program resolves the effective rule program for one run.
func (o Options) program(v graph.View, rules *core.Set) *plan.Program {
	if o.Program != nil {
		return o.Program
	}
	return plan.New(v, rules, plan.Options{})
}

// The constants of the simulated cluster and of the monitoring round that
// no experiment sweeps (fig4m/fig4n sweep only C and Intvl).
const (
	// trueLatency is the cost charged per broadcast or unit transfer — the
	// actual latency of the simulated cluster, as opposed to the estimate
	// Options.C, whose default equals it so that sweeping C brackets it.
	trueLatency = 60.0
	// eta is the skewness threshold above which a worker sheds load (paper:
	// η=3); etaLow the level below which workers accept load (η′=0.7).
	eta    = 3.0
	etaLow = 0.7
	// xferCPU is the CPU cost (in scan-entry units) of serializing or
	// deserializing one transferred work unit — a few dozen bytes, an order
	// of magnitude below the cost of expanding a typical unit.
	xferCPU = 0.1
)

// Defaults fills in zero fields (paper defaults: p=8 for parameter sweeps,
// C=60, intvl=45s; hybrid strategy on).
func (o Options) Defaults() Options {
	if o.P <= 0 {
		o.P = 4
	}
	if o.C <= 0 {
		o.C = 60
	}
	if o.Intvl <= 0 {
		o.Intvl = 2000
	}
	return o
}

// Hybrid returns the full PIncDect configuration (splitting + balancing).
func Hybrid(p int) Options {
	return Options{P: p, SplitUnits: true, Balance: true}.Defaults()
}

// VariantNS disables splitting (PIncDect_ns).
func VariantNS(p int) Options {
	o := Hybrid(p)
	o.SplitUnits = false
	return o
}

// VariantNB disables balancing (PIncDect_nb).
func VariantNB(p int) Options {
	o := Hybrid(p)
	o.Balance = false
	return o
}

// VariantNO disables both (PIncDect_NO).
func VariantNO(p int) Options {
	o := Hybrid(p)
	o.SplitUnits = false
	o.Balance = false
	return o
}

// Oracle returns the hybrid configuration pinned to the virtual-time
// scheduler: the deterministic discrete-event simulation used as the
// machine-independent reference by tests and the fig4 benchmarks.
func Oracle(p int) Options {
	o := Hybrid(p)
	o.Virtual = true
	return o
}

// Metrics summarize a parallel run. Every field means the same thing under
// both schedulers; under the goroutine scheduler the clocks advance by
// charged cost only (no idle time, and transfer latency is not waited for),
// and whatever depends on timing — Moved, BalanceEvents, the spread of
// WorkerCost — varies from run to run.
type Metrics struct {
	// Makespan is the parallel time in cost units: the largest worker clock.
	Makespan float64
	// TotalWork is the summed expansion cost of all units (scans, edge
	// checks, and the (de)serialization CPU of broadcast and transferred
	// units); the monitoring charges are on the clocks, not in here.
	TotalWork float64
	// Units is the number of work units processed; Splits how many
	// expansions were broadcast; Moved how many units rebalancing moved;
	// BalanceEvents how many monitoring rounds fired.
	Units, Splits, Moved, BalanceEvents int
	// NC is the candidate-neighborhood size |NC(ΔG, Σ)| (PIncDect only).
	NC int
	// WorkerCost is the final per-worker clock: the start-up charge, the
	// worker's expansion costs, and its monitoring and transfer charges
	// (skew diagnosis).
	WorkerCost []float64
}

// Result of a parallel run.
type Result struct {
	Violations []core.Violation // PDect: Vio(Σ,G)
	Delta      inc.DeltaVio     // PIncDect: (ΔVio⁺, ΔVio⁻)
	Metrics    Metrics
}

// task is one independent violation search: a rule over a view with a plan
// (batch: one per rule; incremental: one per rule × pivot slot × side).
type task struct {
	c    *plan.Compiled
	view graph.View
	plan *match.Plan
	le   *detect.LitEval
	plus bool // incremental: ΔVio⁺ side
	inc  bool // incremental task (pivot dedup applies)
}

// unit is a work unit: a partial solution awaiting expansion at plan step
// `depth` (paper: an element of BVio_i).
type unit struct {
	task      int
	depth     int
	ySat      int
	pivotRank int // -1 for batch units
	pivotSlot int
	partial   []graph.NodeID
	// ySatR is the per-rule literal state of a shared-forest unit, aligned
	// with its ShareNode.Rules (-1 = the rule pruned on this path); nil for
	// per-rule task units, whose state is the scalar ySat above. In forest
	// mode `task` indexes engine.snodes and `partial` holds the path
	// bindings in step order rather than pattern-node order.
	ySatR  []int
	lo, hi int     // candidate segment; (0,-1) = full list
	bcast  bool    // this unit is a broadcast share (charges latency)
	ready  float64 // time at which the unit is available (virtual scheduler)
	// xferCharge is the communication cost of a rebalancing transfer,
	// charged when the receiving worker processes the unit.
	xferCharge float64
}

type edgeKey struct {
	src, dst graph.NodeID
	label    graph.LabelID
}

// engine holds the immutable run state shared by workers.
type engine struct {
	opts   Options
	tasks  []task
	insIdx map[edgeKey]int
	delIdx map[edgeKey]int
	// matchers are per-worker per-task to keep counters race-free.
	matchers [][]*match.Matcher

	// estWidth/estBelow are the LiveStats-driven cost estimates, per task
	// per depth: estWidth[t][d] ≈ candidates scanned by step d of task t's
	// plan per expansion, estBelow[t][d] ≈ the expected scan cost of the
	// whole subtree under one candidate bound at d. nil when the view
	// carries no maintained statistics; splitting and balancing then fall
	// back to the paper's unweighted forms.
	estWidth [][]float64
	estBelow [][]float64

	// Shared-forest state (batch PDect under cross-rule sharing): when
	// share is non-nil the engine runs forest units — unit.task indexes
	// snodes — and the per-rule task fields above stay empty. See shared.go.
	share     *plan.Share
	snodes    []*plan.ShareNode
	nodeOf    map[*plan.ShareNode]int
	sles      []*detect.LitEval
	sview     graph.View
	sWidth    []float64          // per forest node: entering-step fan estimate
	sBelow    []float64          // per forest node: est cost below one candidate
	smatchers [][]*match.Matcher // per worker per share rule (lazy)
	spartials [][][]graph.NodeID // per worker per share rule scratch

	// ufree/pfree/yfree are per-worker freelists recycling work units and
	// their buffers (binding slices and forest literal state): a unit is
	// dropped right after its expansion, so step returns it to the expanding
	// worker and child units draw from the same lists. kids is the worker's
	// expandResult.children buffer, which step drains before the worker
	// expands again, and scur expandShared's per-candidate survival scratch.
	// Each is touched only while its worker steps (the virtual scheduler is
	// single-threaded), so no synchronization is needed — steady-state
	// fan-out allocates nothing.
	ufree [][]*unit
	pfree [][][]graph.NodeID
	yfree [][][]int
	kids  [][]*unit
	scur  [][]int
}

// initFree sizes the per-worker freelists and scratch.
func (e *engine) initFree() {
	e.ufree = make([][]*unit, e.opts.P)
	e.pfree = make([][][]graph.NodeID, e.opts.P)
	e.yfree = make([][][]int, e.opts.P)
	e.kids = make([][]*unit, e.opts.P)
	e.scur = make([][]int, e.opts.P)
}

// newUnit returns a unit from worker w's freelist holding whatever its last
// use left: the caller assigns a whole unit value.
func (e *engine) newUnit(w int) *unit {
	fl := e.ufree[w]
	if k := len(fl); k > 0 {
		e.ufree[w] = fl[:k-1]
		return fl[k-1]
	}
	return new(unit)
}

// newPartialBuf returns an uninitialized length-n binding buffer from worker
// w's freelist (undersized buffers are discarded — capacities converge to
// the deepest pattern within a few expansions).
func (e *engine) newPartialBuf(w, n int) []graph.NodeID {
	for {
		fl := e.pfree[w]
		k := len(fl)
		if k == 0 {
			return make([]graph.NodeID, n)
		}
		b := fl[k-1]
		e.pfree[w] = fl[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
}

// clonePartial copies src into a recycled buffer from worker w's freelist.
func (e *engine) clonePartial(w int, src []graph.NodeID) []graph.NodeID {
	b := e.newPartialBuf(w, len(src))
	copy(b, src)
	return b
}

// newYSatBuf returns an uninitialized length-n literal-state buffer from
// worker w's freelist (the forest unit counterpart of newPartialBuf).
func (e *engine) newYSatBuf(w, n int) []int {
	for {
		fl := e.yfree[w]
		k := len(fl)
		if k == 0 {
			return make([]int, n)
		}
		b := fl[k-1]
		e.yfree[w] = fl[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
}

// cloneYSat copies a forest unit's per-rule literal state the same way.
func (e *engine) cloneYSat(w int, src []int) []int {
	b := e.newYSatBuf(w, len(src))
	copy(b, src)
	return b
}

// recycle returns a consumed unit and its buffers to worker w's freelists.
// Only call once the unit is dropped — popped from its queue, so neither a
// queue nor the balancer still sees it — and expanded: emitted violations
// hold private copies, never aliases of unit buffers.
func (e *engine) recycle(w int, u *unit) {
	if u.partial != nil {
		e.pfree[w] = append(e.pfree[w], u.partial)
		u.partial = nil
	}
	if u.ySatR != nil {
		e.yfree[w] = append(e.yfree[w], u.ySatR)
		u.ySatR = nil
	}
	e.ufree[w] = append(e.ufree[w], u)
}

func newEngine(opts Options, tasks []task) *engine {
	e := &engine{opts: opts, tasks: tasks}
	e.initFree()
	e.matchers = make([][]*match.Matcher, opts.P)
	for w := 0; w < opts.P; w++ {
		ms := make([]*match.Matcher, len(tasks))
		for t := range tasks {
			ms[t] = match.NewMatcher(tasks[t].view, tasks[t].plan, match.Hooks{})
		}
		e.matchers[w] = ms
	}
	e.buildEstimates()
	return e
}

// sideOf maps a unit to its Limit tally slot; forest units are batch-only
// (single side).
func (e *engine) sideOf(u *unit) int {
	if e.share != nil {
		return 0
	}
	return sideIdx(e.tasks[u.task].plus)
}

// smallestPivot mirrors inc.smallestPivot for the parallel engine.
func (e *engine) smallestPivot(t *task, m []graph.NodeID, rank, slot int) bool {
	idx := e.delIdx
	if t.plus {
		idx = e.insIdx
	}
	for s, pe := range t.c.Rule.Pattern.Edges {
		k := edgeKey{m[pe.Src], m[pe.Dst], t.c.CP.EdgeLabels[s]}
		r, ok := idx[k]
		if !ok {
			continue
		}
		if r < rank || (r == rank && s < slot) {
			return false
		}
	}
	return true
}

// taggedVio is a violation tagged with its side (ΔVio⁺ vs ΔVio⁻; batch
// runs use plus=false throughout).
type taggedVio struct {
	vio  core.Violation
	plus bool
}

// sideIdx maps a side to its tally slot (0 = ΔVio⁻/batch, 1 = ΔVio⁺).
func sideIdx(plus bool) int {
	if plus {
		return 1
	}
	return 0
}

// expandResult carries what one unit expansion produced. children is the
// expanding worker's engine.kids buffer: step routes the units and hands the
// emptied buffer back before that worker expands again.
type expandResult struct {
	cost     float64
	children []*unit
	vios     []taggedVio
	split    bool
}

// splitWanted applies the paper's split rule C·(k+1) + |adj|/p < |adj|
// (§6.3), with |adj| scaled by the LiveStats estimate of the subtree below
// each candidate: a scan whose candidates each open deep subtrees is worth
// broadcasting even when the scan itself is modest. With no maintained
// statistics (below = 0) this reduces to the paper's literal form.
func (e *engine) splitWanted(cnt, depth int, below float64) bool {
	if cnt < 2*e.opts.P {
		return false
	}
	sub := float64(cnt) * (1 + below)
	par := float64(e.opts.C)*float64(depth+1) + sub/float64(e.opts.P)
	return par < sub
}

// taskBelow is the subtree estimate for a per-rule task unit (0 without
// stats).
func (e *engine) taskBelow(t, d int) float64 {
	if e.estBelow == nil || e.estBelow[t] == nil || d >= len(e.estBelow[t]) {
		return 0
	}
	return e.estBelow[t][d]
}

// unitWeight estimates a queued unit's remaining cost for the balancer's
// skew measure: entering-scan width × (1 + subtree below). Segment units
// use their actual [lo,hi) width. Without maintained statistics every unit
// weighs 1 and the weighted balancer degenerates to the count-based one.
func (e *engine) unitWeight(u *unit) float64 {
	var width, below float64
	switch {
	case e.share != nil:
		if e.sBelow == nil {
			return 1
		}
		width, below = e.sWidth[u.task], e.sBelow[u.task]
	case e.estBelow != nil && e.estBelow[u.task] != nil && u.depth < len(e.estBelow[u.task]):
		width, below = e.estWidth[u.task][u.depth], e.estBelow[u.task][u.depth]
	default:
		return 1
	}
	if u.hi >= 0 {
		width = float64(u.hi - u.lo)
	}
	if w := width * (1 + below); w > 1 {
		return w
	}
	return 1
}

// trySplit applies the split decision to a full-range unit about to scan
// plan step u.depth from the bindings in bound: when the rule of §6.3 holds
// (splitWanted) the candidate list is cut into at most p contiguous shares,
// each a broadcast copy of u, and the splitting worker pays the CPU to
// serialize the broadcast. It reports whether u was split.
func (e *engine) trySplit(w int, u *unit, m *match.Matcher, bound []graph.NodeID, below float64, res *expandResult) bool {
	if !e.opts.SplitUnits || u.bcast || u.lo != 0 || u.hi >= 0 {
		return false
	}
	cnt := m.CandidateCount(u.depth, bound)
	if !e.splitWanted(cnt, u.depth, below) {
		return false
	}
	share := (cnt + e.opts.P - 1) / e.opts.P
	for lo := 0; lo < cnt; lo += share {
		hi := lo + share
		if hi > cnt {
			hi = cnt
		}
		child := e.newUnit(w)
		*child = unit{
			task: u.task, depth: u.depth, ySat: u.ySat,
			pivotRank: u.pivotRank, pivotSlot: u.pivotSlot,
			partial: e.clonePartial(w, u.partial),
			lo:      lo, hi: hi, bcast: true,
		}
		if u.ySatR != nil {
			child.ySatR = e.cloneYSat(w, u.ySatR)
		}
		res.children = append(res.children, child)
	}
	res.split = true
	res.cost += float64(u.depth + 1)
	return true
}

// expand processes unit u on worker w. When splitting is enabled and the
// candidate list is large enough that C·(k+1) + |adj|/p < |adj| (§6.3), the
// unit is split into p broadcast shares instead of being scanned locally.
func (e *engine) expand(w int, u *unit) expandResult {
	if e.share != nil {
		return e.expandShared(w, u)
	}
	t := &e.tasks[u.task]
	m := e.matchers[w][u.task]
	res := expandResult{children: e.kids[w]}

	if u.bcast {
		// a broadcast share pays CPU to deserialize the partial solution
		// (size ∝ depth+1); the network latency itself is not CPU time —
		// step models it as a delay on the unit's ready time.
		res.cost += float64(u.depth + 1)
	}
	res.cost += u.xferCharge

	if u.depth == len(t.plan.Steps) {
		// complete match (possible only when a pattern is fully pre-bound)
		res.vios = e.complete(t, u, u.ySat, res.vios)
		return res
	}
	if e.trySplit(w, u, m, u.partial, e.taskBelow(u.task, u.depth), &res) {
		return res
	}

	st := &t.plan.Steps[u.depth]
	checksBefore := m.Stat.Checks
	scanned := m.CandidatesRange(u.depth, u.partial, u.lo, u.hi, func(v graph.NodeID) bool {
		if !m.CheckStep(u.depth, u.partial, v) {
			return true
		}
		u.partial[st.Node] = v
		prune, ySat := t.le.EvalLevel(u.depth+1, u.partial, u.ySat)
		if prune {
			u.partial[st.Node] = match.Unbound
			return true
		}
		if u.depth+1 == len(t.plan.Steps) {
			res.vios = e.complete(t, u, ySat, res.vios)
		} else {
			res.children = append(res.children, &unit{
				task: u.task, depth: u.depth + 1, ySat: ySat,
				pivotRank: u.pivotRank, pivotSlot: u.pivotSlot,
				partial: e.clonePartial(w, u.partial),
				lo:      0, hi: -1,
			})
		}
		u.partial[st.Node] = match.Unbound
		return true
	})
	res.cost += float64(scanned + (m.Stat.Checks - checksBefore))
	return res
}

// complete records the complete match currently held in u.partial, whose
// literal state is ySat. The pivot dedup runs on the scratch bindings; only
// retained matches copy.
func (e *engine) complete(t *task, u *unit, ySat int, vios []taggedVio) []taggedVio {
	if ySat >= t.le.NumY() {
		return vios // all Y satisfied: not a violation
	}
	if t.inc && !e.smallestPivot(t, u.partial, u.pivotRank, u.pivotSlot) {
		return vios
	}
	mcopy := core.Match(u.partial).Clone()
	return append(vios, taggedVio{core.Violation{Rule: t.c.Rule, Match: mcopy}, t.plus})
}

// sortViolations orders output deterministically.
func sortViolations(vs []taggedVio) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].vio.Key() < vs[j].vio.Key() })
}
