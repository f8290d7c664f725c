// Package par implements the parallel detection algorithms of the paper:
// PDect (parallel batch, §5.1) and PIncDect (parallel incremental, §6.3)
// with the hybrid workload-balancing strategy — cost-estimation-based work
// unit splitting plus periodic skew-based redistribution — and its ablation
// variants PIncDect_ns (no splitting), PIncDect_nb (no balancing) and
// PIncDect_NO (neither).
//
// There is one kind of work unit and one procedure that expands it, as in
// the paper (§6.3: a partial solution in BVio_i, expanded one step, split
// when C·(k+1) + |adj|/p < |adj|, shed when skewed; §5.1 runs the same
// procedure from batch seeds). The search space is always a prefix forest of
// plans (plan.Share): PDect adds Σ's batch forest and seeds it with chunks of
// each root scan (shared.go); PIncDect adds one single-rule chain per rule ×
// pivot slot × side, built from the pivot-anchored plan, and seeds it with
// the update pivots (pincdect.go). A unit is a forest node, the path bindings
// that reach it, each riding rule's literal state, its pivot and a candidate
// segment; engine.expand scans the step entering the node once for all
// riding rules and engine.emit applies, from the forest's Δ-edge index and
// side, what is specific to update-driven search: the smallest-pivot dedup
// and the ΔVio⁺/ΔVio⁻ tag.
//
// The engine executes the work-unit semantics — a worker queue, a unit step
// (expansion, cost charging, child routing, tallies) and a monitoring round
// (run.go, balance.go) — under one scheduler: a deterministic discrete-event
// loop on the caller's goroutine that always steps the worker whose front
// unit can start earliest and fires the monitoring round every Intvl cost
// units. Per-unit costs are the real adjacency scans and edge checks
// performed, plus a fixed communication latency per broadcast/transfer. It
// reports the simulated makespan (max worker clock), which reproduces the
// paper's relative curves — speedup vs p, the U-shaped optima in C and
// intvl — independently of how many physical cores the host has.
// (Substitution for the paper's 20-machine cluster; see DESIGN.md §1.)
//
// The violation sets equal the sequential algorithms' output.
package par

import (
	"sort"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/match"
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
	// Program is the shared rule program to plan with; nil builds a
	// private one per call. Callers running many detections over one Σ
	// pass their own so every worker's task plans come from one compiled Σ
	// and one plan cache instead of a per-call rebuild.
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

// Metrics summarize a parallel run, in cost units of the simulated cluster.
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

// forest is one search space: a prefix forest of plans over one view (see
// plan.Share). PDect runs Σ's batch forest; PIncDect runs one single-rule
// chain per rule × pivot slot × side, built from the pivot-anchored plan.
type forest struct {
	view  graph.View
	share *plan.Share
	les   []*detect.LitEval // per share rule
	// idx, on an update-driven forest, indexes the Δ-edges of its side: its
	// matches pass the smallest-pivot dedup against it and are tagged ΔVio⁺
	// when plus, ΔVio⁻ otherwise. A batch forest has neither.
	idx   inc.EdgeIndex
	plus  bool
	slot0 int     // first of its rules' slots in engine.locals[w]
	nodes []fnode // breadth-first, Root first
}

// fnode is a forest node in its forest's table: the plan.ShareNode plus the
// LiveStats-driven cost estimates of the units waiting on it.
type fnode struct {
	f    *forest
	sn   *plan.ShareNode
	kids []fnode // aligned with sn.Children (a run of f.nodes)
	// width ≈ candidates scanned by the step entering the node per expansion
	// (0 on a Root, which no step enters), below ≈ the expected scan cost of
	// the whole subtree under one of those candidates. est is false when the
	// view carries no maintained statistics; splitting and balancing then
	// fall back to the paper's unweighted forms.
	width, below float64
	est          bool
}

// unit is a work unit: a partial solution awaiting the step that enters its
// forest node (paper: an element of BVio_i). A unit on a Root has no step
// left — both ends of a one-edge pattern were pinned by its pivot — and only
// emits.
type unit struct {
	nd *fnode
	// path holds the bindings that reach nd: the plan's pre-bound slots in
	// Plan.Bound order, then one binding per step taken. ySatR is the
	// per-rule literal state, aligned with nd.sn.Rules (-1 = the rule pruned
	// on this path).
	path      []graph.NodeID
	ySatR     []int
	pivotRank int // -1 for batch units
	pivotSlot int
	lo, hi    int     // candidate segment; (0,-1) = full list
	bcast     bool    // this unit is a broadcast share (charges latency)
	ready     float64 // virtual time at which the unit is available
	// xferCharge is the communication cost of a rebalancing transfer,
	// charged when the receiving worker processes the unit.
	xferCharge float64
}

// local is one worker's private state for one forest rule: its matcher and
// the pattern-order bindings expand rebuilds from a unit's path. Every use
// rewrites the positions of the steps it evaluates, so stale deeper bindings
// are never read (a literal at level L only references nodes bound by steps
// < L).
type local struct {
	m       *match.Matcher
	partial []graph.NodeID
}

// engine holds the immutable run state shared by workers.
type engine struct {
	opts   Options
	nslots int       // Σ over the forests added of len(share.Rules)
	locals [][]local // per worker per forest rule slot, built on first use

	// ufree/pfree/yfree are per-worker freelists recycling work units and
	// their buffers (path bindings and literal state): a unit is dropped
	// right after its expansion, so step returns it to the expanding worker
	// and child units draw from the same lists. kids is the worker's
	// expandResult.children buffer, which step drains before the worker
	// expands again, and riding expand's state per rule of the node at hand.
	// Steady-state fan-out allocates nothing.
	ufree  [][]*unit
	pfree  [][][]graph.NodeID
	yfree  [][][]int
	kids   [][]*unit
	riding [][]rider
}

// rider is what expand holds, while it works on one unit, for one rule
// riding the unit's node: the rule's binding scratch (local.partial) and its
// literal state — the unit's on a Root, the current candidate's during a scan
// (-1 = pruned).
type rider struct {
	pp   []graph.NodeID
	ySat int
}

func newEngine(opts Options) *engine {
	return &engine{
		opts:   opts,
		locals: make([][]local, opts.P),
		ufree:  make([][]*unit, opts.P),
		pfree:  make([][][]graph.NodeID, opts.P),
		yfree:  make([][][]int, opts.P),
		kids:   make([][]*unit, opts.P),
		riding: make([][]rider, opts.P),
	}
}

// estCap bounds the fan products so a deep plan over a dense label cannot
// push the estimates into float territory where comparisons degrade.
const estCap = 1e9

// addForest completes f from its view, share, idx and plus: the literal
// schedules, the slots of its rules in the per-worker tables, and the node
// table — breadth-first, so a node's children are one run behind it and a
// reverse pass sees every child's estimate before its parent's. The
// estimates come from the view's maintained statistics (graph.LiveStats),
// when it has any: deterministic functions of the graph, so a run stays
// bit-reproducible.
func (e *engine) addForest(f *forest) *forest {
	sh := f.share
	f.slot0 = e.nslots
	e.nslots += len(sh.Rules)
	f.les = make([]*detect.LitEval, len(sh.Rules))
	for i := range sh.Rules {
		f.les[i] = detect.NewLitEval(f.view, sh.Rules[i].C, sh.Rules[i].Plan)
	}
	f.nodes = append(f.nodes, fnode{f: f, sn: sh.Root})
	for i := 0; i < len(f.nodes); i++ {
		for _, ch := range f.nodes[i].sn.Children {
			f.nodes = append(f.nodes, fnode{f: f, sn: ch})
		}
	}
	next := 1
	for i := range f.nodes {
		k := len(f.nodes[i].sn.Children)
		f.nodes[i].kids = f.nodes[next : next+k]
		next += k
	}
	var st *graph.LiveStats
	if s, ok := f.view.(graph.LiveStatted); ok {
		st = s.LiveStats()
	}
	for i := len(f.nodes) - 1; i >= 0 && st != nil; i-- {
		nd := &f.nodes[i]
		nd.est = true
		if i > 0 {
			nd.width = min(stepFan(f.view, st, sh.Rules[nd.sn.Rep].Plan, nd.sn.Depth-1), estCap)
		}
		for k := range nd.kids {
			nd.below += nd.kids[k].width * (1 + nd.kids[k].below)
		}
		nd.below = min(nd.below, estCap)
	}
	return f
}

// stepFan estimates the candidate count of plan step d: the mean adjacency
// run length for anchored steps (from the maintained per-(node label, edge
// label) aggregates), the label-bucket size for seed scans.
func stepFan(v graph.View, st *graph.LiveStats, pl *match.Plan, d int) float64 {
	s := &pl.Steps[d]
	if s.AnchorEdge >= 0 {
		el := pl.CP.EdgeLabels[s.AnchorEdge]
		from := pl.CP.NodeLabels[s.AnchorFrom]
		if s.AnchorOut {
			return st.OutFan(v, from, el)
		}
		return st.InFan(v, from, el)
	}
	if l := pl.CP.NodeLabels[s.Node]; l != graph.Wildcard {
		return float64(v.CountLabel(l))
	}
	return float64(v.NumNodes())
}

// local returns worker w's matcher and binding scratch for rule ri of f,
// built on first use.
func (e *engine) local(w int, f *forest, ri int) *local {
	if len(e.locals[w]) < e.nslots {
		e.locals[w] = append(e.locals[w], make([]local, e.nslots-len(e.locals[w]))...)
	}
	l := &e.locals[w][f.slot0+ri]
	if l.m == nil {
		sr := &f.share.Rules[ri]
		l.m = match.NewMatcher(f.view, sr.Plan, match.Hooks{})
		l.partial = match.NewPartial(len(sr.Rule.Pattern.Nodes))
	}
	return l
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

// newYSatBuf returns an uninitialized length-n literal-state buffer from
// worker w's freelist (the counterpart of newPartialBuf).
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

// recycle returns a consumed unit and its buffers to worker w's freelists.
// Only call once the unit is dropped — popped from its queue, so neither a
// queue nor the balancer still sees it — and expanded: emitted violations
// hold private copies, never aliases of unit buffers.
func (e *engine) recycle(w int, u *unit) {
	if u.path != nil {
		e.pfree[w] = append(e.pfree[w], u.path)
		u.path = nil
	}
	if u.ySatR != nil {
		e.yfree[w] = append(e.yfree[w], u.ySatR)
		u.ySatR = nil
	}
	e.ufree[w] = append(e.ufree[w], u)
}

// taggedVio is a violation tagged with its side (ΔVio⁺ vs ΔVio⁻; batch
// runs use plus=false throughout).
type taggedVio struct {
	vio  core.Violation
	plus bool
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

// unitWeight estimates a queued unit's remaining cost for the balancer's
// skew measure: entering-scan width × (1 + subtree below). Segment units
// use their actual [lo,hi) width. Without an estimate (no maintained
// statistics, or no forest node at all: the balancer's own tests) every
// unit weighs 1 and the weighted balancer degenerates to the count-based one.
func (e *engine) unitWeight(u *unit) float64 {
	if u.nd == nil || !u.nd.est {
		return 1
	}
	width := u.nd.width
	if u.hi >= 0 {
		width = float64(u.hi - u.lo)
	}
	return max(width*(1+u.nd.below), 1)
}

// trySplit applies the split decision to a full-range unit about to scan
// plan step d of matcher m from the bindings in bound: when the rule of §6.3
// holds (splitWanted) the candidate list is cut into at most p contiguous
// shares, each a broadcast copy of u, and the splitting worker pays the CPU
// to serialize the broadcast. It reports whether u was split.
func (e *engine) trySplit(w int, u *unit, m *match.Matcher, d int, bound []graph.NodeID, res *expandResult) bool {
	if !e.opts.SplitUnits || u.bcast || u.lo != 0 || u.hi >= 0 {
		return false
	}
	cnt := m.CandidateCount(d, bound)
	if !e.splitWanted(cnt, d, u.nd.below) {
		return false
	}
	share := (cnt + e.opts.P - 1) / e.opts.P
	for lo := 0; lo < cnt; lo += share {
		path := e.newPartialBuf(w, len(u.path))
		copy(path, u.path)
		ySatR := e.newYSatBuf(w, len(u.ySatR))
		copy(ySatR, u.ySatR)
		child := e.newUnit(w)
		*child = unit{
			nd: u.nd, path: path, ySatR: ySatR,
			pivotRank: u.pivotRank, pivotSlot: u.pivotSlot,
			lo: lo, hi: min(lo+share, cnt), bcast: true,
		}
		res.children = append(res.children, child)
	}
	res.split = true
	res.cost += float64(d + 1)
	return true
}

// ruleIdx locates share rule ri in a node's (ascending, tiny) rule list.
func ruleIdx(rules []int, ri int) int {
	for i, r := range rules {
		if r == ri {
			return i
		}
	}
	return -1
}

// expand processes unit u on worker w: scan the step entering the unit's
// node once via the representative's matcher, evaluate each riding rule's
// literal level per candidate, emit the rules completing here, and fan out
// the surviving continuations as child units. When splitting is enabled and
// the candidate list is large enough that C·(k+1) + |adj|/p < |adj| (§6.3),
// the unit is split into p broadcast shares instead of being scanned
// locally.
func (e *engine) expand(w int, u *unit) expandResult {
	nd := u.nd
	f, sn := nd.f, nd.sn
	d := sn.Depth - 1 // the step this unit scans (-1: none, a Root unit)
	res := expandResult{children: e.kids[w]}
	if u.bcast {
		// a broadcast share pays CPU to deserialize the partial solution
		// (size ∝ depth+1); the network latency itself is not CPU time —
		// step models it as a delay on the unit's ready time.
		res.cost += float64(d + 1)
	}
	res.cost += u.xferCharge

	// rebuild each live rule's pattern-order bindings from the path; the
	// representative's even when pruned (its plan drives the scan and the
	// edge checks for the whole subtree)
	if cap(e.riding[w]) < len(sn.Rules) {
		e.riding[w] = make([]rider, len(sn.Rules))
	}
	rs := e.riding[w][:len(sn.Rules)]
	var rep *local
	for i, ri := range sn.Rules {
		rs[i].ySat = u.ySatR[i]
		if u.ySatR[i] < 0 && ri != sn.Rep {
			continue
		}
		l := e.local(w, f, ri)
		if ri == sn.Rep {
			rep = l
		}
		rs[i].pp = l.partial
		pl := f.share.Rules[ri].Plan
		for j, b := range pl.Bound {
			l.partial[b] = u.path[j]
		}
		for j := 0; j < d; j++ {
			l.partial[pl.Steps[j].Node] = u.path[len(pl.Bound)+j]
		}
	}
	if d < 0 {
		res.vios = e.emit(u, rs, res.vios)
		return res
	}
	m, rp := rep.m, rep.partial
	if e.trySplit(w, u, m, d, rp, &res) {
		return res
	}

	checksBefore := m.Stat.Checks
	scanned := m.CandidatesRange(d, rp, u.lo, u.hi, func(cand graph.NodeID) bool {
		if !m.CheckStep(d, rp, cand) {
			return true
		}
		any := false
		for i, ri := range sn.Rules {
			rs[i].ySat = -1
			if u.ySatR[i] < 0 {
				continue
			}
			rs[i].pp[f.share.Rules[ri].Plan.Steps[d].Node] = cand
			prune, _, ySat := f.les[ri].EvalLevel(d+1, rs[i].pp, u.ySatR[i])
			if prune {
				continue
			}
			rs[i].ySat = ySat
			any = true
		}
		if !any {
			return true
		}
		res.vios = e.emit(u, rs, res.vios)
		// fan out the divergent continuations that still carry a live rule
		for k := range nd.kids {
			gch := &nd.kids[k]
			live := false
			j := 0
			for _, ri := range gch.sn.Rules {
				for sn.Rules[j] != ri {
					j++
				}
				if rs[j].ySat >= 0 {
					live = true
					break
				}
			}
			if !live {
				continue
			}
			ySatR := e.newYSatBuf(w, len(gch.sn.Rules))
			j = 0
			for gi, ri := range gch.sn.Rules {
				for sn.Rules[j] != ri {
					j++
				}
				ySatR[gi] = rs[j].ySat
			}
			bind := e.newPartialBuf(w, len(u.path)+1)
			copy(bind, u.path)
			bind[len(u.path)] = cand
			child := e.newUnit(w)
			*child = unit{
				nd: gch, path: bind, ySatR: ySatR,
				pivotRank: u.pivotRank, pivotSlot: u.pivotSlot,
				lo: 0, hi: -1,
			}
			res.children = append(res.children, child)
		}
		return true
	})
	res.cost += float64(scanned + (m.Stat.Checks - checksBefore))
	return res
}

// emit is the reduce side of the fan-out: for every rule whose plan
// completes at u's node and whose literal state in rs (aligned with the
// node's Rules) still leaves a consequence literal unsatisfied, it records
// the match held in the rule's binding scratch. An update-driven forest
// keeps a match only under its smallest pivot; the dedup runs on the
// scratch bindings and only retained matches copy.
func (e *engine) emit(u *unit, rs []rider, vios []taggedVio) []taggedVio {
	f, sn := u.nd.f, u.nd.sn
	for _, ri := range sn.Terminal {
		r := &rs[ruleIdx(sn.Rules, ri)]
		if r.ySat < 0 || r.ySat >= f.les[ri].NumY() {
			continue // pruned, or all Y satisfied: not a violation
		}
		sr := &f.share.Rules[ri]
		if f.idx != nil && !f.idx.SmallestPivot(sr.C, r.pp, u.pivotRank, u.pivotSlot) {
			continue
		}
		vios = append(vios, taggedVio{core.Violation{Rule: sr.Rule, Match: core.Match(r.pp).Clone()}, f.plus})
	}
	return vios
}

// sortViolations orders output deterministically.
func sortViolations(vs []taggedVio) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].vio.Key() < vs[j].vio.Key() })
}
