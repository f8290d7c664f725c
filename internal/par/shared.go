package par

// Batch PDect under cross-rule sharing (PR 6 tentpole): the plan layer's
// prefix forest (plan.Share) is executed as shard work units instead of one
// sequential depth-first walk. A forest unit binds one more step of a
// ShareNode shared by every rule riding it, so a shared prefix's candidate
// scan and edge checks are paid once per shard rather than once per rule.
// Each rule keeps its own literal schedule (detect.LitEval — immutable and
// goroutine-safe), its own ySat progress and its own pruned flag inside the
// unit (unit.ySatR, aligned with ShareNode.Rules; -1 = pruned on this
// path), and a rule's violations are emitted by whichever worker completes
// its terminal node — the per-rule "reduce" side of the fan-out. Splitting
// and skew balancing apply to forest units exactly as to per-rule units.
//
// Correctness mirrors detect.RunShared: for each rule the forest walk
// restricted to its path enumerates exactly the candidates its own plan
// would, with the literal schedule firing at the same levels with the same
// bindings — so the emitted set equals the per-rule search, merely
// partitioned across shards. The differential suites enforce this against
// Dect on every fuzz workload.

import (
	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/graph"
	"ngd/internal/match"
	"ngd/internal/plan"
)

// newSharedEngine arranges a forest run: units reference flattened forest
// nodes, matchers and partial-solution scratch are per worker per rule.
func newSharedEngine(opts Options, v graph.View, sh *plan.Share) *engine {
	e := &engine{opts: opts, share: sh, sview: v}
	e.initFree()
	e.sles = make([]*detect.LitEval, len(sh.Rules))
	for i := range sh.Rules {
		sr := &sh.Rules[i]
		e.sles[i] = detect.NewLitEval(v, sr.C, sr.Plan)
	}
	e.nodeOf = make(map[*plan.ShareNode]int)
	var flat func(nd *plan.ShareNode)
	flat = func(nd *plan.ShareNode) {
		for _, ch := range nd.Children {
			e.nodeOf[ch] = len(e.snodes)
			e.snodes = append(e.snodes, ch)
			flat(ch)
		}
	}
	flat(sh.Root)
	e.smatchers = make([][]*match.Matcher, opts.P)
	e.spartials = make([][][]graph.NodeID, opts.P)
	for w := 0; w < opts.P; w++ {
		e.smatchers[w] = make([]*match.Matcher, len(sh.Rules))
		e.spartials[w] = make([][]graph.NodeID, len(sh.Rules))
	}
	if st := viewStats(v); st != nil {
		e.sWidth = make([]float64, len(e.snodes))
		e.sBelow = make([]float64, len(e.snodes))
		// parents precede their children in snodes (preorder flattening),
		// so a reverse pass sees every child's estimate before its parent's
		for i := len(e.snodes) - 1; i >= 0; i-- {
			nd := e.snodes[i]
			f := stepFan(v, st, sh.Rules[nd.Rep].Plan, nd.Depth-1)
			if f > estCap {
				f = estCap
			}
			e.sWidth[i] = f
			var b float64
			for _, ch := range nd.Children {
				ci := e.nodeOf[ch]
				b += e.sWidth[ci] * (1 + e.sBelow[ci])
			}
			if b > estCap {
				b = estCap
			}
			e.sBelow[i] = b
		}
	}
	return e
}

// smatcher returns worker w's matcher for share rule ri, built on first use
// (only node representatives ever need one).
func (e *engine) smatcher(w, ri int) *match.Matcher {
	if e.smatchers[w][ri] == nil {
		e.smatchers[w][ri] = match.NewMatcher(e.sview, e.share.Rules[ri].Plan, match.Hooks{})
	}
	return e.smatchers[w][ri]
}

// spartial returns worker w's partial-solution scratch for share rule ri.
// Every use rewrites the positions of the steps it evaluates, so stale
// deeper bindings are never read (a literal at level L only references
// nodes bound by steps < L).
func (e *engine) spartial(w, ri int) []graph.NodeID {
	if e.spartials[w][ri] == nil {
		e.spartials[w][ri] = match.NewPartial(len(e.share.Rules[ri].Rule.Pattern.Nodes))
	}
	return e.spartials[w][ri]
}

// seedShared builds the initial forest units: chunks of each root child's
// seed scan, with every rule's level-0 literal gate evaluated once.
func (e *engine) seedShared() []*unit {
	sh := e.share
	y0 := make([]int, len(sh.Rules))
	alive := make([]bool, len(sh.Rules))
	for ri := range sh.Rules {
		prune, y := e.sles[ri].EvalLevel(0, e.spartial(0, ri), 0)
		alive[ri] = !prune
		y0[ri] = y
	}
	var units []*unit
	for _, ch := range sh.Root.Children {
		ySatR := make([]int, len(ch.Rules))
		live := false
		for i, ri := range ch.Rules {
			if alive[ri] {
				ySatR[i] = y0[ri]
				live = true
			} else {
				ySatR[i] = -1
			}
		}
		if !live {
			continue
		}
		cnt := e.smatcher(0, ch.Rep).CandidateCount(0, e.spartial(0, ch.Rep))
		if cnt == 0 {
			continue
		}
		chunk := cnt / (e.opts.P * 4)
		if chunk < 1 {
			chunk = 1
		}
		ti := e.nodeOf[ch]
		for lo := 0; lo < cnt; lo += chunk {
			hi := lo + chunk
			if hi > cnt {
				hi = cnt
			}
			units = append(units, &unit{
				task: ti, depth: 0, pivotRank: -1, pivotSlot: -1,
				ySatR: append([]int(nil), ySatR...),
				lo:    lo, hi: hi,
			})
		}
	}
	return units
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

// expandShared processes one forest unit on worker w: scan the entering
// step of the unit's node once via the representative's matcher, evaluate
// each riding rule's literal level per candidate, emit the rules completing
// here, and fan out the surviving continuations as child units.
func (e *engine) expandShared(w int, u *unit) expandResult {
	nd := e.snodes[u.task]
	d := nd.Depth - 1 // the step this unit scans (== u.depth)
	res := expandResult{children: e.kids[w]}
	if u.bcast {
		res.cost += float64(d + 1)
	}
	res.cost += u.xferCharge

	m := e.smatcher(w, nd.Rep)
	rp := e.spartial(w, nd.Rep)
	// reconstruct each live rule's partial prefix from the path bindings;
	// the representative's is rebuilt even when pruned (its plan drives the
	// scan and the edge checks for the whole subtree)
	for i, ri := range nd.Rules {
		if u.ySatR[i] < 0 && ri != nd.Rep {
			continue
		}
		pp := e.spartial(w, ri)
		steps := e.share.Rules[ri].Plan.Steps
		for j := 0; j < d; j++ {
			pp[steps[j].Node] = u.partial[j]
		}
	}

	var below float64
	if e.sBelow != nil {
		below = e.sBelow[u.task]
	}
	if e.trySplit(w, u, m, rp, below, &res) {
		return res
	}

	if cap(e.scur[w]) < len(nd.Rules) {
		e.scur[w] = make([]int, len(nd.Rules))
	}
	cur := e.scur[w][:len(nd.Rules)] // per-candidate survival (-1 = pruned)
	checksBefore := m.Stat.Checks
	scanned := m.CandidatesRange(d, rp, u.lo, u.hi, func(cand graph.NodeID) bool {
		if !m.CheckStep(d, rp, cand) {
			return true
		}
		any := false
		for i, ri := range nd.Rules {
			cur[i] = -1
			if u.ySatR[i] < 0 {
				continue
			}
			pp := e.spartial(w, ri)
			pp[e.share.Rules[ri].Plan.Steps[d].Node] = cand
			prune, ySat := e.sles[ri].EvalLevel(d+1, pp, u.ySatR[i])
			if prune {
				continue
			}
			cur[i] = ySat
			any = true
		}
		if !any {
			return true
		}
		// reduce: emit the rules whose plan completes at this node
		for _, ri := range nd.Terminal {
			i := ruleIdx(nd.Rules, ri)
			if cur[i] < 0 || cur[i] >= e.sles[ri].NumY() {
				continue // pruned, or all Y satisfied: not a violation
			}
			pp := e.spartial(w, ri)
			res.vios = append(res.vios, taggedVio{core.Violation{
				Rule:  e.share.Rules[ri].Rule,
				Match: core.Match(append([]graph.NodeID(nil), pp...)),
			}, false})
		}
		// fan out the divergent continuations that still carry a live rule
		for _, gch := range nd.Children {
			live := false
			j := 0
			for _, ri := range gch.Rules {
				for nd.Rules[j] != ri {
					j++
				}
				if cur[j] >= 0 {
					live = true
					break
				}
			}
			if !live {
				continue
			}
			ySatR := e.newYSatBuf(w, len(gch.Rules))
			j = 0
			for gi, ri := range gch.Rules {
				for nd.Rules[j] != ri {
					j++
				}
				ySatR[gi] = cur[j]
			}
			bind := e.newPartialBuf(w, d+1)
			copy(bind, u.partial)
			bind[d] = cand
			child := e.newUnit(w)
			*child = unit{
				task: e.nodeOf[gch], depth: d + 1,
				pivotRank: -1, pivotSlot: -1,
				partial: bind, ySatR: ySatR, lo: 0, hi: -1,
			}
			res.children = append(res.children, child)
		}
		return true
	})
	res.cost += float64(scanned + (m.Stat.Checks - checksBefore))
	return res
}
