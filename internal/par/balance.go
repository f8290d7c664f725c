package par

// The paper's monitoring round (§6.3): workers whose load exceeds η× the
// average shed from the front of their queue (the oldest, shallowest units —
// the biggest subtrees), receivers below η′× the average accept at most
// their deficit. Loads are measured in estimated unit cost
// (engine.unitWeight), which the maintained LiveStats turn into subtree
// size; without stats every unit weighs 1 and this is exactly the
// count-based scheme.

import "math"

// balTarget is one under-loaded worker and the load it can still accept.
type balTarget struct {
	idx     int
	deficit float64
}

// balReceivers selects the workers below the low-water mark η′·avg, each
// capped at its deficit ⌊avg − load⌋ so a transfer never turns a receiver
// into the next straggler.
func balReceivers(loads []float64, avg, etaLow float64) []*balTarget {
	var ts []*balTarget
	for i, l := range loads {
		if l < etaLow*avg {
			if def := math.Floor(avg - l); def > 0 {
				ts = append(ts, &balTarget{i, def})
			}
		}
	}
	return ts
}

// shedAssign walks the sender's queue from the front, assigning each unit
// round-robin to a receiver with remaining deficit, until the shed weight
// reaches excess or every deficit is exhausted. It returns how many front
// units to take and their destination worker per unit, and decrements the
// targets' deficits in place (senders drain a shared receiver budget).
func shedAssign(q []*unit, excess float64, targets []*balTarget, weigh func(*unit) float64) (int, []int) {
	var dest []int
	acc := 0.0
	ti := 0
	for _, u := range q {
		if acc >= excess {
			break
		}
		hops := 0
		for targets[ti].deficit <= 0 {
			ti = (ti + 1) % len(targets)
			if hops++; hops > len(targets) {
				return len(dest), dest
			}
		}
		w := weigh(u)
		dest = append(dest, targets[ti].idx)
		targets[ti].deficit -= w
		acc += w
		ti = (ti + 1) % len(targets)
	}
	return len(dest), dest
}

// balance is one monitoring round at virtual time T. Every worker pays a
// monitoring cost on its clock; senders shed their excess from the front;
// each moved unit costs the sender CPU to serialize, carries an xferCharge
// the receiving worker pays on expansion, and becomes ready a transfer
// latency after T.
func (r *run) balance(T float64) {
	r.balances++
	e, ws := r.e, r.ws
	loads := make([]float64, len(ws))
	queued := 0
	var totalLoad float64
	for i, w := range ws {
		queued += len(w.q) - w.head
		for _, u := range w.q[w.head:] {
			loads[i] += e.unitWeight(u)
		}
		totalLoad += loads[i]
	}
	if queued == 0 {
		return
	}
	avg := totalLoad / float64(len(ws))
	// monitoring cost: a status round-trip per worker
	for _, w := range ws {
		if w.clock < T {
			w.clock = T
		}
		w.clock += trueLatency / 2
	}
	targets := balReceivers(loads, avg, etaLow)
	if len(targets) == 0 {
		return
	}
	for i, w := range ws {
		if loads[i] <= eta*avg {
			continue
		}
		excess := math.Floor(loads[i] - avg)
		if excess <= 0 {
			continue
		}
		take, dest := shedAssign(w.q[w.head:], excess, targets, e.unitWeight)
		for k, to := range dest {
			u := w.q[w.head+k]
			w.q[w.head+k] = nil
			u.ready = T + trueLatency
			u.xferCharge = xferCPU // deserialize on arrival
			ws[to].push(u)
		}
		w.head += take
		// serializing the shed units costs the sender CPU (a partial
		// solution is a few dozen bytes — far less than expanding it); the
		// latency is a delay on availability, not CPU time
		w.clock += xferCPU * float64(take)
		r.moved += take
	}
}
