package par

// The engine core both schedulers drive: a worker is a queue and a clock, a
// run is p workers plus the tallies, and step is everything that happens to
// one unit. The schedulers (virtual.go, pool.go) only choose which worker
// steps which unit next and when the monitoring round (balance.go) fires.

import (
	"sync"
	"sync/atomic"
)

// worker is one processor: a deque of work units and a clock in cost units.
// The virtual scheduler pops the front (FIFO), a shard goroutine pops the
// back (LIFO: depth-first keeps queues small), the balancer sheds from the
// front under both. mu guards q, head and clock — the balancer reads and
// re-homes queued units and charges clocks from its own goroutine; vios is
// only ever touched by whoever steps the worker.
type worker struct {
	mu    sync.Mutex
	q     []*unit
	head  int     // q[head:] is the live queue
	clock float64 // start-up charge + expansion costs + monitoring/transfer charges
	vios  []taggedVio
	wake  chan struct{}
}

func (w *worker) push(u *unit) {
	w.mu.Lock()
	w.q = append(w.q, u)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// pop removes the unit at the front or the back of the live queue.
func (w *worker) pop(front bool) (*unit, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head == len(w.q) {
		return nil, false
	}
	i := len(w.q) - 1
	if front {
		i = w.head
		w.head++
	}
	u := w.q[i]
	w.q[i] = nil
	if !front {
		w.q = w.q[:i]
	}
	if w.head == len(w.q) {
		w.q, w.head = w.q[:0], 0
	}
	return u, true
}

// run is one execution of an engine: the per-run queues, tallies and
// completion signal.
type run struct {
	e  *engine
	ws []*worker

	pending                        atomic.Int64 // queued + in-flight units
	sideVios                       [2]atomic.Int64
	units, splits, moved, balances atomic.Int64

	workMu    sync.Mutex
	totalWork float64 // see addWork

	done chan struct{} // closed when pending drains to zero
	wg   sync.WaitGroup
}

// newRun seeds worker i's queue with initial[i] and charges startCost to
// every clock up front (candidate-neighborhood construction and
// replication).
func newRun(e *engine, initial [][]*unit, startCost float64) *run {
	r := &run{e: e, ws: make([]*worker, e.opts.P), done: make(chan struct{})}
	total := 0
	for i := range r.ws {
		r.ws[i] = &worker{clock: startCost, wake: make(chan struct{}, 1)}
		r.ws[i].q = append(r.ws[i].q, initial[i]...)
		total += len(initial[i])
	}
	r.pending.Store(int64(total))
	if total == 0 {
		close(r.done)
	}
	return r
}

// addWork adds to TotalWork the expansion costs a scheduler loop summed
// over the steps it made (once per loop, so the shards do not contend on
// it per unit; the virtual scheduler's one loop sums in event order, which
// keeps its total bit-reproducible).
func (r *run) addWork(c float64) {
	r.workMu.Lock()
	r.totalWork += c
	r.workMu.Unlock()
}

// step processes unit u, already popped from worker wi's queue: it expands
// it — or, once u's side has hit Options.Limit, drains it unexpanded but
// still accounted, transfer charge included — charges the cost to the
// worker's clock from start (the virtual time the unit could begin; a clock
// already past it just advances), tallies, and routes the children. Split
// shares go round-robin to all workers and become ready a broadcast latency
// later; ordinary children stay local. It returns the cost, for the
// caller's addWork.
func (r *run) step(wi int, u *unit, start float64) float64 {
	e, w := r.e, r.ws[wi]
	res := expandResult{cost: u.xferCharge, children: e.kids[wi]}
	if e.opts.Limit <= 0 || r.sideVios[sideIdx(u.nd.f.plus)].Load() < int64(e.opts.Limit) {
		res = e.expand(wi, u)
	}
	e.recycle(wi, u) // children and violations hold copies, never aliases

	w.mu.Lock()
	if w.clock < start {
		w.clock = start
	}
	w.clock += res.cost
	now := w.clock
	w.mu.Unlock()
	r.units.Add(1)
	if len(res.vios) > 0 {
		w.vios = append(w.vios, res.vios...)
		// ΔVio⁺ and ΔVio⁻ are limited independently; batch runs have a
		// single side
		for _, tv := range res.vios {
			r.sideVios[sideIdx(tv.plus)].Add(1)
		}
	}
	// u is done and its children are pending before any can be popped
	if r.pending.Add(int64(len(res.children))-1) == 0 {
		close(r.done)
	}
	if res.split {
		r.splits.Add(1)
		for i, child := range res.children {
			child.ready = now + trueLatency
			r.ws[i%len(r.ws)].push(child)
		}
	} else {
		for _, child := range res.children {
			child.ready = now
			w.push(child)
		}
	}
	e.kids[wi] = res.children[:0]
	return res.cost
}

// metrics collects the run's violations and Metrics once it has drained.
func (r *run) metrics() ([]taggedVio, Metrics) {
	var vios []taggedVio
	met := Metrics{
		TotalWork:     r.totalWork,
		Units:         int(r.units.Load()),
		Splits:        int(r.splits.Load()),
		Moved:         int(r.moved.Load()),
		BalanceEvents: int(r.balances.Load()),
	}
	for _, w := range r.ws {
		vios = append(vios, w.vios...)
		met.WorkerCost = append(met.WorkerCost, w.clock)
		if w.clock > met.Makespan {
			met.Makespan = w.clock
		}
	}
	sortViolations(vios)
	return vios, met
}

// exec runs the engine over the initial per-worker queues under the selected
// scheduler. A goroutine run without a usable Options.Pool (nil, closed, or
// sized differently from P) borrows a temporary pool and closes it before
// returning.
func (e *engine) exec(initial [][]*unit, startCost float64) ([]taggedVio, Metrics) {
	r := newRun(e, initial, startCost)
	if e.opts.Virtual {
		r.simulate()
	} else if pl := e.opts.Pool; pl == nil || !pl.run(r) {
		tmp := NewPool(e.opts.P)
		tmp.run(r)
		tmp.Close()
	}
	return r.metrics()
}
