package par

// The engine core and its one scheduler: a worker is a queue and a clock, a
// run is p workers plus the tallies, step is everything that happens to one
// unit, and simulate chooses which worker steps which unit next and when the
// monitoring round (balance.go) fires. Everything runs on the caller's
// goroutine, so a run is a deterministic function of its inputs.

// worker is one processor: a FIFO queue of work units, a clock in cost units
// and the violations its expansions emitted. The balancer sheds from the
// front of the queue too.
type worker struct {
	q     []*unit
	head  int     // q[head:] is the live queue
	clock float64 // start-up charge + expansion costs + monitoring/transfer charges
	vios  []taggedVio
}

func (w *worker) push(u *unit) { w.q = append(w.q, u) }

// pop removes the unit at the front of the live queue, which must not be
// empty.
func (w *worker) pop() *unit {
	u := w.q[w.head]
	w.q[w.head] = nil
	w.head++
	if w.head == len(w.q) {
		w.q, w.head = w.q[:0], 0
	}
	return u
}

// run is one execution of an engine: the per-run queues and tallies.
type run struct {
	e  *engine
	ws []*worker

	// totalWork sums the expansion costs in event order, which keeps it
	// bit-reproducible
	totalWork                      float64
	units, splits, moved, balances int
}

// newRun seeds worker i's queue with initial[i] and charges startCost to
// every clock up front (candidate-neighborhood construction and
// replication).
func newRun(e *engine, initial [][]*unit, startCost float64) *run {
	r := &run{e: e, ws: make([]*worker, e.opts.P)}
	for i := range r.ws {
		r.ws[i] = &worker{clock: startCost}
		r.ws[i].q = append(r.ws[i].q, initial[i]...)
	}
	return r
}

// step processes unit u, already popped from worker wi's queue: it expands
// it, charges the cost to the worker's clock from start (the virtual time
// the unit could begin; a clock already past it just advances), tallies,
// and routes the children. Split shares go round-robin to all workers and
// become ready a broadcast latency later; ordinary children stay local.
func (r *run) step(wi int, u *unit, start float64) {
	e, w := r.e, r.ws[wi]
	res := e.expand(wi, u)
	e.recycle(wi, u) // children and violations hold copies, never aliases

	if w.clock < start {
		w.clock = start
	}
	w.clock += res.cost
	r.totalWork += res.cost
	r.units++
	w.vios = append(w.vios, res.vios...)
	if res.split {
		r.splits++
		for i, child := range res.children {
			child.ready = w.clock + trueLatency
			r.ws[i%len(r.ws)].push(child)
		}
	} else {
		for _, child := range res.children {
			child.ready = w.clock
			w.push(child)
		}
	}
	e.kids[wi] = res.children[:0]
}

// simulate is the scheduler: a discrete-event loop over the run's workers.
// The next event is always the worker whose front unit can start earliest
// (lowest index on ties) — at its own clock, or at the unit's ready time if
// that is later; when that start has reached the next multiple of Intvl,
// the monitoring round fires at that time instead.
func (r *run) simulate() {
	intvl := r.e.opts.Intvl
	nextBal := intvl
	for {
		wi, start := -1, 0.0
		for i, w := range r.ws {
			if w.head == len(w.q) {
				continue
			}
			s := w.clock
			if ready := w.q[w.head].ready; ready > s {
				s = ready
			}
			if wi < 0 || s < start {
				wi, start = i, s
			}
		}
		if wi < 0 {
			return // all queues drained
		}
		if r.e.opts.Balance && start >= nextBal {
			r.balance(nextBal)
			nextBal += intvl
			continue
		}
		r.step(wi, r.ws[wi].pop(), start)
	}
}

// exec runs the engine over the initial per-worker queues and collects the
// sorted violations and the Metrics.
func (e *engine) exec(initial [][]*unit, startCost float64) ([]taggedVio, Metrics) {
	r := newRun(e, initial, startCost)
	r.simulate()
	var vios []taggedVio
	met := Metrics{
		TotalWork:     r.totalWork,
		Units:         r.units,
		Splits:        r.splits,
		Moved:         r.moved,
		BalanceEvents: r.balances,
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
