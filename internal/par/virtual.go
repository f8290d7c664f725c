package par

// simulate is the virtual scheduler: a deterministic discrete-event loop
// over the run's workers. The next event is always the worker whose front
// unit can start earliest (lowest index on ties) — at its own clock, or at
// the unit's ready time if that is later; when that start has reached the
// next multiple of Intvl, the monitoring round fires at that time instead.
func (r *run) simulate() {
	intvl := r.e.opts.Intvl
	nextBal := intvl
	var work float64
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
			r.addWork(work)
			return // all queues drained
		}
		if r.e.opts.Balance && start >= nextBal {
			r.balance(nextBal)
			nextBal += intvl
			continue
		}
		u, _ := r.ws[wi].pop(true)
		work += r.step(wi, u, start)
	}
}
