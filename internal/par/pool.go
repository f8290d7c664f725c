package par

// The goroutine scheduler: p long-lived shard goroutines — one per
// partition fragment — plus one balancer goroutine, kept in a Pool so a
// caller running detection after detection (ngdbench shards times repeated
// runs) does not respawn them. A Pool serves one run at a time (concurrent
// runs serialize), and Close terminates the goroutines deterministically:
// pool_test.go pins that nothing survives it. This is the only file of the
// package that may read the wall clock (cmd/ngdlint).

import (
	"sync"
	"time"
)

// work is the shard loop for worker wi: pop the back of its queue and step,
// parking on the wake channel while the queue is empty, until the run's
// pending count drains to zero.
func (r *run) work(wi int) {
	self := r.ws[wi]
	var work float64
	for {
		u, ok := self.pop(false)
		if !ok {
			select {
			case <-r.done:
				r.addWork(work)
				return
			case <-self.wake:
				continue
			}
		}
		work += r.step(wi, u, 0)
	}
}

// monitor is the paper's workload monitor at interval intvl: every tick it
// runs one balance round until the run drains.
func (r *run) monitor() {
	// interpret Intvl cost units as microseconds at real-time scale
	// (1 cost unit ≈ 1 µs of work)
	tick := time.Duration(r.e.opts.Intvl) * time.Microsecond
	if tick < 100*time.Microsecond {
		tick = 100 * time.Microsecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
			r.balance(0)
		}
	}
}

// Pool is a set of shard goroutines for the goroutine scheduler. Create with
// NewPool, hand to the engine via Options.Pool, stop with Close. The
// zero-value Pool is not usable.
type Pool struct {
	p    int
	mu   sync.Mutex // serializes runs; Close waits for the in-flight one
	work []chan *run
	bal  chan *run
	quit chan struct{}
	wg   sync.WaitGroup

	closed bool
}

// NewPool starts p shard goroutines plus the balancer goroutine
// (p <= 0 uses the default worker count).
func NewPool(p int) *Pool {
	if p <= 0 {
		p = Options{}.Defaults().P
	}
	pl := &Pool{
		p:    p,
		work: make([]chan *run, p),
		bal:  make(chan *run),
		quit: make(chan struct{}),
	}
	for i := 0; i < p; i++ {
		pl.work[i] = make(chan *run)
		pl.wg.Add(1)
		go func(i int) {
			defer pl.wg.Done()
			for {
				select {
				case <-pl.quit:
					return
				case r := <-pl.work[i]:
					r.work(i)
					r.wg.Done()
				}
			}
		}(i)
	}
	pl.wg.Add(1)
	go func() {
		defer pl.wg.Done()
		for {
			select {
			case <-pl.quit:
				return
			case r := <-pl.bal:
				r.monitor()
				r.wg.Done()
			}
		}
	}()
	return pl
}

// Size reports the number of shard goroutines.
func (pl *Pool) Size() int { return pl.p }

// run executes r on the pool's shards, blocking until the run drains. It
// reports false — without running anything — when the pool is closed or
// sized differently from the run's worker count; the caller (engine.exec)
// then runs r on a temporary pool of the right size.
func (pl *Pool) run(r *run) bool {
	if len(r.ws) != pl.p {
		return false
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return false
	}
	r.wg.Add(pl.p)
	if r.e.opts.Balance {
		r.wg.Add(1)
	}
	for i := 0; i < pl.p; i++ {
		pl.work[i] <- r
	}
	if r.e.opts.Balance {
		pl.bal <- r
	}
	r.wg.Wait()
	return true
}

// Close terminates the shard goroutines and blocks until they have exited.
// Idempotent; an in-flight run completes first (run holds the pool while
// active). Runs attempted after Close use a temporary pool each.
func (pl *Pool) Close() {
	pl.mu.Lock()
	if !pl.closed {
		pl.closed = true
		close(pl.quit)
	}
	pl.mu.Unlock()
	pl.wg.Wait()
}
