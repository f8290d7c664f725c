package serve_test

// Serving stress + leak check (the -race CI target for the serving path):
// four snapshot readers polling Snapshot and Stats run against the single
// writer while a burst of batches is enqueued from eight goroutines at once,
// so coalescing, commits and publishes all race the reads. Then it pins that
// Server.Close tears everything down: the writer and the change feed. No
// goroutine the server owns may survive Close.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/serve"
	"ngd/internal/session"
)

func TestShardPoolStressAndGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	profile := gen.YAGO2
	ds := gen.Generate(profile, 200, 19)
	rules := gen.Rules(profile, gen.RuleConfig{Count: 8, MaxDiameter: 4, Seed: 19})

	// pre-generate the stream: gen.RandomDelta mutates the graph (node
	// arrivals), which is only safe before the writer owns it
	const batches = 8
	deltas := make([]*graph.Delta, batches)
	for b := range deltas {
		deltas[b] = gen.RandomDelta(ds, gen.DeltaConfig{
			Size: gen.DeltaSize(ds.G, 0.04), Gamma: 1, Seed: int64(1900 + b),
		})
	}
	toOps := func(d *graph.Delta) []serve.UpdateOp {
		ops := make([]serve.UpdateOp, len(d.Ops))
		for i, op := range d.Ops {
			kind := "delete"
			if op.Insert {
				kind = "insert"
			}
			ops[i] = serve.UpdateOp{
				Op:    kind,
				Src:   fmt.Sprint(int(op.Src)),
				Dst:   fmt.Sprint(int(op.Dst)),
				Label: ds.G.Symbols().LabelName(op.Label),
			}
		}
		return ops
	}

	sess := session.New(ds.G, rules, session.Options{})
	s := serve.New(sess, serve.Options{QueueDepth: 64})

	var stop atomic.Bool
	var readErr atomic.Value
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastEpoch := -1
			for !stop.Load() {
				sn := s.Snapshot()
				if sn.Epoch < lastEpoch {
					readErr.Store(fmt.Errorf("epoch went backwards: %d -> %d", lastEpoch, sn.Epoch))
					return
				}
				lastEpoch = sn.Epoch
				if len(sn.Violations()) != sn.Len() {
					readErr.Store(fmt.Errorf("snapshot inconsistent at epoch %d", sn.Epoch))
					return
				}
				_ = s.Stats()
			}
		}()
	}

	// enqueue the burst from several goroutines at once: Enqueue must be
	// safe from any goroutine, and the writer coalesces what piles up
	var senders sync.WaitGroup
	for b := range deltas {
		senders.Add(1)
		go func(b int) {
			defer senders.Done()
			if _, err := s.Enqueue(toOps(deltas[b])); err != nil {
				readErr.Store(fmt.Errorf("enqueue batch %d: %w", b, err))
			}
		}(b)
	}
	senders.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	if err, ok := readErr.Load().(error); ok && err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().Epoch == 0 {
		t.Fatal("no commits observed")
	}
	if err := sess.Recheck(); err != nil {
		t.Fatalf("store invariant after serving: %v", err)
	}

	// Close tears down the writer: the process goroutine count must return
	// to its pre-server baseline.
	s.Close()
	s.Close() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked past Server.Close: %d alive, baseline %d\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFullQueueParksOnlyItsSenders holds the writer inside a commit, so
// that with a one-slot ingest queue N enqueuers pile up: one fills the slot
// and the rest park on the full queue. A parked sender must hold up neither
// the other enqueuers nor Close: every enqueuer reaches the queue, a Close
// started meanwhile refuses new work at once, and once the writer is
// released Close returns with every accepted op acked exactly once and
// committed.
func TestFullQueueParksOnlyItsSenders(t *testing.T) {
	sess, names := tinyWorld(t)
	var hold sync.Once
	held, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	s := serve.New(sess, serve.Options{QueueDepth: 1, Names: names, AfterCommit: func(session.BatchStats) {
		hold.Do(func() { close(held); <-release })
	}})
	person := func(id string) []serve.UpdateOp {
		return []serve.UpdateOp{{Op: "node", ID: id, Label: "person"}}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	var (
		mu       sync.Mutex
		accepted []*serve.Ack
	)
	accept := func(ack *serve.Ack) {
		mu.Lock()
		accepted = append(accepted, ack)
		mu.Unlock()
	}
	first, err := s.Enqueue(person("p0"))
	if err != nil {
		t.Fatal(err)
	}
	accept(first)
	<-held // the writer sits in p0's commit

	const n = 8
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ack, err := s.Enqueue(person(fmt.Sprintf("p%d", i)))
			if err != nil {
				t.Errorf("enqueuer %d, admitted before Close: %v", i, err)
				return
			}
			accept(ack)
		}()
	}
	waitFor("every enqueuer to reach the queue (p0 in the writer, one in the slot, the rest parked)",
		func() bool { return s.Stats().Queued == n+1 })

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	// Close refuses new work while the senders are still parked; a fresh
	// Enqueue that beat it to the mutex parks too and is accepted
	refused := false
	for deadline := time.Now().Add(5 * time.Second); !refused; {
		if time.Now().After(deadline) {
			t.Fatal("Enqueue not refused while Close waits on parked senders")
		}
		res := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ack, err := s.Enqueue(nil)
			if err == nil {
				accept(ack)
			}
			res <- err
		}()
		select {
		case err := <-res:
			if !errors.Is(err, serve.ErrClosed) {
				t.Fatalf("fresh Enqueue during Close: %v", err)
			}
			refused = true
		case <-time.After(50 * time.Millisecond):
		}
	}

	unblock()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the writer was released")
	}
	wg.Wait() // every enqueuer, the parked fresh ones too, has returned
	for i, ack := range accepted {
		select {
		case <-ack.Done():
		default:
			t.Fatalf("accepted op %d never acked", i)
		}
		if ack.Epoch() < 1 {
			t.Fatalf("accepted op %d acked at epoch %d", i, ack.Epoch())
		}
	}
	if st := s.Stats(); st.Queued != 0 || st.Enqueued != int64(len(accepted)) {
		t.Fatalf("queued %d, enqueued %d, accepted %d: an ack went missing or twice", st.Queued, st.Enqueued, len(accepted))
	}
	if got, want := s.Snapshot().Nodes, 2+1+n; got != want {
		t.Fatalf("%d nodes after Close, want %d: an accepted op was not committed", got, want)
	}
}
