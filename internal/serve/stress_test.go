package serve_test

// Serving stress + leak check (the -race CI target for the serving path):
// four snapshot readers polling Snapshot and Stats run against the single
// writer while a burst of batches is enqueued from eight goroutines at once,
// so coalescing, commits and publishes all race the reads. Then it pins that
// Server.Close tears everything down: the writer and the change feed. No
// goroutine the server owns may survive Close.

import (
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
