package par

import (
	"runtime"
	"testing"
	"time"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/gen"
	"ngd/internal/inc"
	"ngd/internal/update"
)

// TestPoolReusedAcrossRuns: a persistent pool serves many PDect/PIncDect
// runs without respawning shards, and the pooled answers are identical to
// the ephemeral (temporary pool per call) ones and to the sequential
// algorithms.
func TestPoolReusedAcrossRuns(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 220, 71)
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 10, MaxDiameter: 4, Seed: 71})

	pl := NewPool(4)
	defer pl.Close()
	if pl.Size() != 4 {
		t.Fatalf("pool size %d, want 4", pl.Size())
	}

	pooled := Hybrid(4)
	pooled.Pool = pl
	ephemeral := Hybrid(4)

	wantBatch := detect.Dect(ds.G, rules, detect.Options{}).Violations
	for run := 0; run < 3; run++ {
		got := PDect(ds.G, rules, pooled)
		if !equalKeys(got.Violations, wantBatch) {
			t.Fatalf("pooled PDect run %d: %d violations, want %d",
				run, len(got.Violations), len(wantBatch))
		}
		eph := PDect(ds.G, rules, ephemeral)
		if !equalKeys(got.Violations, eph.Violations) {
			t.Fatalf("run %d: pooled and ephemeral PDect disagree", run)
		}
	}

	for trial := 0; trial < 2; trial++ {
		d := update.Random(ds, update.Config{
			Size: update.SizeFor(ds.G, 0.1), Gamma: 1, Seed: int64(72 + trial),
		})
		want := inc.IncDect(ds.G, rules, d, inc.Options{})
		got := PIncDect(ds.G, rules, d, pooled)
		if !equalKeys(got.Delta.Plus, want.Plus) || !equalKeys(got.Delta.Minus, want.Minus) {
			t.Fatalf("pooled PIncDect trial %d diverges from IncDect", trial)
		}
	}
}

// waitGoroutines polls until the process goroutine count is back at
// baseline (a goroutine's exit trails the WaitGroup signal Close waits on by
// a few instructions).
func waitGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines alive, baseline %d",
				what, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoolSizeMismatchFallback: a pool sized differently from Options.P
// must not be used — the run borrows a temporary pool of the right size,
// stays correct, and has closed that pool by the time it returns.
func TestPoolSizeMismatchFallback(t *testing.T) {
	ds := gen.Generate(gen.Pokec, 180, 73)
	rules := gen.Rules(gen.Pokec, gen.RuleConfig{Count: 8, MaxDiameter: 4, Seed: 73})

	pl := NewPool(2)
	defer pl.Close()
	opts := Hybrid(4) // mismatched: pool has 2 shards
	opts.Pool = pl

	want := detect.Dect(ds.G, rules, detect.Options{}).Violations
	baseline := runtime.NumGoroutine() // includes the 2-shard pool
	got := PDect(ds.G, rules, opts)
	if !equalKeys(got.Violations, want) {
		t.Fatalf("size-mismatch fallback: %d violations, want %d",
			len(got.Violations), len(want))
	}
	waitGoroutines(t, baseline, "temporary pool of the mis-sized run leaked")
}

// TestPoolClosedFallback: runs attempted after Close borrow a temporary
// pool each and leave no goroutine behind; Close is idempotent.
func TestPoolClosedFallback(t *testing.T) {
	ds := gen.Generate(gen.DBpedia, 180, 75)
	rules := gen.Rules(gen.DBpedia, gen.RuleConfig{Count: 8, MaxDiameter: 4, Seed: 75})

	baseline := runtime.NumGoroutine()
	pl := NewPool(4)
	opts := Hybrid(4)
	opts.Pool = pl

	want := detect.Dect(ds.G, rules, detect.Options{}).Violations
	if got := PDect(ds.G, rules, opts); !equalKeys(got.Violations, want) {
		t.Fatal("pooled PDect before Close diverges")
	}
	pl.Close()
	pl.Close() // idempotent
	waitGoroutines(t, baseline, "closed pool leaked")
	if got := PDect(ds.G, rules, opts); !equalKeys(got.Violations, want) {
		t.Fatal("post-Close fallback PDect diverges")
	}
	waitGoroutines(t, baseline, "temporary pool of the post-Close run leaked")
}

// TestPoolEmptyWork: a run with no work units must drain immediately on
// the pool, and leave it usable.
func TestPoolEmptyWork(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 60, 77)
	pl := NewPool(3)
	defer pl.Close()
	opts := Hybrid(3)
	opts.Pool = pl

	if r := PDect(ds.G, core.NewSet(), opts); len(r.Violations) != 0 {
		t.Error("pooled PDect with no rules returned violations")
	}
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 4, MaxDiameter: 3, Seed: 77})
	d := update.Random(ds, update.Config{Size: 0, Gamma: 1, Seed: 1})
	if r := PIncDect(ds.G, rules, d, opts); len(r.Delta.Plus)+len(r.Delta.Minus) != 0 {
		t.Error("pooled PIncDect with empty delta returned changes")
	}
	// the pool survived the empty runs
	want := detect.Dect(ds.G, rules, detect.Options{}).Violations
	if got := PDect(ds.G, rules, opts); !equalKeys(got.Violations, want) {
		t.Error("pool unusable after empty runs")
	}
}

// TestPoolGoroutinesExit: Close terminates every shard goroutine — the
// process goroutine count returns to its pre-pool baseline.
func TestPoolGoroutinesExit(t *testing.T) {
	ds := gen.Generate(gen.Pokec, 150, 79)
	rules := gen.Rules(gen.Pokec, gen.RuleConfig{Count: 8, MaxDiameter: 4, Seed: 79})

	baseline := runtime.NumGoroutine()
	pl := NewPool(6)
	opts := Hybrid(6)
	opts.Pool = pl
	PDect(ds.G, rules, opts)
	if n := runtime.NumGoroutine(); n < baseline+6 {
		t.Fatalf("pool running: %d goroutines, want >= baseline %d + 6", n, baseline)
	}
	pl.Close()
	waitGoroutines(t, baseline, "shard goroutines leaked")
}
