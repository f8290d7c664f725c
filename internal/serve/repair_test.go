package serve_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"ngd/internal/gen"
	"ngd/internal/repair"
	"ngd/internal/serve"
	"ngd/internal/session"
)

// TestRepairHTTPRoundTrip drives the full repair cycle over HTTP: preview a
// violation, apply the top-ranked fix as an ordinary commit, and observe the
// consequences everywhere a commit is visible — the store shrinks, the
// change feed emits the removal, the epoch advances, and the session's
// store ≡ Dect(Σ, G') invariant holds on the post-fix graph.
func TestRepairHTTPRoundTrip(t *testing.T) {
	sess, names := tinyWorld(t)
	s := serve.New(sess, serve.Options{Names: names})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	vios := s.Snapshot().Violations()
	if len(vios) != 1 {
		t.Fatalf("seed store: %d violations, want 1", len(vios))
	}
	key := vios[0].Key()
	epoch0 := s.Snapshot().Epoch

	// preview: ranked fixes, no mutation
	var prev struct {
		Epoch  int            `json:"epoch"`
		Result *repair.Result `json:"result"`
	}
	if code := postJSON(t, srv, "/repair/preview", map[string]any{"key": key}, &prev); code != 200 {
		t.Fatalf("preview: status %d", code)
	}
	if len(prev.Result.Fixes) == 0 {
		t.Fatalf("preview: no fixes: %+v", prev.Result)
	}
	if s.Snapshot().Epoch != epoch0 {
		t.Fatalf("preview moved the epoch %d → %d", epoch0, s.Snapshot().Epoch)
	}
	for _, f := range prev.Result.Fixes {
		ok := false
		for _, c := range f.Clears {
			if c == key {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("fix %s does not clear the target", f.ID)
		}
	}

	// error contract: stale key 409, unknown fix id 404, bad body 400
	var errResp map[string]any
	if code := postJSON(t, srv, "/repair/preview", map[string]any{"key": "nope:0"}, &errResp); code != 409 {
		t.Fatalf("stale preview: status %d, want 409 (%v)", code, errResp)
	}
	if code := postJSON(t, srv, "/repair/apply", map[string]any{"key": key, "fix": "bogus"}, &errResp); code != 404 {
		t.Fatalf("unknown fix: status %d, want 404 (%v)", code, errResp)
	}
	if code := postJSON(t, srv, "/repair/apply", map[string]any{}, &errResp); code != 400 {
		t.Fatalf("missing key: status %d, want 400 (%v)", code, errResp)
	}

	// subscribe before applying so the removal event is observable
	sub, err := s.Subscribe(epoch0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var applied struct {
		Applied   bool       `json:"applied"`
		Epoch     int        `json:"epoch"`
		Fix       repair.Fix `json:"fix"`
		Cleared   []string   `json:"cleared"`
		Remaining int        `json:"remaining"`
	}
	if code := postJSON(t, srv, "/repair/apply", map[string]any{"key": key}, &applied); code != 200 {
		t.Fatalf("apply: status %d", code)
	}
	if !applied.Applied || applied.Epoch <= epoch0 {
		t.Fatalf("apply response %+v, want applied at a later epoch", applied)
	}
	if applied.Fix.ID != prev.Result.Fixes[0].ID {
		t.Fatalf("applied fix %s, want the top-ranked %s", applied.Fix.ID, prev.Result.Fixes[0].ID)
	}
	if applied.Remaining != 0 {
		t.Fatalf("remaining %d, want 0", applied.Remaining)
	}

	// the commit is ordinary: snapshot shrank, feed emitted the removal
	if sn := s.Snapshot(); sn.Len() != 0 || sn.Epoch != applied.Epoch {
		t.Fatalf("snapshot after apply: len %d epoch %d, want 0 at %d", sn.Len(), sn.Epoch, applied.Epoch)
	}
	select {
	case ev := <-sub.C:
		found := false
		for _, rm := range ev.Commit.Removed {
			if rm.Key == key {
				found = true
			}
		}
		if !found {
			t.Fatalf("feed event %+v lacks the cleared key %s", ev, key)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no feed event after apply")
	}

	// a second apply on the now-cleared key is stale
	if code := postJSON(t, srv, "/repair/apply", map[string]any{"key": key}, &errResp); code != 409 {
		t.Fatalf("re-apply: status %d, want 409 (%v)", code, errResp)
	}

	s.Close()
	if err := sess.Recheck(); err != nil {
		t.Fatalf("store invariant after repair: %v", err)
	}
}

// TestRepairPreviewRaceWithCommits is the -race anchor for the repair path:
// concurrent /repair/preview requests against a committing writer must see
// consistent state (previews serialize with commits on the writer), the
// server must shut down cleanly under fire, and no goroutine may outlive
// Close.
func TestRepairPreviewRaceWithCommits(t *testing.T) {
	before := runtime.NumGoroutine()

	profile := gen.Synthetic
	ds := gen.Generate(profile, 150, 11)
	rules := gen.Rules(profile, gen.RuleConfig{Count: 8, MaxDiameter: 4, Seed: 11})
	const batches = 5
	deltas := make([][]serve.UpdateOp, batches)
	for b := range deltas {
		d := gen.RandomDelta(ds, gen.DeltaConfig{
			Size: gen.DeltaSize(ds.G, 0.05), Gamma: 1, Seed: int64(1100 + b),
		})
		deltas[b] = deltaOps(ds, d)
	}

	sess := session.New(ds.G, rules, session.Options{})
	s := serve.New(sess, serve.Options{})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				vios := s.Snapshot().Violations()
				if len(vios) == 0 {
					continue
				}
				key := vios[rng.Intn(len(vios))].Key()
				res, err := s.PreviewRepair(key, repair.Options{MaxFixes: 2})
				if err != nil {
					// racing a commit that cleared the key, or shutdown
					if errors.Is(err, session.ErrNoViolation) || errors.Is(err, serve.ErrClosed) {
						continue
					}
					errCh <- fmt.Errorf("preview %s: %w", key, err)
					return
				}
				// every returned fix must clear the target it was asked for
				for _, f := range res.Fixes {
					ok := false
					for _, c := range f.Clears {
						if c == key {
							ok = true
						}
					}
					if !ok {
						errCh <- fmt.Errorf("fix %s of %s misses its target", f.ID, key)
						return
					}
				}
			}
		}(int64(w))
	}

	for _, ops := range deltas {
		ack, err := s.Enqueue(ops)
		if err != nil {
			t.Fatal(err)
		}
		<-ack.Done()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	s.Close()
	if _, err := s.PreviewRepair("any:0", repair.Options{}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("preview after Close: %v, want ErrClosed", err)
	}
	if err := sess.Recheck(); err != nil {
		t.Fatalf("store invariant after racing previews: %v", err)
	}

	// PR 7 teardown baseline: nothing the server owned may survive Close
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
