package par

import (
	"testing"

	"ngd/internal/detect"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/ref"
)

// mkUnits builds n distinguishable units (pivotRank doubles as identity).
func mkUnits(n int) []*unit {
	us := make([]*unit, n)
	for i := range us {
		us[i] = &unit{pivotRank: i}
	}
	return us
}

// balScenario is one monitoring-round table entry: worker 0 is the
// overloaded sender, workers 1.. hold resident units. Every unit weighs 1
// (no maintained stats), so the arithmetic is checkable by hand: avg =
// total/p, senders above η·avg shed ⌊load − avg⌋ from the front, receivers
// below η′·avg accept at most ⌊avg − load⌋.
type balScenario struct {
	name      string
	sender    int   // units on the overloaded worker 0
	recv      []int // resident units on workers 1..
	wantMoved int
}

var balScenarios = []balScenario{
	// one overloaded sender, one empty and two lightly-loaded receivers, so
	// both the front-shedding order and the per-receiver deficit caps are
	// observable: avg 6.25, deficits 6/3/4 = 13 < excess ⌊13.75⌋
	{"pinned-20-recv-0-3-2", 20, []int{0, 3, 2}, 13},
	// single hot shard at p=8: avg 8.75, 7 receivers × deficit 8 = 56,
	// excess ⌊61.25⌋ = 61 capped by the exhausted deficits
	{"single-hot-shard-p8", 70, []int{0, 0, 0, 0, 0, 0, 0}, 56},
	// deficits and excess meet exactly: avg 8, 4 × deficit 8 = 32 = excess
	{"deficits-exhaust-exactly", 40, []int{0, 0, 0, 0}, 32},
	// mixed receivers: avg 14.5, only loads 0 and 1 are under η′·avg
	// (deficits 14 + 13 = 27 < excess 35)
	{"mixed-receivers", 50, []int{0, 12, 1, 12, 12}, 27},
	// near-even loads: nobody above η·avg, nobody below η′·avg — no-op
	{"no-skew-no-op", 12, []int{10, 11, 9}, 0},
}

// TestBalanceRound runs every scenario through the monitoring round at
// T=1000, the way the scheduler calls it, and checks the exact outcome: the
// moved count, the front of the sender's queue shed in order, every receiver
// within its deficit, xferCharge and ready = T+latency on the moved units,
// latency/2 of monitoring on every clock and xferCPU per moved unit on the
// sender's — and no unit lost or duplicated.
func TestBalanceRound(t *testing.T) {
	for _, sc := range balScenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Run("single", func(t *testing.T) { checkBalanceRound(t, sc) })
		})
	}
}

func checkBalanceRound(t *testing.T, sc balScenario) {
	const T = 1000.0
	p := 1 + len(sc.recv)
	initial := make([][]*unit, p)
	initial[0] = mkUnits(sc.sender)
	total := sc.sender
	for i, n := range sc.recv {
		// receiver-resident units carry negative ids to tell them apart
		for j := 0; j < n; j++ {
			initial[i+1] = append(initial[i+1], &unit{pivotRank: -(100*i + j + 1)})
		}
		total += n
	}
	r := newRun(&engine{opts: Options{P: p}.Defaults()}, initial, 0)
	ws := r.ws
	r.balance(T)

	moved := r.moved
	if r.balances != 1 {
		t.Errorf("round counted %d times, want 1", r.balances)
	}
	if moved != sc.wantMoved {
		t.Fatalf("moved %d units, want %d", moved, sc.wantMoved)
	}

	// front-shedding: units 0..moved-1 left, the sender keeps the rest in
	// place
	kept := ws[0].q[ws[0].head:]
	if len(kept) != sc.sender-moved {
		t.Fatalf("sender kept %d units, want %d", len(kept), sc.sender-moved)
	}
	for i, u := range kept {
		if u.pivotRank != moved+i {
			t.Fatalf("sender kept unit %d at position %d, want %d (tail not front was shed)",
				u.pivotRank, i, moved+i)
		}
	}

	// monitoring cost on every clock; serialization cost on the sender's
	monitored := T + trueLatency/2
	if want := monitored + xferCPU*float64(moved); ws[0].clock != want {
		t.Errorf("sender clock %v, want %v (monitor + serialize)", ws[0].clock, want)
	}
	avg := float64(total) / float64(p)
	seen := make(map[int]bool)
	for i, before := range sc.recv {
		w := ws[i+1]
		if w.clock != monitored {
			t.Errorf("receiver %d clock %v, want monitoring %v", i, w.clock, monitored)
		}
		// deficit cap: a receiver under η′·avg accepts at most ⌊avg − load⌋
		deficit := 0
		if float64(before) < etaLow*avg {
			deficit = int(avg) - before
		}
		q := w.q[w.head:]
		for j, u := range q[:before] {
			if u.pivotRank != -(100*i+j+1) || u.xferCharge != 0 {
				t.Errorf("receiver %d resident unit %d disturbed", i, j)
			}
		}
		for _, u := range q[before:] {
			if u.pivotRank < 0 || u.pivotRank >= moved || seen[u.pivotRank] {
				t.Errorf("receiver %d holds unit %d: not one of the %d shed, or held twice", i, u.pivotRank, moved)
			}
			seen[u.pivotRank] = true
			if u.xferCharge != xferCPU {
				t.Errorf("transferred unit %d missing xferCharge", u.pivotRank)
			}
			if u.ready != T+trueLatency {
				t.Errorf("transferred unit %d ready=%v, want %v", u.pivotRank, u.ready, T+trueLatency)
			}
		}
		if accepted := len(q) - before; accepted > deficit {
			t.Errorf("receiver %d accepted %d units, deficit cap %d", i, accepted, deficit)
		}
	}
	if len(seen) != moved {
		t.Errorf("receivers hold %d shed units, the round reported %d moved", len(seen), moved)
	}
}

// TestWorkerFoldsFragments: p greater than the partition's fragment count
// folds shard ownership (partition.worker = owner mod p), and p < 1 folds
// everything onto shard 0.
func TestWorkerFoldsFragments(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 200, 81)
	pt := greedy(ds.G, 3) // 3 fragments, 8 shards

	for v := 0; v < ds.G.NumNodes(); v++ {
		id := graph.NodeID(v)
		if w := pt.worker(id, 8); w != pt.owner(id)%8 || w < 0 || w >= 8 {
			t.Fatalf("worker(%d, 8) = %d, owner %d", v, w, pt.owner(id))
		}
		if pt.worker(id, 0) != 0 {
			t.Fatalf("worker(%d, p<1) must fold to shard 0", v)
		}
	}
}

// TestRealDriverDifferentialP3: PDect and PIncDect at p=3 produce exactly
// the sequential answers (odd p exercises the round-robin broadcast paths).
func TestRealDriverDifferentialP3(t *testing.T) {
	ds := gen.Generate(gen.Pokec, 250, 41)
	rules := gen.Rules(gen.Pokec, gen.RuleConfig{Count: 10, MaxDiameter: 4, Seed: 41})
	d := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.12), Gamma: 1, Seed: 42})

	opts := Hybrid(3)

	wantBatch := detect.Dect(ds.G, rules, detect.Options{}).Violations
	gotBatch := PDect(ds.G, rules, opts)
	if ref.Keys(gotBatch.Violations) != ref.Keys(wantBatch) {
		t.Errorf("PDect p=3: got %d violations, want %d",
			len(gotBatch.Violations), len(wantBatch))
	}

	wantInc := inc.IncDect(ds.G, rules, d, inc.Options{})
	gotInc := PIncDect(ds.G, rules, d, opts)
	if ref.Keys(gotInc.Delta.Plus) != ref.Keys(wantInc.Plus) || ref.Keys(gotInc.Delta.Minus) != ref.Keys(wantInc.Minus) {
		t.Errorf("PIncDect p=3: ΔVio⁺ %d/%d ΔVio⁻ %d/%d",
			len(gotInc.Delta.Plus), len(wantInc.Plus),
			len(gotInc.Delta.Minus), len(wantInc.Minus))
	}
}

// TestPIncDectManyWorkers is the p=130 regression for the partition int8
// overflow: `int8(v % p)` wrapped negative for p > 127, so Owner returned
// a negative fragment and the seed distribution panicked.
func TestPIncDectManyWorkers(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 200, 51)
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 8, MaxDiameter: 4, Seed: 51})
	d := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.1), Gamma: 1, Seed: 52})

	want := inc.IncDect(ds.G, rules, d, inc.Options{})
	got := PIncDect(ds.G, rules, d, Hybrid(130))
	if ref.Keys(got.Delta.Plus) != ref.Keys(want.Plus) || ref.Keys(got.Delta.Minus) != ref.Keys(want.Minus) {
		t.Errorf("PIncDect p=130 diverges from IncDect")
	}
}
