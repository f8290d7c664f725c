package par

import (
	"reflect"
	"testing"

	"ngd/internal/gen"
)

// oracleGolden pins the virtual scheduler's Metrics to the values the
// two-driver implementation produced at commit e7f7da7 (captured there,
// pasted here, never regenerated by a refactor): the fig4 curves are
// functions of these numbers, and TestVirtualDeterminism only compares two
// runs of the same binary. The table was re-recorded once since, when the
// ¬Y cut (plan.Cut) and the planner's cut-first step removed candidates:
// work, units and the schedule moved, NC did not, and the violation sets
// are held to internal/ref by the differential suites. The PIncDect rows
// were re-recorded again when G ⊕ ΔG became a fork of G, whose edge-value
// indexes are exact, so the cut fires on the ΔVio⁺ side where the overlay
// masked it; NC did not move. Floats compare exactly — the event order, the
// queue discipline (FIFO pop, front shed) and every charge are part of the
// oracle's contract, down to the order TotalWork is summed in.
var oracleGolden = []struct {
	workload string
	p        int
	run      string
	want     Metrics
}{
	{"pokec", 4, "PDect", Metrics{Makespan: 1496, TotalWork: 5765, Units: 6257, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 0,
		WorkerCost: []float64{1496, 1445, 1456, 1368}}},
	{"pokec", 4, "PIncDect", Metrics{Makespan: 1407, TotalWork: 744, Units: 1282, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 4304,
		WorkerCost: []float64{1407, 1350, 1309, 1222}}},
	{"pokec", 4, "PIncDect_ns", Metrics{Makespan: 1407, TotalWork: 744, Units: 1282, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 4304,
		WorkerCost: []float64{1407, 1350, 1309, 1222}}},
	{"pokec", 4, "PIncDect_nb", Metrics{Makespan: 1407, TotalWork: 744, Units: 1282, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 4304,
		WorkerCost: []float64{1407, 1350, 1309, 1222}}},
	{"pokec", 4, "PIncDect_NO", Metrics{Makespan: 1407, TotalWork: 744, Units: 1282, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 4304,
		WorkerCost: []float64{1407, 1350, 1309, 1222}}},
	{"pokec", 8, "PDect", Metrics{Makespan: 772, TotalWork: 5765, Units: 6273, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 0,
		WorkerCost: []float64{772, 743, 701, 738, 743, 713, 678, 677}}},
	{"pokec", 8, "PIncDect", Metrics{Makespan: 754, TotalWork: 744, Units: 1282, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 4304,
		WorkerCost: []float64{722, 715, 669, 662, 754, 684, 662, 660}}},
	{"pokec", 8, "PIncDect_ns", Metrics{Makespan: 754, TotalWork: 744, Units: 1282, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 4304,
		WorkerCost: []float64{722, 715, 669, 662, 754, 684, 662, 660}}},
	{"pokec", 8, "PIncDect_nb", Metrics{Makespan: 754, TotalWork: 744, Units: 1282, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 4304,
		WorkerCost: []float64{722, 715, 669, 662, 754, 684, 662, 660}}},
	{"pokec", 8, "PIncDect_NO", Metrics{Makespan: 754, TotalWork: 744, Units: 1282, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 4304,
		WorkerCost: []float64{722, 715, 669, 662, 754, 684, 662, 660}}},
	{"yago2", 4, "PDect", Metrics{Makespan: 1192, TotalWork: 4643, Units: 5764, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 0,
		WorkerCost: []float64{1188, 1192, 1155, 1108}}},
	{"yago2", 4, "PIncDect", Metrics{Makespan: 992, TotalWork: 381, Units: 716, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 3312,
		WorkerCost: []float64{986, 963, 992, 992}}},
	{"yago2", 4, "PIncDect_ns", Metrics{Makespan: 992, TotalWork: 381, Units: 716, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 3312,
		WorkerCost: []float64{986, 963, 992, 992}}},
	{"yago2", 4, "PIncDect_nb", Metrics{Makespan: 992, TotalWork: 381, Units: 716, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 3312,
		WorkerCost: []float64{986, 963, 992, 992}}},
	{"yago2", 4, "PIncDect_NO", Metrics{Makespan: 992, TotalWork: 381, Units: 716, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 3312,
		WorkerCost: []float64{986, 963, 992, 992}}},
	{"yago2", 8, "PDect", Metrics{Makespan: 604, TotalWork: 4643, Units: 5822, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 0,
		WorkerCost: []float64{585, 601, 596, 604, 582, 569, 546, 560}}},
	{"yago2", 8, "PIncDect", Metrics{Makespan: 550, TotalWork: 381, Units: 716, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 3312,
		WorkerCost: []float64{507, 522, 504, 515, 528, 550, 529, 518}}},
	{"yago2", 8, "PIncDect_ns", Metrics{Makespan: 550, TotalWork: 381, Units: 716, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 3312,
		WorkerCost: []float64{507, 522, 504, 515, 528, 550, 529, 518}}},
	{"yago2", 8, "PIncDect_nb", Metrics{Makespan: 550, TotalWork: 381, Units: 716, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 3312,
		WorkerCost: []float64{507, 522, 504, 515, 528, 550, 529, 518}}},
	{"yago2", 8, "PIncDect_NO", Metrics{Makespan: 550, TotalWork: 381, Units: 716, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 3312,
		WorkerCost: []float64{507, 522, 504, 515, 528, 550, 529, 518}}},
}

func TestOracleGolden(t *testing.T) {
	workloads := map[string]struct {
		profile gen.Profile
		n       int
		seed    int64
	}{
		"pokec": {gen.Pokec, 500, 77},
		"yago2": {gen.YAGO2, 400, 3},
	}
	for name, w := range workloads {
		ds := gen.Generate(w.profile, w.n, w.seed)
		rules := gen.Rules(w.profile, gen.RuleConfig{Count: 10, MaxDiameter: 5, Seed: w.seed})
		d := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.2), Gamma: 1, Seed: w.seed + 1})
		for _, g := range oracleGolden {
			if g.workload != name {
				continue
			}
			var got Metrics
			switch g.run {
			case "PDect":
				got = PDect(ds.G, rules, Hybrid(g.p)).Metrics
			case "PIncDect":
				got = PIncDect(ds.G, rules, d, Hybrid(g.p)).Metrics
			case "PIncDect_ns":
				got = PIncDect(ds.G, rules, d, VariantNS(g.p)).Metrics
			case "PIncDect_nb":
				got = PIncDect(ds.G, rules, d, VariantNB(g.p)).Metrics
			case "PIncDect_NO":
				got = PIncDect(ds.G, rules, d, VariantNO(g.p)).Metrics
			default:
				t.Fatalf("unknown run %q", g.run)
			}
			if !reflect.DeepEqual(got, g.want) {
				t.Errorf("%s p=%d %s:\n got %+v\nwant %+v", name, g.p, g.run, got, g.want)
			}
		}
	}
}
