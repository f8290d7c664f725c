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
// runs of the same binary. Floats compare exactly — the event order, the
// queue discipline (FIFO pop, front shed) and every charge are part of the
// oracle's contract, down to the order TotalWork is summed in.
var oracleGolden = []struct {
	workload string
	p        int
	run      string
	want     Metrics
}{
	{"pokec", 4, "PDect", Metrics{Makespan: 16452.5, TotalWork: 57444.49999999858, Units: 36012, Splits: 0, Moved: 975, BalanceEvents: 8, NC: 0,
		WorkerCost: []float64{16417.500000000062, 16452.5, 16417.500000000062, 16417.500000000062}}},
	{"pokec", 4, "PIncDect", Metrics{Makespan: 8373.2, TotalWork: 24570.199999998847, Units: 17090, Splits: 66, Moved: 792, BalanceEvents: 4, NC: 4304,
		WorkerCost: []float64{8373.2, 8306.400000000096, 8304.400000000096, 8306.400000000096}}},
	{"pokec", 4, "PIncDect_ns", Metrics{Makespan: 9443.5, TotalWork: 24454.49999999573, Units: 16826, Splits: 0, Moved: 2935, BalanceEvents: 4, NC: 4304,
		WorkerCost: []float64{9443.5, 9350.900000000294, 9394.300000000387, 9406.300000000387}}},
	{"pokec", 4, "PIncDect_nb", Metrics{Makespan: 8832, TotalWork: 24491, Units: 17090, Splits: 66, Moved: 0, BalanceEvents: 0, NC: 4304,
		WorkerCost: []float64{8832, 6955, 6951, 6300}}},
	{"pokec", 4, "PIncDect_NO", Metrics{Makespan: 12484, TotalWork: 24161, Units: 16826, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 4304,
		WorkerCost: []float64{12484, 8164, 3214, 4843}}},
	{"pokec", 8, "PDect", Metrics{Makespan: 8533, TotalWork: 57429.4999999988, Units: 36028, Splits: 0, Moved: 825, BalanceEvents: 4, NC: 0,
		WorkerCost: []float64{8243, 8241.50000000006, 8241.50000000006, 8333.5, 8241.50000000006, 8533, 8241.50000000006, 8241.50000000006}}},
	{"pokec", 8, "PIncDect", Metrics{Makespan: 4110.600000000002, TotalWork: 25067.79999999964, Units: 17498, Splits: 84, Moved: 248, BalanceEvents: 2, NC: 4304,
		WorkerCost: []float64{4108, 4082.999999999998, 4105.8, 4110.600000000002, 4110.600000000002, 4110.600000000002, 4109.500000000002, 4109.500000000002}}},
	{"pokec", 8, "PIncDect_ns", Metrics{Makespan: 5121, TotalWork: 24311.899999997804, Units: 16826, Splits: 0, Moved: 1509, BalanceEvents: 2, NC: 4304,
		WorkerCost: []float64{4676.9, 4804, 5121, 4488.20000000011, 4495.20000000011, 4350.200000000083, 4354.200000000087, 4350.100000000084}}},
	{"pokec", 8, "PIncDect_nb", Metrics{Makespan: 4269, TotalWork: 25043, Units: 17498, Splits: 84, Moved: 0, BalanceEvents: 0, NC: 4304,
		WorkerCost: []float64{4048, 4001, 4269, 3429, 3781, 3735, 3704, 2939}}},
	{"pokec", 8, "PIncDect_NO", Metrics{Makespan: 6053, TotalWork: 24161, Units: 16826, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 4304,
		WorkerCost: []float64{6053, 4744, 5061, 1398, 3493, 2301, 2514, 3381}}},
	{"yago2", 4, "PDect", Metrics{Makespan: 6192.000000000044, TotalWork: 21731.999999999476, Units: 16830, Splits: 0, Moved: 360, BalanceEvents: 3, NC: 0,
		WorkerCost: []float64{6192.000000000044, 6189, 6192.000000000044, 6192.000000000044}}},
	{"yago2", 4, "PIncDect", Metrics{Makespan: 3912, TotalWork: 10761, Units: 7653, Splits: 30, Moved: 0, BalanceEvents: 1, NC: 3312,
		WorkerCost: []float64{3892, 3499, 3912, 3144}}},
	{"yago2", 4, "PIncDect_ns", Metrics{Makespan: 4133.70000000001, TotalWork: 10631.100000000073, Units: 7533, Splits: 0, Moved: 201, BalanceEvents: 2, NC: 3312,
		WorkerCost: []float64{4133.70000000001, 4133.70000000001, 4118.1, 4133.70000000001}}},
	{"yago2", 4, "PIncDect_nb", Metrics{Makespan: 3882, TotalWork: 10761, Units: 7653, Splits: 30, Moved: 0, BalanceEvents: 0, NC: 3312,
		WorkerCost: []float64{3862, 3469, 3882, 3114}}},
	{"yago2", 4, "PIncDect_NO", Metrics{Makespan: 4239, TotalWork: 10611, Units: 7533, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 3312,
		WorkerCost: []float64{3437, 2756, 4239, 3731}}},
	{"yago2", 8, "PDect", Metrics{Makespan: 3790, TotalWork: 21696, Units: 16888, Splits: 0, Moved: 0, BalanceEvents: 1, NC: 0,
		WorkerCost: []float64{2133, 3247, 3790, 2701, 3593, 2030, 2813, 2030}}},
	{"yago2", 8, "PIncDect", Metrics{Makespan: 2273, TotalWork: 10881, Units: 7773, Splits: 30, Moved: 0, BalanceEvents: 1, NC: 3312,
		WorkerCost: []float64{2240, 2030, 2030, 2241, 2030, 2273, 2030, 2030}}},
	{"yago2", 8, "PIncDect_ns", Metrics{Makespan: 2406.099999999988, TotalWork: 10683.500000000264, Units: 7533, Splits: 0, Moved: 725, BalanceEvents: 1, NC: 3312,
		WorkerCost: []float64{2357, 2404.099999999988, 2406.099999999988, 2266.5, 2224.099999999988, 2230.1999999999935, 2225.999999999988, 2220.999999999988}}},
	{"yago2", 8, "PIncDect_nb", Metrics{Makespan: 2243, TotalWork: 10881, Units: 7773, Splits: 30, Moved: 0, BalanceEvents: 0, NC: 3312,
		WorkerCost: []float64{2210, 1867, 1844, 2211, 1871, 2243, 1508, 1149}}},
	{"yago2", 8, "PIncDect_NO", Metrics{Makespan: 3382, TotalWork: 10611, Units: 7533, Splits: 0, Moved: 0, BalanceEvents: 0, NC: 3312,
		WorkerCost: []float64{2327, 1949, 870, 3382, 1703, 2091, 529, 1552}}},
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
