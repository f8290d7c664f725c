package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is BENCHMARK.json, which carries each gated metric's
// direction and regression bound.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	return &b, json.Unmarshal(raw, &b)
}

// side is one file of recorded runs: values by workload and metric, and the
// operations attempted and failed by workload.
type side struct {
	values    map[string]map[string]samples
	attempted map[string]int
	failed    map[string]int
}

func readSide(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &side{values: map[string]map[string]samples{}, attempted: map[string]int{}, failed: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string]samples{}
		}
		for name, m := range r.Result.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
		}
		s.attempted[r.Workload] += r.Result.Attempted
		s.failed[r.Workload] += r.Result.Failed
	}
	return s, sc.Err()
}

// quartiles are the cut points of Python's statistics.quantiles(v, n=4),
// which the driver uses; a single value is its own quartiles.
func quartiles(v samples) (q1, q2, q3 float64) {
	d := append(samples(nil), v...)
	sort.Float64s(d)
	if len(d) < 2 {
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		pos := i * (len(d) + 1)
		j := min(max(pos/4, 1), len(d)-1)
		delta := float64(pos - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// verdict compares one gated metric between the parent's runs a and the
// change's runs b. A spread wider than the bound on either side leaves the
// pair unresolved unless the two sides do not overlap at all.
func verdict(a, b samples, lowerBetter bool, bound float64) string {
	worse := func(x, y float64) bool { // is y worse than x
		if lowerBetter {
			return y > x
		}
		return y < x
	}
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	allWorse, allBetter := true, true
	for _, x := range a {
		for _, y := range b {
			allWorse = allWorse && worse(x, y)
			allBetter = allBetter && worse(y, x)
		}
	}
	by := (bmed - amed) / amed
	if !lowerBetter {
		by = -by
	}
	wide := (aq3-aq1)/amed > bound || (bq3-bq1)/bmed > bound
	switch {
	case by > bound && (!wide || allWorse):
		return "regressed"
	case wide && !allBetter && !allWorse:
		return "unresolved"
	}
	return "unchanged"
}

// compare prints one row per workload and metric of two record files and
// returns the exit code: 1 on any regression or a higher fail ratio.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <parent.jsonl> <change.jsonl>   (files written with -record)")
		return 2
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := readSide(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readSide(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}

	code := 0
	fmt.Printf("%-16s %-34s %-6s %38s %38s %8s %6s  %s\n", "workload", "metric", "unit", "parent median [q1, q3] n", "change median [q1, q3] n", "change", "bound", "verdict")
	for _, w := range bf.Workloads {
		row := func(m benchmarkMetric, gated bool) {
			av, bv := a.values[w.Name][m.Name], b.values[w.Name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				return
			}
			aq1, amed, aq3 := quartiles(av)
			bq1, bmed, bq3 := quartiles(bv)
			bound, v := "-", "reported"
			if gated {
				bound, v = fmt.Sprintf("%.2f", m.Bound), verdict(av, bv, m.Better == "lower", m.Bound)
				if v == "regressed" {
					code = 1
				}
			}
			fmt.Printf("%-16s %-34s %-6s %38s %38s %+7.1f%% %6s  %s\n", w.Name, m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", amed, aq1, aq3, len(av)),
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", bmed, bq1, bq3, len(bv)),
				100*ratio(bmed-amed, amed), bound, v)
		}
		for _, m := range bf.EndToEnd {
			row(m, true)
		}
		for _, m := range bf.PerLayer {
			row(m, false)
		}
		fa, fb := ratio(float64(a.failed[w.Name]), float64(a.attempted[w.Name])), ratio(float64(b.failed[w.Name]), float64(b.attempted[w.Name]))
		v := "unchanged"
		if fb > fa {
			v, code = "regressed", 1
		}
		fmt.Printf("%-16s %-34s %-6s %38.6f %38.6f %8s %6s  %s\n", w.Name, "fail_ratio", "ratio", fa, fb, "", "0", v)
	}
	return code
}
