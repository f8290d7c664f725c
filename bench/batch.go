package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"

	"ngd"
)

// batchRun is what one cold-batch run measured: three ngdcheck processes
// per cycle, each timed from exec to exit.
type batchRun struct {
	setupS    samples // ngdcheck -limit 1: load, parse, plan to the first hit
	detectS   samples // -p 1
	pdetectS  samples // -p nproc
	incS      samples // -update delta.txt
	deltaOps  int
	rssMB     float64
	deltaPath string
	tally
}

var (
	reViolations = regexp.MustCompile(`(?m)^violations: (\d+)$`)
	reDelta      = regexp.MustCompile(`(?m)^ΔG: (\d+) unit updates$`)
	rePlus       = regexp.MustCompile(`(?m)^ΔVio⁺: (\d+) new violations$`)
	reMinus      = regexp.MustCompile(`(?m)^ΔVio⁻: (\d+) removed violations$`)
)

// count extracts the number re captures from ngdcheck's output.
func count(re *regexp.Regexp, out string) (int, error) {
	m := re.FindStringSubmatch(out)
	if m == nil {
		return 0, fmt.Errorf("ngdcheck output has no line matching %s:\n%s", re, out)
	}
	return strconv.Atoi(m[1])
}

// runBatch runs the cold-batch workload: sets boots to the first hit, then
// cycles of Dect, PDect and IncDect processes until seconds have passed,
// then the output checks.
func runBatch(h *harness, sp spec, seed int64, seconds float64, sets int) (*batchRun, *inputs, error) {
	in, err := writeInputs(h, sp, seed)
	if err != nil {
		return nil, nil, err
	}
	run := &batchRun{deltaPath: filepath.Join(in.dir, "delta.txt")}
	f, err := os.Create(run.deltaPath)
	if err != nil {
		return nil, nil, err
	}
	if err := in.ds.WriteDelta(f, sp.deltaFrac, seed*31); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}

	files := []string{"-rules", in.rulesPath, "-graph", in.graphPath, "-q"}
	check := func(s *samples, args ...string) (string, error) {
		res, err := h.runCheck(append(files[:len(files):len(files)], args...)...)
		run.count(err)
		if err != nil {
			return "", err
		}
		s.add(res.wall.Seconds())
		run.rssMB = max(run.rssMB, res.rssMB)
		return res.stdout, nil
	}
	// the timed boots are spread out like the daemon's (see runServing)
	boots := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := check(&run.setupS, "-limit", "1"); err != nil {
				return err
			}
		}
		return nil
	}
	if err := boots((sets + 1) / 2); err != nil {
		return nil, nil, err
	}

	var out, pout, iout string
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		if out, err = check(&run.detectS); err != nil {
			return nil, nil, err
		}
		if pout, err = check(&run.pdetectS, "-p", strconv.Itoa(workers())); err != nil {
			return nil, nil, err
		}
		// the update process is the gated one and the shortest: three per cycle
		for k := 0; k < 3; k++ {
			if iout, err = check(&run.incS, "-update", run.deltaPath); err != nil {
				return nil, nil, err
			}
		}
	}
	num := func(re *regexp.Regexp, out string) (n int) {
		if err == nil {
			n, err = count(re, out)
		}
		return n
	}
	vio, pvio := num(reViolations, out), num(reViolations, pout)
	plus, minus := num(rePlus, iout), num(reMinus, iout)
	if run.deltaOps = num(reDelta, iout); err != nil {
		return nil, nil, err
	}
	if err := boots(sets / 2); err != nil {
		return nil, nil, err
	}

	// output checks against the facade run in this process: the sequential
	// and parallel counts agree with Detect over the loaded graph, and the
	// incremental answer accounts for the store of the updated graph
	m, err := loadModel(in)
	if err != nil {
		return nil, nil, err
	}
	before := len(ngd.Detect(m.g, m.rules).Violations)
	df, err := os.Open(run.deltaPath)
	if err != nil {
		return nil, nil, err
	}
	delta, err := ngd.LoadDelta(df, m.g, m.ids)
	df.Close()
	if err != nil {
		return nil, nil, err
	}
	delta.Apply(m.g)
	after := len(ngd.Detect(m.g, m.rules).Violations)
	run.check(vio == before, "ngdcheck -p 1 counted %d violations, Detect %d", vio, before)
	run.check(pvio == vio, "ngdcheck -p N counted %d violations, -p 1 %d", pvio, vio)
	run.check(after == vio+plus-minus, "|Vio(G⊕ΔG)| = %d but |Vio(G)| + |ΔVio⁺| − |ΔVio⁻| = %d + %d − %d", after, vio, plus, minus)
	return run, in, nil
}

// workers is the worker count of the parallel runs: the host's cores, and
// at least two so the parallel code path runs on a one-core host too.
func workers() int { return max(2, runtime.NumCPU()) }

// report adds the run's metrics to m. The gated update metrics are the
// offline way to apply ΔG, one ngdcheck -update process, averaged over the
// three fastest (see bestSlices for why).
func (r *batchRun) report(m metrics) {
	inc := append(samples(nil), r.incS...)
	sort.Float64s(inc)
	best := inc[:min(bestOf, len(inc))].mean()
	m.set("setup_s", "s", r.setupS.median(), len(r.setupS))
	m.set("update_p50_ms", "ms", best*1000, len(r.incS))
	m.set("update_ops_per_s", "1/s", ratio(float64(r.deltaOps), best), r.deltaOps)
	m.set("peak_rss_mb", "MB", r.rssMB, len(r.detectS)+len(r.pdetectS)+len(r.incS))
	m.set("e2e.detect_s", "s", r.detectS.median(), len(r.detectS))
	m.set("e2e.pdetect_s", "s", r.pdetectS.median(), len(r.pdetectS))
	m.set("e2e.incdetect_s", "s", r.incS.median(), len(r.incS))
	m.set("e2e.update_ops_per_s", "1/s", ratio(float64(r.deltaOps), r.incS.median()), r.deltaOps)
}
