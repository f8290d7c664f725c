// Command bench is the repository's benchmark. It builds cmd/ngdserve and
// cmd/ngdcheck, generates inputs from -seed with its own generator
// (bench/workload), drives the real binaries over loopback HTTP and the
// command line, checks their outputs against the ngd facade, and prints
// the end-to-end metrics. With -trace 1 it also replays the same request
// streams in this process through the facade, one ladder rung per layer,
// and prints the per-layer metrics instead.
//
//	bench -workload trickle-durable -seed 1 -seconds 10 -trace 0
//	bench compare a.jsonl b.jsonl
//
// BENCHMARK.json at the repository root records the command, the workloads
// and the metric names; README.md in this directory defines them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"ngd/bench/workload"
)

// checkpointEvery is ngdserve's default -checkpoint cadence, which the
// durable workloads run on.
const checkpointEvery = 64

// spec is one workload: the inputs to generate and how to drive them.
type spec struct {
	name string
	why  string

	entities  int
	errorRate float64
	faults    int
	rules     func() string

	// serving workloads
	gateOff   bool    // ngdserve -analyze off
	durable   bool    // ngdserve -data: WAL, checkpoints, SIGKILL + recovery
	walNoSync bool    // ngdserve -wal-nosync
	replay    int     // durable: commits past the last checkpoint at the kill
	writers   int     // closed-loop writers, or one open-loop writer
	fresh     int     // new ops per request; as many again undo request i-W
	rate      float64 // open loop: requests per second; 0 = closed loop
	reader    bool    // one closed-loop reader on the query mix
	feed      bool    // one SSE subscriber
	ladder    int     // requests per writer the traced ladder replays

	// cold-batch
	batch     bool
	deltaFrac float64
}

func generated50() string { return workload.GeneratedRules(50) }

// The sizes are the ISSUE's shapes scaled to the driver's budget: a run is
// five boots, a measured phase of -seconds, the checks and a recovery, and
// must stay under twenty seconds on two cores. Resize a workload, never a
// metric, if the traced run shows its intended layer is no longer dominant.
var specs = []spec{
	{
		name:     "trickle-durable",
		why:      "small durable commits on default flags: per-commit fixed costs (HTTP, WAL fsync, snapshot, feed) weigh as much as detection",
		entities: 2000, errorRate: 0.02, faults: 1, rules: generated50,
		durable: true, replay: 48, writers: 1, fresh: 8, feed: true, ladder: 416,
	},
	{
		name:     "burst-memory",
		why:      "large in-memory commits, gate off, no store: inc/detect/match/plan do the work, so store changes must show nothing here",
		entities: 2000, errorRate: 0.02, faults: 1, rules: generated50,
		gateOff: true, writers: 2, fresh: 256, ladder: 16,
	},
	{
		name:     "bigstore-mixed",
		why:      "open-loop writes beside a closed-loop reader on a store of ~18k violations: commit cost is the snapshot rebuild, recovery is store-bound",
		entities: 8000, errorRate: 0.75, faults: 3, rules: workload.EffectivenessRules,
		durable: true, walNoSync: true, replay: 28, writers: 1, fresh: 8, rate: 50, reader: true, ladder: 140,
	},
	{
		name:     "cold-batch",
		why:      "offline ngdcheck processes (Dect, PDect, IncDect): dsl, plan, detect, par and partition do all the work, serve and store none",
		entities: 6000, errorRate: 0.02, faults: 1, rules: generated50,
		batch: true, deltaFrac: 0.05,
	},
}

// smoke shrinks a workload so the whole suite runs in seconds. It keeps 500
// entities because a smaller graph can lack one of the relation labels the
// sibling rules name, and a session never matches a rule whose edge label
// entered the graph after the session compiled Σ (a defect of the program
// under test, see README.md; at 500 entities every label has ~30 edges).
func (sp spec) smoke() spec {
	sp.entities = max(sp.entities/5, 500)
	sp.fresh = min(sp.fresh, 32)
	sp.ladder = max(sp.ladder/8, 4)
	return sp
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the gated metrics. The driver requires every one of them
// from every workload, so these are the four all workloads share; the
// workload-specific end-to-end figures are the e2e.* entries of perLayer.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"update_p50_ms", "ms"},
	{"update_ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// result is the line the driver parses. Metrics holds exactly the names
// BENCHMARK.json lists for the run's mode; measured holds everything the
// run measured, for the printed table.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	measured  metrics
}

// record is one result with its provenance, as -record appends it and
// compare reads it.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    int            `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Host     map[string]any `json:"host"`
	Result   result         `json:"result"`
}

// hostInfo describes where a result was measured.
func hostInfo(h *harness) map[string]any {
	read := func(path string) string {
		b, _ := os.ReadFile(path) // absent off Linux: reported empty
		return strings.TrimSpace(string(b))
	}
	commit := "unknown" // the driver's checkout is not a git repository
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = h.root
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	load, _, _ := strings.Cut(read("/proc/loadavg"), " ")
	return map[string]any{
		"host_cores": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     read("/proc/sys/kernel/osrelease"),
		"loadavg_1m": load,
		"commit":     commit,
		"build_s":    h.buildS,
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: also run the in-process ladder and print the per-layer metrics instead")
	smoke := flag.Bool("smoke", false, "tiny sizes and one boot per run: a functional pass, not a measurement")
	out := flag.String("out", "", "keep inputs, child stderr and trace-<workload>.json here (default: a scratch directory removed at exit)")
	rec := flag.String("record", "", "append each result with its provenance to this file, for compare")
	flag.Parse()

	var run []spec
	for _, sp := range specs {
		if *name == "all" || *name == sp.name {
			run = append(run, sp)
		}
	}
	if len(run) == 0 || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q, stray arguments or -trace not 0|1\n", *name)
		os.Exit(2)
	}

	h, err := newHarness(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.close()
		os.Exit(130)
	}()

	code := 0
	host := hostInfo(h)
	fmt.Printf("# host: %d cores, GOMAXPROCS %d, %s, kernel %s, loadavg %s, commit %s, build %.1fs, seed %d\n",
		host["host_cores"], host["gomaxprocs"], host["go"], host["kernel"], host["loadavg_1m"], host["commit"], h.buildS, *seed)
	for _, sp := range run {
		sets := setsPerRun
		if *smoke {
			sp, sets = sp.smoke(), 1
		}
		if *trace == 1 {
			sets = 1 // set-up time is an end-to-end metric; the traced run does not report it
		}
		res, err := runWorkload(h, sp, *seed, *seconds, sets, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			h.close()
			os.Exit(1)
		}
		if !res.Correct {
			code = 1
		}
		printTable(sp.name, res)
		if *rec != "" {
			if err := appendRecord(*rec, record{sp.name, *seed, *trace, *seconds, host, *res}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			}
		}
		line, _ := json.Marshal(res) // plain numbers and strings: cannot fail
		fmt.Println(string(line))
	}
	h.close()
	os.Exit(code)
}

// runWorkload runs one workload end to end and, when traced, the ladder,
// and assembles the result line.
func runWorkload(h *harness, sp spec, seed int64, seconds float64, sets int, traced bool) (*result, error) {
	m := metrics{}
	var t *tally
	var in *inputs
	var lad *ladderInputs
	if sp.batch {
		run, inp, err := runBatch(h, sp, seed, seconds, sets)
		if err != nil {
			return nil, err
		}
		t, in = &run.tally, inp
		run.report(m)
		lad = &ladderInputs{deltaPath: run.deltaPath}
	} else {
		run, inp, err := runServing(h, sp, seed, seconds, sets)
		if err != nil {
			return nil, err
		}
		t, in = &run.tally, inp
		run.report(m)
		lad = &ladderInputs{ackP50: run.ackMS().median()}
	}
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed, first: %v\n", sp.name, t.failed, t.attempted, t.firstErr)
	}
	listed := endToEnd
	if traced {
		if err := runLadder(h, sp, in, lad, m); err != nil {
			return nil, err
		}
		listed = perLayer
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics{}, measured: m}
	for _, def := range listed {
		mt, ok := m[def.name]
		if !ok {
			mt = metric{Unit: def.unit} // 0: a layer this workload does not exercise
		}
		res.Metrics[def.name] = mt
	}
	return res, nil
}

// printTable prints every metric by name with its unit and sample count.
func printTable(workload string, res *result) {
	names := make([]string, 0, len(res.measured))
	for name := range res.measured {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s: correct=%v attempted=%d failed=%d fail_ratio=%.6f\n", workload, res.Correct, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, name := range names {
		mt := res.measured[name]
		fmt.Printf("# %-18s %-34s %14.4f %-6s n=%d\n", workload, name, mt.Value, mt.Unit, mt.N)
	}
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(r) // plain numbers and strings: cannot fail
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
