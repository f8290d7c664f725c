// Command ngdserve is the NGD violation-serving daemon: it opens a
// continuous detection session over a graph and a rule set, then serves
// snapshot-isolated violation queries over HTTP while update batches
// stream in through an asynchronous, coalescing ingest queue
// (internal/serve).
//
// Endpoints:
//
//	GET  /healthz            liveness + current commit epoch
//	GET  /violations         keyset-paginated store queries
//	                         (query params: limit, after, rule, node)
//	GET  /violations/{key}   one violation by canonical key
//	GET  /feed               violation change feed (SSE; ?poll=1 long-poll,
//	                         ?since=epoch cursor resume)
//	GET  /stats              server, store, feed and last-batch statistics
//	                         (?mem=1 adds heap and GC counters)
//	GET  /rules/analysis     Σ admission report (satisfiability, unsat core,
//	                         minimization), cached by Σ signature
//	POST /update             {"ops":[...]}; add ?sync=1 to wait for commit
//
// Every boot — fresh or recovered — runs the Σ admission gate (-analyze):
// strict refuses an unsatisfiable rule set with its minimal unsat core on
// stderr (exit 3), warn (the default) logs the findings and serves, off
// skips the analysis and the session's rule minimization entirely.
//
// The workload comes either from files in the text DSL:
//
//	ngdserve -graph g.txt -rules rules.txt
//
// or from the built-in generators (handy for demos and smoke tests):
//
//	ngdserve -gen yago2 -n 300 -k 12 -seed 1
//
// With -data the daemon is durable (internal/store): every committed batch
// is write-ahead logged before it mutates the graph, the whole session
// state is checkpointed into a binary snapshot every -checkpoint batches,
// and a restart with the same -data directory recovers — snapshot load
// plus WAL replay — to exactly the state of the process that died,
// including after a SIGKILL mid-write (a torn final record is truncated
// away). Once a data directory exists, -graph/-gen are no longer needed:
// the rules and graph live in the snapshot.
//
//	ngdserve -gen yago2 -n 300 -data /var/lib/ngd   # first boot ingests
//	ngdserve -data /var/lib/ngd                     # every later boot recovers
//
// Reads are never blocked by commits: every request is served from an
// immutable copy-on-write snapshot of the violation store, atomically
// swapped after each commit. See docs/OPERATIONS.md for the full CLI and
// file-format reference and the recovery runbook.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ngd/internal/analyze"
	"ngd/internal/core"
	"ngd/internal/dsl"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/serve"
	"ngd/internal/session"
	"ngd/internal/store"
)

var (
	addr      = flag.String("addr", ":8377", "listen address")
	graphFile = flag.String("graph", "", "graph file (text DSL); mutually exclusive with -gen")
	rulesFile = flag.String("rules", "", "rule file (text DSL); required with -graph")
	genName   = flag.String("gen", "", "generate the workload instead: dbpedia|yago2|pokec|synthetic")
	entities  = flag.Int("n", 300, "generated graph size (entities)")
	numRules  = flag.Int("k", 12, "generated rule count (0 = the profile's effectiveness rule set, which flags the generator's injected errors)")
	seed      = flag.Int64("seed", 1, "generator seed")
	queue     = flag.Int("queue", 256, "ingest queue depth")
	dataDir   = flag.String("data", "", "durable state directory (snapshot + write-ahead log); empty = in-memory only")
	ckptEvery = flag.Int("checkpoint", 64, "with -data: batches between background checkpoints")
	walNoSync = flag.Bool("wal-nosync", false, "with -data: skip the per-batch WAL fsync (faster; batches in the OS write-back window may be lost on crash)")
	maxBody   = flag.Int64("max-body", 8<<20, "max POST /update body bytes (413 beyond it)")
	feedLog   = flag.Int("feed-backlog", 64, "change-feed events retained for ?since= cursor resume (older cursors get 410)")
	feedBuf   = flag.Int("feed-buffer", 32, "per-subscriber feed buffer; a consumer falling further behind is disconnected")
	anMode    = flag.String("analyze", "warn", "Σ admission gate: strict (refuse an unsatisfiable Σ, exit 3), warn (log findings, serve anyway), off (skip analysis and minimization)")
	anTimeout = flag.Duration("analyze-timeout", 30*time.Second, "wall-clock budget for the Σ analysis; exhausted probes degrade to unknown (never refuse)")
	pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); keeps profiling off the public listener")
)

func main() {
	flag.Parse()
	log.SetPrefix("ngdserve: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	gateMode, err := analyze.ParseMode(*anMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ngdserve:", err)
		os.Exit(2)
	}

	var sessOpts session.Options
	if gateMode == analyze.ModeOff {
		sessOpts.Analyze.NoMinimize = true
	}

	var (
		sess   *session.Session
		rules  *core.Set
		names  map[string]graph.NodeID
		st     *store.Store
		report *analyze.Report
	)

	if *dataDir != "" {
		var rec *store.Recovered
		var err error
		st, rec, err = store.Open(*dataDir, store.Options{
			CheckpointEvery: *ckptEvery,
			NoSync:          *walNoSync,
			Session:         sessOpts,
		})
		if err != nil {
			log.Fatal(err)
		}
		if rec != nil {
			if *graphFile != "" || *genName != "" {
				log.Printf("recovering from %s; ignoring -graph/-gen (the workload lives in the snapshot)", *dataDir)
			}
			sess, rules, names = rec.Session, rec.Rules, rec.Names
			torn := ""
			if rec.Truncated {
				torn = ", torn tail truncated"
			}
			log.Printf("recovered seq %d: snapshot seq %d (%d bytes, %v) + %d batches replayed (%d bytes, %v)%s",
				rec.Seq, rec.SnapshotSeq, rec.SnapshotBytes, rec.SnapshotLoad.Round(time.Millisecond),
				rec.Replayed, rec.WALBytes, rec.WALReplay.Round(time.Millisecond), torn)
			// the admission gate runs on recovery too: the persisted Σ is
			// re-analyzed (same signature, same verdicts) before serving
			report = runGate(rules, nil, gateMode)
		}
	}

	if sess == nil {
		g, rs, nm, lines, err := loadWorkload()
		if err != nil {
			log.Fatal(err)
		}
		report = runGate(rs, lines, gateMode)
		opened := time.Now()
		sess = session.New(g, rs, sessOpts)
		rules, names = rs, nm
		log.Printf("session open: |V|=%d |E|=%d ‖Σ‖=%d, %d violations seeded in %v",
			g.NumNodes(), g.NumEdges(), len(rules.Rules), sess.Len(),
			time.Since(opened).Round(time.Millisecond))
		if st != nil {
			if names == nil {
				names = make(map[string]graph.NodeID)
			}
			if err := st.Bootstrap(sess, rules, names); err != nil {
				log.Fatalf("bootstrap %s: %v", *dataDir, err)
			}
			log.Printf("durable: bootstrapped %s (checkpoint every %d batches)", *dataDir, *ckptEvery)
		}
	}

	srvOpts := serve.Options{
		QueueDepth:  *queue,
		Names:       names,
		MaxBody:     *maxBody,
		FeedBacklog: *feedLog,
		FeedBuffer:  *feedBuf,
		Analysis:    report,
	}
	if st != nil {
		srvOpts.OnNewNode = st.NoteName
		srvOpts.DurabilityErr = st.Err
		var lastHealth string // surface durability transitions, not every batch
		srvOpts.AfterCommit = func(bs session.BatchStats) {
			if bs.LogErr != nil {
				log.Printf("WAL append failed for batch %d: %v (batch committed in memory, NOT durable)", bs.Batch, bs.LogErr)
			}
			st.MaybeCheckpoint()
			health := ""
			if err := st.Err(); err != nil {
				health = err.Error()
			}
			if health != lastHealth {
				if health != "" {
					log.Printf("durability degraded: %s", health)
				} else {
					log.Printf("durability restored")
				}
				lastHealth = health
			}
		}
	}
	srv := serve.New(sess, srvOpts)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// profiling stays on its own listener so exposing the query API never
	// exposes /debug/pprof; bind it to localhost in production
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil && err != http.ErrServerClosed {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	go func() {
		log.Printf("listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	srv.Close() // drain + commit anything still queued
	if st != nil {
		// final checkpoint: the next boot loads the snapshot and replays
		// nothing. Safe here — the serving writer has exited, so this
		// goroutine is the session's sole owner.
		if err := st.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
		}
		if err := st.Close(); err != nil {
			log.Printf("store close: %v", err)
		}
		ss := st.Stats()
		log.Printf("durable: seq %d, snapshot seq %d, %d batches logged (%d WAL bytes), %d checkpoints (last capture %v; encode %v, sync %v, install %v)",
			ss.Seq, ss.SnapshotSeq, ss.Batches, ss.WALBytes, ss.Checkpoints, ss.LastCapture, ss.LastEncode, ss.LastSync, ss.LastInstall)
	}
	fst := srv.Stats()
	log.Printf("final: epoch %d, %d violations, %d commits (%d requests coalesced)",
		fst.Epoch, fst.StoreSize, fst.Commits, fst.Coalesced)
}

// runGate runs the Σ admission analysis (mode warn or strict), logs its
// findings, and — in strict mode — refuses an unsatisfiable Σ with the
// minimal unsat core on stderr and exit code 3. Returns the report for
// GET /rules/analysis (nil when the gate is off).
func runGate(rules *core.Set, lines map[string]int, mode analyze.Mode) *analyze.Report {
	if mode == analyze.ModeOff {
		return nil
	}
	rep := analyze.Analyze(rules, analyze.Options{Timeout: *anTimeout, Lines: lines})
	log.Printf("Σ analysis (%s): satisfiable=%v strongly=%v rules=%d dropped=%d in %dms, signature %.12s…",
		mode, rep.Satisfiable, rep.StronglySatisfiable, rep.NumRules, len(rep.Dropped),
		rep.ElapsedMS, rep.Signature)
	if slow := rep.SlowestProbe(); slow != nil {
		log.Printf("Σ analysis: slowest probe %s, %.3fms", slow.Name, slow.ProbeMS)
	}
	if d := rep.Diagnostic(); d != "" {
		for _, line := range strings.Split(strings.TrimRight(d, "\n"), "\n") {
			log.Print(line)
		}
	}
	if mode == analyze.ModeStrict && rep.Unsat() {
		fmt.Fprintf(os.Stderr, "ngdserve: refusing to serve an unsatisfiable Σ (-analyze=strict)\n%s", rep.Diagnostic())
		os.Exit(3)
	}
	return rep
}

// loadWorkload resolves the graph, rules, external-id mapping and rule
// source lines from the flags: files in the text DSL, or a generated
// dataset (no source lines there).
func loadWorkload() (*graph.Graph, *core.Set, map[string]graph.NodeID, map[string]int, error) {
	if (*graphFile == "") == (*genName == "") {
		if *dataDir != "" {
			return nil, nil, nil, nil, fmt.Errorf("%s holds no recoverable state yet: exactly one of -graph or -gen is required for the first boot", *dataDir)
		}
		return nil, nil, nil, nil, fmt.Errorf("exactly one of -graph or -gen is required")
	}
	if *graphFile != "" {
		if *rulesFile == "" {
			return nil, nil, nil, nil, fmt.Errorf("-rules is required with -graph")
		}
		gf, err := os.Open(*graphFile)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		defer gf.Close()
		g, names, err := dsl.LoadGraph(gf)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("load graph: %w", err)
		}
		rf, err := os.Open(*rulesFile)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		defer rf.Close()
		rules, lines, err := dsl.ParseRulesLocated(rf)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("parse rules: %w", err)
		}
		return g, rules, names, lines, nil
	}
	p, ok := gen.ProfileByName(*genName)
	if !ok {
		return nil, nil, nil, nil, fmt.Errorf("unknown profile %q (dbpedia|yago2|pokec|synthetic)", *genName)
	}
	ds := gen.Generate(p, *entities, *seed)
	var rules *core.Set
	if *numRules == 0 {
		rules = gen.EffectivenessRules(p)
	} else {
		rules = gen.Rules(p, gen.RuleConfig{Count: *numRules, MaxDiameter: 4, Seed: *seed})
	}
	return ds.G, rules, nil, nil, nil
}
