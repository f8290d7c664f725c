package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ngd"
	"ngd/bench/workload"
)

// The ladder is the traced run. It replays the head of a workload's request
// streams in this process, once per rung, each rung calling one layer
// further up the stack through the ngd facade:
//
//	R0 graph    Delta.Normalize + Graph.Apply
//	R1 session  Session.CommitBatch + Session.Snapshot
//	R2 store    R1 under ngd.Open + Store.Bootstrap, MaybeCheckpoint per commit
//	R3 serve    Server.Enqueue + <-Ack.Done(), wired as cmd/ngdserve wires it
//	R4 http     Server.Handler().ServeHTTP on an in-memory recorder
//
// Every (request, rung) is one span whose parent is the same request's span
// one rung up, so a layer's self time is its rung minus the rung below for
// the same request. Counts come from BatchStats, ServerStats, StoreStats and
// Recovered, so ratios are measured where the work happens.

// perLayer are the ungated metrics of the traced run. The e2e.* entries are
// the workload-specific end-to-end figures, measured on the real binaries
// in the same run; a workload reports 0 for a layer it does not exercise.
var perLayer = []metricDef{
	{"e2e.ack_p50_ms", "ms"}, {"e2e.ack_p99_ms", "ms"}, {"e2e.update_ops_per_s", "1/s"},
	{"e2e.feed_p50_ms", "ms"}, {"e2e.feed_p99_ms", "ms"},
	{"e2e.read_p50_ms", "ms"}, {"e2e.read_p99_ms", "ms"}, {"e2e.reads_per_s", "1/s"},
	{"e2e.recover_s", "s"}, {"e2e.late_p99_ms", "ms"},
	{"e2e.detect_s", "s"}, {"e2e.pdetect_s", "s"}, {"e2e.incdetect_s", "s"},
	{"graph.normalize_us_p50", "us"}, {"graph.apply_us_p50", "us"}, {"graph.effective_ops_ratio", "ratio"},
	{"session.commit_ms_p50", "ms"}, {"session.commit_ms_p99", "ms"}, {"session.detect_self_ms_p50", "ms"},
	{"session.snapshot_ms_p50", "ms"}, {"session.cost_units_per_op", "count"}, {"session.pivots_per_batch", "count"},
	{"session.dvio_per_batch", "count"}, {"session.store_size_mean", "count"},
	{"plan.compile_ms", "ms"}, {"plan.hit_ratio", "ratio"}, {"plan.misses", "count"}, {"plan.invalidations", "count"},
	{"store.commit_overhead_ms_p50", "ms"}, {"store.fsync_ms_p50", "ms"}, {"store.wal_bytes_per_op", "B"},
	{"store.checkpoints", "count"}, {"store.checkpoint_ms", "ms"}, {"store.snapshot_bytes", "B"},
	{"store.recover_load_ms", "ms"}, {"store.recover_replay_ms_per_batch", "ms"},
	{"serve.ack_ms_p50", "ms"}, {"serve.ack_ms_p99", "ms"}, {"serve.self_ms_p50", "ms"},
	{"serve.feed_lag_us_p50", "us"}, {"serve.coalesced_ratio", "ratio"}, {"serve.dropped_ops", "count"},
	{"http.update_ms_p50", "ms"}, {"http.self_ms_p50", "ms"}, {"http.req_bytes_per_op", "B"},
	{"http.query_us_p50.rule", "us"}, {"http.query_us_p50.node", "us"}, {"http.query_us_p50.key", "us"},
	{"http.query_us_p50.page", "us"}, {"http.resp_bytes_per_read", "B"},
	{"wire.self_ms_p50", "ms"},
	{"analyze.gate_s", "s"}, {"analyze.unknown_rules", "count"},
	{"dsl.load_graph_s", "s"}, {"dsl.parse_rules_ms", "ms"}, {"dsl.graph_bytes", "B"},
	{"detect.dect_s", "s"}, {"detect.violations", "count"},
	{"par.pdect_s", "s"}, {"par.speedup", "ratio"}, {"par.work_units", "count"}, {"par.makespan_units", "count"},
	{"par.splits", "count"}, {"par.moves", "count"}, {"par.pincdect_s", "s"},
	{"inc.incdect_s", "s"}, {"inc.dvio", "count"},
}

// ladderInputs carry what the end-to-end part of a traced run hands over.
type ladderInputs struct {
	ackP50    float64 // serving: the daemon's ack median, for wire.self_ms_p50
	deltaPath string  // cold-batch: the ΔG file
}

// span is one (request, rung) interval of the trace file.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: the top rung
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// ladder is the state of one traced run.
type ladder struct {
	h       *harness
	sp      spec
	dir     string // the workload's directory: the store rungs write here
	rules   string
	graph   *ngd.Graph // the loaded graph; every rung works on a clone
	ids     map[string]ngd.NodeID
	reqs    []workload.Request // warm-up then measured, writers interleaved
	bodies  [][]byte
	warm    int
	epoch   time.Time
	spans   []span
	rungs   []string // the workload's chain, bottom up
	session ngd.SessionOptions
}

// record stores the span of measured request req on rung and returns its
// duration in milliseconds.
func (l *ladder) record(rung string, req int, start, end time.Time) float64 {
	n := len(l.reqs) - l.warm
	s := span{Req: req, Name: rung, StartNS: start.Sub(l.epoch).Nanoseconds(), EndNS: end.Sub(l.epoch).Nanoseconds()}
	if i := slices.Index(l.rungs, rung); i >= 0 {
		s.ID = i*n + req + 1
		if i+1 < len(l.rungs) {
			s.Parent = (i+1)*n + req + 1
		}
	} else {
		s.ID = len(l.rungs)*n + req + 1 // the alternate store rung, outside the chain
	}
	l.spans = append(l.spans, s)
	return ms(end.Sub(start))
}

// fresh clones the loaded graph and its id map and re-parses Σ, so no rung
// sees another's state, and collects the previous rung's garbage so no rung
// pays for it.
func (l *ladder) fresh() (*ngd.Graph, map[string]ngd.NodeID, *ngd.RuleSet, error) {
	runtime.GC()
	ids := make(map[string]ngd.NodeID, len(l.ids))
	for k, v := range l.ids {
		ids[k] = v
	}
	rules, err := ngd.ParseRules(strings.NewReader(l.rules))
	return l.graph.Clone(), ids, rules, err
}

// runLadder runs the traced replay of sp and adds the per-layer metrics to m.
func runLadder(h *harness, sp spec, in *inputs, lad *ladderInputs, m metrics) error {
	l := &ladder{h: h, sp: sp, dir: in.dir, rules: in.rulesText, epoch: time.Now()}

	text, err := os.ReadFile(in.graphPath)
	if err != nil {
		return err
	}
	start := time.Now()
	if l.graph, l.ids, err = ngd.LoadGraph(bytes.NewReader(text)); err != nil {
		return err
	}
	m.set("dsl.load_graph_s", "s", time.Since(start).Seconds(), 1)
	m.set("dsl.graph_bytes", "B", float64(len(text)), 1)
	start = time.Now()
	rules, err := ngd.ParseRules(strings.NewReader(l.rules))
	if err != nil {
		return err
	}
	m.set("dsl.parse_rules_ms", "ms", ms(time.Since(start)), 1)

	// plan and detect: a cold program pays compilation and planning, the
	// second run over the same program does not
	start = time.Now()
	prog := ngd.NewProgram(l.graph, rules, ngd.PlanOptions{})
	ngd.DetectWith(l.graph, rules, prog, 0)
	cold := time.Since(start)
	start = time.Now()
	res := ngd.DetectWith(l.graph, rules, prog, 0)
	warm := time.Since(start)
	m.set("detect.dect_s", "s", warm.Seconds(), 1)
	m.set("detect.violations", "count", float64(len(res.Violations)), 1)
	m.set("plan.compile_ms", "ms", max(ms(cold-warm), 0), 1)

	if sp.batch {
		if err := l.batch(rules, lad, m); err != nil {
			return err
		}
		return l.writeTrace()
	}

	l.session = ngd.SessionOptions{Par: ngd.Parallel(8)} // cmd/ngdserve's defaults
	if sp.gateOff {
		l.session.Analyze.NoMinimize = true
	} else {
		start = time.Now()
		rep := ngd.AnalyzeRules(rules, ngd.AnalysisOptions{Timeout: 30 * time.Second}) // the daemon's default budget
		m.set("analyze.gate_s", "s", time.Since(start).Seconds(), 1)
		unknown := 0
		for _, r := range rep.Rules {
			if r.Satisfiable == ngd.Unknown || r.Implied == ngd.Unknown {
				unknown++
			}
		}
		m.set("analyze.unknown_rules", "count", float64(unknown), len(rep.Rules))
	}

	l.warm = workload.Window * sp.writers // one window per writer: |E| and |Vio| are stationary from there
	for i := 0; i < workload.Window+sp.ladder; i++ {
		for w := range in.streams {
			l.reqs = append(l.reqs, in.streams[w][i])
			l.bodies = append(l.bodies, in.bodies[w][i])
		}
	}
	l.rungs = []string{"R0.graph", "R1.session", "R2.store", "R3.serve", "R4.http"}
	if !sp.durable {
		l.rungs = []string{"R0.graph", "R1.session", "R3.serve", "R4.http"}
	}
	noSync := sp.walNoSync

	r0, err := l.graphRung(m)
	if err != nil {
		return err
	}
	r1, err := l.sessionRung(m, r0)
	if err != nil {
		return err
	}
	below := r1
	if sp.durable {
		r2, err := l.storeRung(m, "R2.store", noSync, true)
		if err != nil {
			return err
		}
		alt, err := l.storeRung(m, "R2.store.alt", !noSync, false)
		if err != nil {
			return err
		}
		m.set("store.commit_overhead_ms_p50", "ms", max(minus(r2, r1).median(), 0), len(r2))
		sync, nosync := r2, alt
		if noSync {
			sync, nosync = alt, r2
		}
		m.set("store.fsync_ms_p50", "ms", max(minus(sync, nosync).median(), 0), len(r2))
		below = r2
	}
	r3, err := l.serveRung(m, noSync)
	if err != nil {
		return err
	}
	m.set("serve.self_ms_p50", "ms", max(minus(r3, below).median(), 0), len(r3))
	r4, err := l.httpRung(m, in, noSync)
	if err != nil {
		return err
	}
	m.set("http.self_ms_p50", "ms", max(minus(r4, r3).median(), 0), len(r4))
	m.set("wire.self_ms_p50", "ms", max(lad.ackP50-r4.median(), 0), len(r4))
	return l.writeTrace()
}

// writeTrace writes the spans kept in memory to trace-<workload>.json.
func (l *ladder) writeTrace() error {
	out, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(l.h.path("trace-"+l.sp.name+".json"), out, 0o644)
}

// timed runs one facade call of the cold-batch ladder as a root span and
// returns its duration in seconds.
func (l *ladder) timed(name string, call func()) float64 {
	start := time.Now()
	call()
	end := time.Now()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Name: name, StartNS: start.Sub(l.epoch).Nanoseconds(), EndNS: end.Sub(l.epoch).Nanoseconds()})
	return end.Sub(start).Seconds()
}

// graphRung is R0: what applying the ops to a bare graph costs.
func (l *ladder) graphRung(m metrics) (samples, error) {
	g, ids, _, err := l.fresh()
	if err != nil {
		return nil, err
	}
	var total, normalize, apply samples
	var raw, effective float64
	for i, req := range l.reqs {
		addNodes(g, ids, req.Ops, nil)
		d := edgeDelta(g, ids, req.Ops)
		t0 := time.Now()
		norm := d.Normalize(g)
		t1 := time.Now()
		g.Apply(norm)
		t2 := time.Now()
		if i < l.warm {
			continue
		}
		total.add(l.record("R0.graph", i-l.warm, t0, t2))
		normalize.add(us(t1.Sub(t0)))
		apply.add(us(t2.Sub(t1)))
		raw += float64(d.Len())
		effective += float64(norm.Len())
	}
	m.set("graph.normalize_us_p50", "us", normalize.median(), len(normalize))
	m.set("graph.apply_us_p50", "us", apply.median(), len(apply))
	m.set("graph.effective_ops_ratio", "ratio", ratio(effective, raw), int(raw))
	return total, nil
}

// sessionRung is R1: incremental detection, in-place apply, store
// reconciliation, then the snapshot every published epoch needs.
func (l *ladder) sessionRung(m metrics, r0 samples) (samples, error) {
	g, ids, rules, err := l.fresh()
	if err != nil {
		return nil, err
	}
	sess := ngd.NewSession(g, rules, l.session)
	defer sess.Close()
	var total, commit, snapshot samples
	var ops, cost, pivots, dvio, size, hits, misses, invalidations float64
	for i, req := range l.reqs {
		addNodes(g, ids, req.Ops, nil)
		d := edgeDelta(g, ids, req.Ops)
		t0 := time.Now()
		st := sess.CommitBatch(d, nil)
		t1 := time.Now()
		sess.Snapshot()
		t2 := time.Now()
		if i < l.warm {
			continue
		}
		total.add(l.record("R1.session", i-l.warm, t0, t2))
		commit.add(ms(t1.Sub(t0)))
		snapshot.add(ms(t2.Sub(t1)))
		ops += float64(st.Ops)
		cost += st.Cost
		pivots += float64(st.Pivots)
		dvio += float64(st.Plus + st.Minus + st.Absorbed)
		size += float64(st.StoreSize)
		hits += float64(st.PlanHits)
		misses += float64(st.PlanMisses)
		invalidations += float64(st.PlanInvalidations)
	}
	n := float64(len(total))
	m.set("session.commit_ms_p50", "ms", commit.median(), len(commit))
	m.set("session.commit_ms_p99", "ms", commit.p99(), len(commit))
	m.set("session.detect_self_ms_p50", "ms", max(minus(commit, r0).median(), 0), len(commit))
	m.set("session.snapshot_ms_p50", "ms", snapshot.median(), len(snapshot))
	m.set("session.cost_units_per_op", "count", ratio(cost, ops), int(ops))
	m.set("session.pivots_per_batch", "count", ratio(pivots, n), len(total))
	m.set("session.dvio_per_batch", "count", ratio(dvio, n), len(total))
	m.set("session.store_size_mean", "count", ratio(size, n), len(total))
	m.set("plan.hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))
	m.set("plan.misses", "count", misses, len(total))
	m.set("plan.invalidations", "count", invalidations, len(total))
	return total, nil
}

// openStore opens a fresh data directory and bootstraps a new session over
// a clone of the graph into it, as cmd/ngdserve does on a first boot.
func (l *ladder) openStore(dir string, noSync bool) (*ngd.Store, *ngd.Session, map[string]ngd.NodeID, ngd.StoreOptions, error) {
	g, ids, rules, err := l.fresh()
	if err != nil {
		return nil, nil, nil, ngd.StoreOptions{}, err
	}
	opts := ngd.StoreOptions{CheckpointEvery: checkpointEvery, NoSync: noSync, Session: l.session}
	st, _, err := ngd.Open(dir, opts)
	if err != nil {
		return nil, nil, nil, opts, err
	}
	sess := ngd.NewSession(g, rules, l.session)
	if err := st.Bootstrap(sess, rules, ids); err != nil {
		sess.Close()
		_ = st.Close() // the bootstrap error is the one to report
		return nil, nil, nil, opts, err
	}
	return st, sess, ids, opts, nil
}

// storeRung is R2: R1 with every commit write-ahead logged and a background
// checkpoint every 64 commits, then a recovery of the directory it wrote.
// report is false for the alternate fsync setting, which only contributes
// its timings.
func (l *ladder) storeRung(m metrics, rung string, noSync, report bool) (samples, error) {
	dir := filepath.Join(l.dir, "ladder-"+rung)
	st, sess, ids, opts, err := l.openStore(dir, noSync)
	if err != nil {
		return nil, err
	}
	g := sess.Graph()
	var total samples
	var ops float64
	for i, req := range l.reqs {
		addNodes(g, ids, req.Ops, st.NoteName)
		d := edgeDelta(g, ids, req.Ops)
		t0 := time.Now()
		bs := sess.CommitBatch(d, nil)
		sess.Snapshot()
		st.MaybeCheckpoint()
		t1 := time.Now()
		if bs.LogErr != nil {
			return nil, fmt.Errorf("WAL append: %w", bs.LogErr)
		}
		if i >= l.warm {
			total.add(l.record(rung, i-l.warm, t0, t1))
		}
		ops += float64(bs.Ops)
	}
	err = st.Close() // waits for a checkpoint in flight
	sess.Close()
	if err != nil || !report {
		return total, err
	}
	stats := st.Stats()
	m.set("store.wal_bytes_per_op", "B", ratio(float64(stats.WALBytes), ops), int(ops))
	m.set("store.checkpoints", "count", float64(stats.Checkpoints), int(stats.Batches))
	m.set("store.checkpoint_ms", "ms", ms(stats.LastCheckpoint), int(stats.Checkpoints))

	st, rec, err := ngd.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if rec == nil {
		_ = st.Close() // nothing recovered is the error to report
		return nil, fmt.Errorf("%s holds no recoverable state", dir)
	}
	m.set("store.snapshot_bytes", "B", float64(rec.SnapshotBytes), 1)
	m.set("store.recover_load_ms", "ms", ms(rec.SnapshotLoad), 1)
	m.set("store.recover_replay_ms_per_batch", "ms", ratio(ms(rec.WALReplay), float64(rec.Replayed)), rec.Replayed)
	rec.Session.Close()
	return total, st.Close()
}

// served is a Server wired as cmd/ngdserve wires it, with one feed consumer
// stamping event arrivals by epoch.
type served struct {
	srv     *ngd.Server
	st      *ngd.Store
	sub     *ngd.FeedSub
	drained chan struct{}

	mu      sync.Mutex
	arrived map[int]time.Time
}

func (l *ladder) serve(name string, noSync bool) (*served, error) {
	s := &served{drained: make(chan struct{}), arrived: make(map[int]time.Time)}
	opts := ngd.ServeOptions{QueueDepth: 256}
	var sess *ngd.Session
	if l.sp.durable {
		st, se, ids, _, err := l.openStore(filepath.Join(l.dir, "ladder-"+name), noSync)
		if err != nil {
			return nil, err
		}
		s.st, sess = st, se
		opts.Names, opts.OnNewNode, opts.DurabilityErr = ids, st.NoteName, st.Err
		opts.AfterCommit = func(ngd.BatchStats) { st.MaybeCheckpoint() }
	} else {
		g, ids, rules, err := l.fresh()
		if err != nil {
			return nil, err
		}
		sess, opts.Names = ngd.NewSession(g, rules, l.session), ids
	}
	s.srv = ngd.Serve(sess, opts)
	sub, err := s.srv.Subscribe(s.srv.Snapshot().Epoch)
	if err != nil {
		s.close()
		return nil, err
	}
	s.sub = sub
	go func() {
		defer close(s.drained)
		for ev := range sub.C {
			now := time.Now()
			s.mu.Lock()
			s.arrived[ev.Epoch] = now
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// close stops the server, which closes the feed, then the store.
func (s *served) close() error {
	s.srv.Close()
	if s.sub != nil {
		<-s.drained
	}
	if s.st != nil {
		return s.st.Close()
	}
	return nil
}

// serveRung is R3: the ingest queue, op materialisation, index apply,
// publish, feed fan-out and ack around R2 (R1 without a store).
func (l *ladder) serveRung(m metrics, noSync bool) (samples, error) {
	s, err := l.serve("R3.serve", noSync)
	if err != nil {
		return nil, err
	}
	var total, lag samples
	type acked struct {
		epoch int
		done  time.Time
	}
	var acks []acked
	for i, req := range l.reqs {
		t0 := time.Now()
		ack, err := s.srv.Enqueue(req.Ops)
		if err != nil {
			_ = s.close() // the enqueue error is the one to report
			return nil, err
		}
		<-ack.Done()
		t1 := time.Now()
		if i >= l.warm {
			total.add(l.record("R3.serve", i-l.warm, t0, t1))
			acks = append(acks, acked{ack.Epoch(), t1})
		}
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	for _, a := range acks {
		if at, ok := s.arrived[a.epoch]; ok {
			lag.add(us(at.Sub(a.done))) // negative when the event beat the ack
		}
	}
	m.set("serve.ack_ms_p50", "ms", total.median(), len(total))
	m.set("serve.ack_ms_p99", "ms", total.p99(), len(total))
	m.set("serve.feed_lag_us_p50", "us", lag.median(), len(lag))
	return total, nil
}

// httpRung is R4: JSON decode, the handler and JSON encode around R3, then
// the read mix against the final store.
func (l *ladder) httpRung(m metrics, in *inputs, noSync bool) (samples, error) {
	s, err := l.serve("R4.http", noSync)
	if err != nil {
		return nil, err
	}
	handler := s.srv.Handler()
	var total samples
	for i, body := range l.bodies {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/update?sync=1", bytes.NewReader(body))
		t0 := time.Now()
		handler.ServeHTTP(w, r)
		t1 := time.Now()
		if w.Code != http.StatusOK {
			_ = s.close() // the status is the error to report
			return nil, fmt.Errorf("POST /update in process: %d: %.200s", w.Code, w.Body)
		}
		if i >= l.warm {
			total.add(l.record("R4.http", i-l.warm, t0, t1))
		}
	}
	m.set("http.update_ms_p50", "ms", total.median(), len(total))

	// the read mix, one kind at a time, against violations of reserved
	// entities (see readLoop)
	var rule, node, key string
	for _, v := range s.srv.Snapshot().Violations() {
		if e, ok := workload.EntityOf(int32(v.Match[0])); ok && e < len(in.ds.Type) && workload.Reserved(e) && strings.Contains(v.Rule.Name, "-T") {
			rule, node, key = v.Rule.Name, strconv.Itoa(int(v.Match[0])), v.Key()
			break
		}
	}
	if key != "" {
		var bytesRead, reads float64
		for _, q := range []struct{ kind, path string }{
			{"rule", "/violations?limit=50&rule=" + url.QueryEscape(rule)},
			{"node", "/violations?limit=50&node=" + node},
			{"key", "/violations/" + url.PathEscape(key)},
			{"page", "/violations?limit=200&after=" + url.QueryEscape(key)},
		} {
			var took samples
			for i := 0; i < 200; i++ {
				w := httptest.NewRecorder()
				r := httptest.NewRequest(http.MethodGet, q.path, nil)
				t0 := time.Now()
				handler.ServeHTTP(w, r)
				took.add(us(time.Since(t0)))
				if w.Code != http.StatusOK {
					_ = s.close() // the status is the error to report
					return nil, fmt.Errorf("GET %s in process: %d", q.path, w.Code)
				}
				bytesRead += float64(w.Body.Len())
				reads++
			}
			m.set("http.query_us_p50."+q.kind, "us", took.median(), len(took))
		}
		m.set("http.resp_bytes_per_read", "B", ratio(bytesRead, reads), int(reads))
	}
	return total, s.close()
}

// batch is the cold-batch ladder: the facade calls behind the three
// ngdcheck processes, timed in this process.
func (l *ladder) batch(rules *ngd.RuleSet, lad *ladderInputs, m metrics) error {
	f, err := os.Open(lad.deltaPath)
	if err != nil {
		return err
	}
	delta, err := ngd.LoadDelta(f, l.graph, l.ids)
	f.Close()
	if err != nil {
		return err
	}
	par := ngd.Parallel(workers())

	var met ngd.ParallelMetrics
	pdect := l.timed("par.pdect", func() { _, met = ngd.PDetect(l.graph, rules, par) })
	m.set("par.pdect_s", "s", pdect, 1)
	m.set("par.speedup", "ratio", ratio(m["detect.dect_s"].Value, pdect), workers())
	m.set("par.work_units", "count", float64(met.Units), 1)
	m.set("par.makespan_units", "count", met.Makespan, 1)

	var dv *ngd.DeltaVio
	m.set("inc.incdect_s", "s", l.timed("inc.incdect", func() { dv = ngd.IncDetect(l.graph, rules, delta) }), delta.Len())
	m.set("inc.dvio", "count", float64(len(dv.Plus)+len(dv.Minus)), 1)
	m.set("par.pincdect_s", "s", l.timed("par.pincdect", func() { _, met = ngd.PIncDetect(l.graph, rules, delta, par) }), delta.Len())
	m.set("par.splits", "count", float64(met.Splits), 1)
	m.set("par.moves", "count", float64(met.Moved), 1)
	return nil
}
