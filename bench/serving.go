package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ngd"
	"ngd/bench/workload"
)

// inputs are the generated files and request streams of one serving
// workload, plus the model the output checks compare the daemon against.
type inputs struct {
	dir       string // the workload's own directory under the scratch directory
	ds        *workload.Dataset
	graphPath string
	rulesPath string
	rulesText string
	streams   [][]workload.Request // one per writer
	bodies    [][][]byte           // the requests as POST bodies
}

// bestOf is how many of a run's least disturbed samples (one-second slices,
// or processes) the gated timings average.
const bestOf = 3

// setsPerRun is how many times a run boots the daemon to report the median
// set-up time.
const setsPerRun = 5

// maxOpsRate caps how many unit updates per second of run length are
// generated ahead for one closed-loop writer, about five times what the
// daemon sustains on the reference host; a writer that runs out stops early
// and the rates are taken over the time it ran.
const maxOpsRate = 40000

// writeInputs generates sp's graph and rule files into a fresh directory
// named after the workload, so no run finds another's data directories.
func writeInputs(h *harness, sp spec, seed int64) (*inputs, error) {
	dir := h.path(sp.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{
		dir:       dir,
		ds:        workload.Generate(workload.Config{Entities: sp.entities, ErrorRate: sp.errorRate, Faults: sp.faults, Seed: seed}),
		graphPath: filepath.Join(dir, "graph.txt"),
		rulesPath: filepath.Join(dir, "rules.ngd"),
		rulesText: sp.rules(),
	}
	f, err := os.Create(in.graphPath)
	if err != nil {
		return nil, err
	}
	if err := in.ds.WriteGraph(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return in, os.WriteFile(in.rulesPath, []byte(in.rulesText), 0o644)
}

// generateStreams draws count requests for each of sp's writers.
func (in *inputs) generateStreams(sp spec, seed int64, count int) error {
	for w := 0; w < sp.writers; w++ {
		st := workload.NewStream(in.ds, w, sp.writers, sp.fresh, seed)
		reqs := make([]workload.Request, count)
		bodies := make([][]byte, count)
		for i := range reqs {
			reqs[i] = st.Next()
			body, err := json.Marshal(map[string]any{"ops": reqs[i].Ops})
			if err != nil {
				return err
			}
			bodies[i] = body
		}
		in.streams = append(in.streams, reqs)
		in.bodies = append(in.bodies, bodies)
	}
	return nil
}

// model is the benchmark's own copy of the graph, advanced by every
// acknowledged request; ngd.Detect over it is the reference the daemon's
// violation store is checked against.
type model struct {
	g     *ngd.Graph
	ids   map[string]ngd.NodeID
	rules *ngd.RuleSet
}

func loadModel(in *inputs) (*model, error) {
	f, err := os.Open(in.graphPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, ids, err := ngd.LoadGraph(f)
	if err != nil {
		return nil, err
	}
	rules, err := ngd.ParseRules(strings.NewReader(in.rulesText))
	return &model{g: g, ids: ids, rules: rules}, err
}

// addNodes applies the "node" ops of a request to g the way the serving
// layer does, calling bound for every id it binds.
func addNodes(g *ngd.Graph, ids map[string]ngd.NodeID, ops []ngd.UpdateOp, bound func(string, ngd.NodeID)) {
	for _, op := range ops {
		if op.Op != "node" {
			continue
		}
		v := g.AddNode(op.Label)
		ids[op.ID] = v
		if bound != nil {
			bound(op.ID, v)
		}
		for name, val := range op.Attrs {
			g.SetAttr(v, name, ngd.Int(val.(int64)))
		}
	}
}

// edgeDelta collects the edge ops of a request into a ΔG over g's ids.
func edgeDelta(g *ngd.Graph, ids map[string]ngd.NodeID, ops []ngd.UpdateOp) *ngd.Delta {
	d := &ngd.Delta{}
	for _, op := range ops {
		switch op.Op {
		case "insert":
			d.Insert(ids[op.Src], ids[op.Dst], g.Symbols().Label(op.Label))
		case "delete":
			d.Delete(ids[op.Src], ids[op.Dst], g.Symbols().Label(op.Label))
		}
	}
	return d
}

func (m *model) apply(req workload.Request) {
	addNodes(m.g, m.ids, req.Ops, nil)
	edgeDelta(m.g, m.ids, req.Ops).Apply(m.g)
}

// keys is Vio(Σ, G) of the model as a set of canonical keys.
func (m *model) keys() map[string]struct{} {
	set := make(map[string]struct{})
	for _, v := range ngd.Detect(m.g, m.rules).Violations {
		set[v.Key()] = struct{}{}
	}
	return set
}

// keyDiff names up to three keys on each side of a mismatch, for the check
// message.
func keyDiff(got, want map[string]struct{}) string {
	only := func(a, b map[string]struct{}) []string {
		var out []string
		for k := range a {
			if _, ok := b[k]; !ok && len(out) < 3 {
				out = append(out, k)
			}
		}
		return out
	}
	return fmt.Sprintf("%d vs %d keys; only the daemon has %v, only the reference has %v", len(got), len(want), only(got, want), only(want, got))
}

func sameKeys(a, b map[string]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// tally counts what a run attempted and what failed: requests, processes
// and output checks alike.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

// count records one attempted operation and its outcome.
func (t *tally) count(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// check counts one output check.
func (t *tally) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("output check failed: "+format, args...)
	}
	t.count(err)
}

// client talks to one daemon, counting into a run's tally.
type client struct {
	*tally
	base string
	http *http.Client
}

func newClient(base string, t *tally) *client {
	return &client{tally: t, base: base, http: &http.Client{Timeout: 60 * time.Second}}
}

// getJSON fetches path and decodes a 200 response into out; it returns the
// response size.
func (c *client) getJSON(path string, out any) (int, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(body), fmt.Errorf("GET %s: %s: %.200s", path, resp.Status, body)
	}
	return len(body), json.Unmarshal(body, out)
}

type vioPage struct {
	Violations []struct {
		Key string `json:"key"`
	} `json:"violations"`
}

// allKeys reads the daemon's whole violation store.
func (c *client) allKeys() (map[string]struct{}, error) {
	var page vioPage
	if _, err := c.getJSON("/violations?limit=-1", &page); err != nil {
		return nil, err
	}
	set := make(map[string]struct{}, len(page.Violations))
	for _, v := range page.Violations {
		set[v.Key] = struct{}{}
	}
	return set, nil
}

// daemonStats is the part of GET /stats the benchmark reads.
type daemonStats struct {
	StoreSize  int   `json:"store_size"`
	Nodes      int   `json:"nodes"`
	Edges      int   `json:"edges"`
	Enqueued   int64 `json:"enqueued"`
	Coalesced  int64 `json:"coalesced"`
	DroppedOps int64 `json:"dropped_ops"`
}

// ack is the body of a 200 from POST /update?sync=1. Durable is absent
// without a store and must not be false with one.
type ack struct {
	Committed bool  `json:"committed"`
	Epoch     int   `json:"epoch"`
	Durable   *bool `json:"durable"`
}

// update posts one request body and waits for its commit.
func (c *client) update(body []byte) (ack, error) {
	var a ack
	resp, err := c.http.Post(c.base+"/update?sync=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return a, err
	}
	if resp.StatusCode != http.StatusOK {
		return a, fmt.Errorf("POST /update: %s: %.200s", resp.Status, reply)
	}
	if err := json.Unmarshal(reply, &a); err != nil {
		return a, err
	}
	if !a.Committed || (a.Durable != nil && !*a.Durable) {
		return a, fmt.Errorf("POST /update: not committed durably: %s", reply)
	}
	return a, nil
}

// feed is an SSE subscriber: it composes the commit events into a key set
// and stamps each event's arrival by epoch.
type feed struct {
	resp *http.Response
	done chan struct{}

	mu      sync.Mutex
	keys    map[string]struct{}
	arrived map[int]time.Time
	err     error
}

// subscribe opens GET /feed and returns once the daemon has registered the
// subscription, so every later commit reaches it. base is the key set at
// the epoch the subscription starts from.
func (c *client) subscribe(base map[string]struct{}) (*feed, error) {
	resp, err := (&http.Client{}).Get(c.base + "/feed")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /feed: %s", resp.Status)
	}
	f := &feed{resp: resp, done: make(chan struct{}), keys: make(map[string]struct{}, len(base)), arrived: make(map[int]time.Time)}
	for k := range base {
		f.keys[k] = struct{}{}
	}
	r := bufio.NewReaderSize(resp.Body, 1<<16)
	if hello, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(hello, ": connected") {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /feed: unexpected greeting %q: %v", hello, err)
	}
	go f.read(r)
	return f, nil
}

func (f *feed) read(r *bufio.Reader) {
	defer close(f.done)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return // closed by close, or the daemon died; checks catch the latter
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			if strings.HasPrefix(line, "event: error") {
				f.fail(fmt.Errorf("feed subscriber evicted"))
			}
			continue
		}
		now := time.Now()
		var ev struct {
			Epoch int `json:"epoch"`
			Added []struct {
				Key string `json:"key"`
			} `json:"added"`
			Removed []string `json:"removed"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			f.fail(err)
			continue
		}
		f.mu.Lock()
		f.arrived[ev.Epoch] = now
		for _, k := range ev.Removed {
			delete(f.keys, k)
		}
		for _, v := range ev.Added {
			f.keys[v.Key] = struct{}{}
		}
		f.mu.Unlock()
	}
}

func (f *feed) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

// composed reports whether the events so far reproduce want.
func (f *feed) composed(want map[string]struct{}) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err == nil && sameKeys(f.keys, want)
}

func (f *feed) close() {
	f.resp.Body.Close()
	<-f.done
}

// ackSample is one acknowledged update of the measured phase.
type ackSample struct {
	sent  time.Time // when the POST went out
	endS  float64   // when the response arrived, seconds into the phase
	ms    float64   // send (open loop: due time) to response
	ops   int       // unit updates it carried
	epoch int       // the commit it landed in
}

// servingRun is what one serving workload run measured.
type servingRun struct {
	setupS    samples
	acks      []ackSample
	lateMS    samples // open loop only: due time to send
	feedMS    samples
	readMS    samples
	readBytes float64
	ops       int // unit updates acknowledged in the measured phase
	wall      time.Duration
	recoverS  float64
	rssMB     float64
	stats     daemonStats
	reqBytes  float64 // POST body bytes of the measured phase
	tally
}

// runServing runs one serving workload against the real daemon: boots
// (sets times), warm-up, the measured phase, the output checks, and for a
// durable workload SIGKILL and recovery.
func runServing(h *harness, sp spec, seed int64, seconds float64, sets int) (*servingRun, *inputs, error) {
	in, err := writeInputs(h, sp, seed)
	if err != nil {
		return nil, nil, err
	}
	perWriter := int(seconds*maxOpsRate)/(2*sp.fresh) + 6*workload.Window
	if sp.rate > 0 {
		perWriter = int(seconds*sp.rate) + 6*workload.Window
	}
	if err := in.generateStreams(sp, seed, perWriter); err != nil {
		return nil, nil, err
	}
	m, err := loadModel(in)
	if err != nil {
		return nil, nil, err
	}

	run := &servingRun{}
	// every boot of a durable workload gets a data directory of its own,
	// so each one pays the store bootstrap
	bootArgs := func(i int) []string {
		args := []string{"-graph", in.graphPath, "-rules", in.rulesPath}
		if sp.gateOff {
			args = append(args, "-analyze", "off")
		}
		if sp.walNoSync {
			args = append(args, "-wal-nosync")
		}
		if sp.durable {
			args = append(args, "-data", filepath.Join(in.dir, fmt.Sprintf("data-%d", i)))
		}
		return args
	}
	// the host stalls for seconds at a time, so the timed boots are spread
	// out: most before the measured phase (the last of them serves it), the
	// rest after the checks
	var d *daemon
	defer func() { d.kill() }()
	boot := func(i int) error {
		if d != nil {
			d.kill()
		}
		var took time.Duration
		if d, took, err = h.startDaemon("ngdserve", bootArgs(i)...); err != nil {
			return err
		}
		run.setupS.add(took.Seconds())
		return nil
	}
	before := (sets + 1) / 2
	for i := 0; i < before; i++ {
		if err := boot(i); err != nil {
			return nil, nil, err
		}
	}
	c := newClient(d.base, &run.tally)

	// the store the daemon seeded must be Vio(Σ, G) of the generated graph
	initial, err := c.allKeys()
	c.count(err)
	if err != nil {
		return nil, nil, err
	}
	c.check(sameKeys(initial, m.keys()), "seeded store differs from Detect over the generated graph")
	var fd *feed
	if sp.feed {
		if fd, err = c.subscribe(initial); err != nil {
			return nil, nil, err
		}
		defer fd.close()
	}

	// warm-up: fill the sliding window and the plan cache, untimed
	warm := 2 * workload.Window
	for i := 0; i < warm; i++ {
		for w := range in.bodies {
			_, err := c.update(in.bodies[w][i])
			c.count(err)
			m.apply(in.streams[w][i])
		}
	}

	// measured phase
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex // guards run's samples and the model across writers
	for w := range in.bodies {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := warm; i < len(in.bodies[w]); i++ {
				due := time.Now()
				if sp.rate > 0 {
					due = start.Add(time.Duration(float64(i-warm) / sp.rate * float64(time.Second)))
					time.Sleep(time.Until(due))
				}
				// a durable run ends on a fixed commit count modulo the
				// checkpoint cadence, so recovery always replays the same
				// number of WAL batches
				if !time.Now().Before(deadline) && (!sp.durable || i%checkpointEvery == sp.replay) {
					return
				}
				at := time.Now()
				a, err := c.update(in.bodies[w][i])
				end := time.Now()
				c.count(err)
				mu.Lock()
				if err == nil {
					ops := len(in.streams[w][i].Ops)
					run.acks = append(run.acks, ackSample{at, end.Sub(start).Seconds(), ms(end.Sub(due)), ops, a.Epoch})
					run.lateMS.add(ms(at.Sub(due)))
					run.ops += ops
					run.reqBytes += float64(len(in.bodies[w][i]))
					run.wall = max(run.wall, end.Sub(start))
				}
				m.apply(in.streams[w][i])
				mu.Unlock()
			}
		}(w)
	}
	stopReads := make(chan struct{})
	var readsDone chan struct{}
	if sp.reader {
		readsDone = make(chan struct{})
		go func() {
			defer close(readsDone)
			readLoop(c, in, initial, seed, run, &mu, stopReads)
		}()
	}
	wg.Wait()
	close(stopReads)
	if readsDone != nil {
		<-readsDone
	}

	// output checks: the store, the feed, the counters
	want := m.keys()
	final, err := c.allKeys()
	c.count(err)
	c.check(err == nil && sameKeys(final, want), "store after the stream differs from Detect over the model graph: %s", keyDiff(final, want))
	if fd != nil {
		settled := time.Now().Add(2 * time.Second)
		for !fd.composed(want) && time.Now().Before(settled) {
			time.Sleep(2 * time.Millisecond)
		}
		c.check(fd.composed(want), "feed events composed from epoch 0 do not reproduce the store")
		fd.mu.Lock()
		for _, a := range run.acks {
			if at, ok := fd.arrived[a.epoch]; ok {
				run.feedMS.add(ms(at.Sub(a.sent)))
			}
		}
		fd.mu.Unlock()
	}
	_, err = c.getJSON("/stats", &run.stats)
	c.count(err)
	c.check(run.stats.DroppedOps == 0, "daemon dropped %d ops", run.stats.DroppedOps)
	c.check(run.stats.Nodes == m.g.NumNodes() && run.stats.Edges == m.g.NumEdges(),
		"daemon graph is %d nodes/%d edges, model %d/%d", run.stats.Nodes, run.stats.Edges, m.g.NumNodes(), m.g.NumEdges())
	if run.rssMB, err = peakRSSMB(d.cmd.Process.Pid); err != nil {
		return nil, nil, err
	}

	if sp.durable {
		// SIGKILL, then recover on the same directory: every acknowledged
		// request must be there (state, not epoch numbers)
		d.kill()
		var took time.Duration
		d, took, err = h.startDaemon("ngdserve", bootArgs(before-1)...)
		if err != nil {
			return nil, nil, err
		}
		run.recoverS = took.Seconds()
		rc := newClient(d.base, &run.tally)
		var after daemonStats
		_, err = rc.getJSON("/stats", &after)
		c.count(err)
		c.check(after.Nodes == run.stats.Nodes && after.Edges == run.stats.Edges && after.StoreSize == run.stats.StoreSize,
			"recovered %d nodes/%d edges/%d violations, before the kill %d/%d/%d",
			after.Nodes, after.Edges, after.StoreSize, run.stats.Nodes, run.stats.Edges, run.stats.StoreSize)
		recovered, err := rc.allKeys()
		c.count(err)
		c.check(err == nil && sameKeys(recovered, final), "recovered store differs from the store before the kill")
	}
	for i := before; i < sets; i++ {
		if err := boot(i); err != nil {
			return nil, nil, err
		}
	}
	return run, in, nil
}

// readLoop is the closed-loop reader: 40 % by rule, 40 % by node, 10 % one
// violation by key, 10 % a keyset page. Node and key lookups aim at
// reserved entities, whose violations no stream removes.
func readLoop(c *client, in *inputs, initial map[string]struct{}, seed int64, run *servingRun, mu *sync.Mutex, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var rules, nodes, keys []string
	for _, line := range strings.Split(in.rulesText, "\n") {
		if name, ok := strings.CutPrefix(line, "rule "); ok {
			rules = append(rules, strings.TrimSuffix(name, " {"))
		}
	}
	for _, e := range in.ds.Bad {
		if workload.Reserved(int(e)) {
			nodes = append(nodes, strconv.Itoa(int(workload.EntityNode(int(e)))))
		}
	}
	for k := range initial {
		// the typed rules bind the entity first: "<rule>:<entity>:<props...>"
		f := strings.Split(k, ":")
		if name := f[0]; !strings.HasPrefix(name, "sum-") && !strings.HasPrefix(name, "order-") && !strings.HasPrefix(name, "flag-") {
			continue
		}
		if id, err := strconv.Atoi(f[1]); err == nil {
			if e, ok := workload.EntityOf(int32(id)); ok && workload.Reserved(e) {
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys) // map order is random; the mix must not be
	if len(nodes) == 0 || len(keys) == 0 {
		c.count(fmt.Errorf("the generated graph has no corrupted reserved entity for the read mix to aim at"))
		return
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		var path string
		switch k := rng.Intn(10); {
		case k < 4:
			path = "/violations?limit=50&rule=" + url.QueryEscape(rules[rng.Intn(len(rules))])
		case k < 8:
			path = "/violations?limit=50&node=" + nodes[rng.Intn(len(nodes))]
		case k < 9:
			path = "/violations/" + url.PathEscape(keys[rng.Intn(len(keys))])
		default:
			path = "/violations?limit=200&after=" + url.QueryEscape(keys[rng.Intn(len(keys))])
		}
		at := time.Now()
		var reply struct {
			Epoch *int `json:"epoch"`
		}
		n, err := c.getJSON(path, &reply)
		if err == nil && reply.Epoch == nil {
			err = fmt.Errorf("GET %s: reply carries no epoch", path)
		}
		c.count(err)
		if err == nil {
			mu.Lock()
			run.readMS.add(ms(time.Since(at)))
			run.readBytes += float64(n)
			mu.Unlock()
		}
	}
}

// ackMS lists the ack latencies of the measured phase.
func (r *servingRun) ackMS() samples {
	out := make(samples, len(r.acks))
	for i, a := range r.acks {
		out[i] = a.ms
	}
	return out
}

// bestSlices cuts the measured phase into one-second slices and returns the
// mean of the three lowest slice ack medians and of the three highest slice
// update rates. The reference host is a shared two-core VM: its fsync
// latency wanders between 0.1 and 0.3 ms within a minute, and it stalls for
// a few seconds every so often. Interference only ever slows a slice down,
// so the least disturbed slices repeat from run to run where a figure over
// the whole phase does not; the whole-phase median and p99 are the traced
// run's e2e.ack_p50_ms and e2e.ack_p99_ms.
func (r *servingRun) bestSlices() (p50MS, opsPerS float64) {
	full := int(r.wall.Seconds())
	lat, ops := make([]samples, full), make(samples, full)
	for _, a := range r.acks {
		if s := int(a.endS); s < full {
			lat[s].add(a.ms)
			ops[s] += float64(a.ops)
		}
	}
	var p50s samples
	for _, l := range lat {
		if len(l) > 0 {
			p50s.add(l.median())
		}
	}
	if len(p50s) < bestOf {
		return r.ackMS().median(), ratio(float64(r.ops), r.wall.Seconds())
	}
	sort.Float64s(p50s)
	sort.Float64s(ops)
	return p50s[:bestOf].mean(), ops[len(ops)-bestOf:].mean()
}

// report adds what the run measured to m: the four gated metrics, the
// workload-specific end-to-end figures and the counters read from the
// daemon.
func (r *servingRun) report(m metrics) {
	opsPerS := ratio(float64(r.ops), r.wall.Seconds())
	p50, rate := r.bestSlices()
	m.set("setup_s", "s", r.setupS.median(), len(r.setupS))
	m.set("update_p50_ms", "ms", p50, len(r.acks))
	m.set("update_ops_per_s", "1/s", rate, r.ops)
	m.set("peak_rss_mb", "MB", r.rssMB, 1)
	acks := r.ackMS()
	m.set("e2e.ack_p50_ms", "ms", acks.median(), len(acks))
	m.set("e2e.ack_p99_ms", "ms", acks.p99(), len(acks))
	m.set("e2e.update_ops_per_s", "1/s", opsPerS, r.ops)
	m.set("e2e.late_p99_ms", "ms", r.lateMS.p99(), len(r.lateMS))
	if len(r.feedMS) > 0 {
		m.set("e2e.feed_p50_ms", "ms", r.feedMS.median(), len(r.feedMS))
		m.set("e2e.feed_p99_ms", "ms", r.feedMS.p99(), len(r.feedMS))
	}
	if len(r.readMS) > 0 {
		m.set("e2e.read_p50_ms", "ms", r.readMS.median(), len(r.readMS))
		m.set("e2e.read_p99_ms", "ms", r.readMS.p99(), len(r.readMS))
		m.set("e2e.reads_per_s", "1/s", ratio(float64(len(r.readMS)), r.wall.Seconds()), len(r.readMS))
	}
	if r.recoverS > 0 {
		m.set("e2e.recover_s", "s", r.recoverS, 1)
	}
	m.set("serve.coalesced_ratio", "ratio", ratio(float64(r.stats.Coalesced), float64(r.stats.Enqueued)), int(r.stats.Enqueued))
	m.set("serve.dropped_ops", "count", float64(r.stats.DroppedOps), int(r.stats.Enqueued))
	m.set("http.req_bytes_per_op", "B", ratio(r.reqBytes, float64(r.ops)), r.ops)
}
