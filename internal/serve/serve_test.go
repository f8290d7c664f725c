package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ngd/internal/analyze"
	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/pattern"
	"ngd/internal/serve"
	"ngd/internal/session"
)

// ageRule: x -knows-> y requires x.age ≤ y.age (violated when an older
// node knows a younger one).
func ageRule() *core.NGD {
	q := pattern.New()
	x := q.AddNode("x", "person")
	y := q.AddNode("y", "person")
	q.AddEdge(x, y, "knows")
	return core.MustNew("age-order", q, nil, []core.Literal{
		core.Lit(expr.V("x", "age"), expr.Le, expr.V("y", "age")),
	})
}

// tinyWorld: two persons with one violating edge.
func tinyWorld(t *testing.T) (*session.Session, map[string]graph.NodeID) {
	t.Helper()
	g := graph.New()
	names := map[string]graph.NodeID{}
	a := g.AddNode("person")
	g.SetAttr(a, "age", graph.Int(30))
	names["alice"] = a
	b := g.AddNode("person")
	g.SetAttr(b, "age", graph.Int(20))
	names["bob"] = b
	g.AddEdge(a, b, "knows") // 30 > 20: violation
	return session.New(g, core.NewSet(ageRule()), session.Options{}), names
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, srv *httptest.Server, path string, body any, out any) int {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: decode %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPEndpoints(t *testing.T) {
	sess, names := tinyWorld(t)
	s := serve.New(sess, serve.Options{Names: names})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var health struct {
		OK    bool `json:"ok"`
		Epoch int  `json:"epoch"`
	}
	if code := getJSON(t, srv, "/healthz", &health); code != 200 || !health.OK {
		t.Fatalf("healthz: code %d, %+v", code, health)
	}

	var list struct {
		Epoch      int `json:"epoch"`
		Total      int `json:"total"`
		Violations []struct {
			Key  string `json:"key"`
			Rule string `json:"rule"`
		} `json:"violations"`
	}
	if code := getJSON(t, srv, "/violations", &list); code != 200 {
		t.Fatalf("violations: code %d", code)
	}
	if list.Total != 1 || len(list.Violations) != 1 || list.Violations[0].Rule != "age-order" {
		t.Fatalf("violations: %+v", list)
	}

	// keyed lookup
	var one struct {
		Violation struct {
			Key string `json:"key"`
		} `json:"violation"`
	}
	key := list.Violations[0].Key
	if code := getJSON(t, srv, "/violations/"+key, &one); code != 200 || one.Violation.Key != key {
		t.Fatalf("violations/%s: code %d, %+v", key, code, one)
	}
	var missing map[string]any
	if code := getJSON(t, srv, "/violations/no-such:9", &missing); code != 404 {
		t.Fatalf("missing key: code %d", code)
	}

	// hostile-but-parseable paging params must clamp, not panic the handler
	for _, q := range []string{
		"?limit=-3", "?limit=9223372036854775807", "?limit=-1",
		"?after=zzzz", "?node=-7", "?node=999999",
	} {
		var page struct {
			Returned int `json:"returned"`
		}
		if code := getJSON(t, srv, "/violations"+q, &page); code != 200 {
			t.Fatalf("violations%s: code %d", q, code)
		}
	}

	// a new node arriving with attributes plus a violating edge, committed
	// synchronously
	var committed struct {
		Committed bool `json:"committed"`
		Epoch     int  `json:"epoch"`
	}
	code := postJSON(t, srv, "/update?sync=1", map[string]any{
		"ops": []map[string]any{
			{"op": "node", "id": "carol", "label": "person", "attrs": map[string]any{"age": 10}},
			{"op": "insert", "src": "bob", "dst": "carol", "label": "knows"},
		},
	}, &committed)
	if code != 200 || !committed.Committed || committed.Epoch != 1 {
		t.Fatalf("update sync: code %d, %+v", code, committed)
	}
	if code := getJSON(t, srv, "/violations", &list); code != 200 {
		t.Fatalf("violations after update: code %d", code)
	}
	if list.Total != 2 || list.Epoch != 1 {
		t.Fatalf("after update: total %d epoch %d, want 2 at epoch 1", list.Total, list.Epoch)
	}

	// deleting the original violating edge removes its violation
	code = postJSON(t, srv, "/update?sync=1", map[string]any{
		"ops": []map[string]any{
			{"op": "delete", "src": "alice", "dst": "bob", "label": "knows"},
		},
	}, &committed)
	if code != 200 {
		t.Fatalf("delete: code %d", code)
	}
	if getJSON(t, srv, "/violations", &list); list.Total != 1 {
		t.Fatalf("after delete: total %d, want 1", list.Total)
	}

	var st serve.Stats
	if code := getJSON(t, srv, "/stats", &st); code != 200 {
		t.Fatalf("stats: code %d", code)
	}
	if st.Epoch != 2 || st.StoreSize != 1 || st.Commits != 2 || st.LastBatch == nil {
		t.Fatalf("stats: %+v", st)
	}

	// malformed body
	resp, err := srv.Client().Post(srv.URL+"/update", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed update: code %d", resp.StatusCode)
	}

	// invariant audit once the writer is quiet
	s.Close()
	if err := sess.Recheck(); err != nil {
		t.Fatalf("store invariant: %v", err)
	}
}

// TestStatsMemOnRequest: the mem block costs a stop-the-world read, so a
// plain GET /stats (and Server.Stats) omits it and ?mem=1 asks for it.
func TestStatsMemOnRequest(t *testing.T) {
	sess, names := tinyWorld(t)
	s := serve.New(sess, serve.Options{Names: names})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var plain, withMem map[string]json.RawMessage
	if code := getJSON(t, srv, "/stats", &plain); code != 200 {
		t.Fatalf("stats: code %d", code)
	}
	if _, ok := plain["mem"]; ok || plain["epoch"] == nil || s.Stats().Mem != nil {
		t.Fatalf("plain /stats must carry epoch and no mem block: %s", plain)
	}
	if code := getJSON(t, srv, "/stats?mem=1", &withMem); code != 200 {
		t.Fatalf("stats?mem=1: code %d", code)
	}
	var mem serve.MemCounters
	if err := json.Unmarshal(withMem["mem"], &mem); err != nil || mem.HeapAllocBytes == 0 || mem.Mallocs == 0 {
		t.Fatalf("/stats?mem=1: mem block %s (%v)", withMem["mem"], err)
	}
}

// TestStatsReportsCommitHookError: a failed write-ahead append reaches
// /stats as durability_error with its message, and last_batch carries no
// LogErr key — encoding/json would render the error as {} or as the fields
// of an *fs.PathError, never as its message.
func TestStatsReportsCommitHookError(t *testing.T) {
	sess, names := tinyWorld(t)
	walErr := &fs.PathError{Op: "write", Path: "wal/000001.log", Err: errors.New("no space left on device")}
	var failed atomic.Bool
	sess.SetCommitHook(func(*graph.Graph, *graph.Delta, []graph.AttrOp, graph.NodeID, graph.NodeID) error {
		failed.Store(true)
		return walErr
	})
	s := serve.New(sess, serve.Options{Names: names, DurabilityErr: func() error {
		if failed.Load() {
			return walErr
		}
		return nil
	}})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if _, err := s.Enqueue([]serve.UpdateOp{{Op: "insert", Src: "bob", Dst: "alice", Label: "knows"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if lb := s.Stats().LastBatch; lb == nil || lb.LogErr != walErr {
		t.Fatalf("Stats().LastBatch = %+v, want LogErr %v", lb, walErr)
	}

	var body struct {
		DurabilityError string                     `json:"durability_error"`
		LastBatch       map[string]json.RawMessage `json:"last_batch"`
	}
	if code := getJSON(t, srv, "/stats", &body); code != 200 {
		t.Fatalf("stats: code %d", code)
	}
	if body.DurabilityError != walErr.Error() {
		t.Errorf("durability_error = %q, want %q", body.DurabilityError, walErr.Error())
	}
	if body.LastBatch == nil {
		t.Fatal("/stats has no last_batch after a commit")
	}
	if v, ok := body.LastBatch["LogErr"]; ok {
		t.Errorf("last_batch carries LogErr = %s", v)
	}
	// the commit's stage laps render by name, in nanoseconds, beside its wall
	var laps map[string]int64
	if err := json.Unmarshal(body.LastBatch["Laps"], &laps); err != nil || len(laps) != 8 {
		t.Errorf("last_batch Laps = %s (%v), want the 8 stages", body.LastBatch["Laps"], err)
	}
	if _, ok := body.LastBatch["Wall"]; !ok {
		t.Error("last_batch has no Wall")
	}
}

func TestDroppedOps(t *testing.T) {
	sess, names := tinyWorld(t)
	s := serve.New(sess, serve.Options{Names: names})
	defer s.Close()

	done, err := s.Enqueue([]serve.UpdateOp{
		{Op: "insert", Src: "alice", Dst: "nobody", Label: "knows"},   // unknown dst
		{Op: "delete", Src: "alice", Dst: "bob", Label: "never-seen"}, // unknown label
		{Op: "node", ID: "alice", Label: "person"},                    // duplicate id
		{Op: "node", ID: "42", Label: "person"},                       // numeric id reserved
		{Op: "frobnicate"},                                            // unknown op
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done.Done()
	if got := s.Stats().DroppedOps; got != 5 {
		t.Errorf("DroppedOps = %d, want 5", got)
	}
	if s.Snapshot().Len() != 1 {
		t.Errorf("store changed by dropped ops")
	}
}

// TestConcurrentReadersNeverBlockedByCommits is the serving-layer race
// test: many readers hammer the snapshot and the HTTP API while the writer
// streams commits. Run under -race in CI. Readers assert epoch
// monotonicity and per-snapshot consistency; afterwards the store must
// still equal Dect(Σ, G).
func TestConcurrentReadersNeverBlockedByCommits(t *testing.T) {
	profile := gen.YAGO2
	ds := gen.Generate(profile, 200, 5)
	rules := gen.Rules(profile, gen.RuleConfig{Count: 8, MaxDiameter: 4, Seed: 5})

	// pre-generate the update stream: gen.RandomDelta mutates the graph
	// (node arrivals), which is only safe before the server's writer owns it
	const batches = 6
	deltas := make([]*graph.Delta, batches)
	for b := range deltas {
		deltas[b] = gen.RandomDelta(ds, gen.DeltaConfig{
			Size: gen.DeltaSize(ds.G, 0.05), Gamma: 1, Seed: int64(500 + b),
		})
	}
	toOps := func(d *graph.Delta) []serve.UpdateOp {
		ops := make([]serve.UpdateOp, len(d.Ops))
		for i, op := range d.Ops {
			kind := "delete"
			if op.Insert {
				kind = "insert"
			}
			ops[i] = serve.UpdateOp{
				Op:    kind,
				Src:   fmt.Sprint(int(op.Src)),
				Dst:   fmt.Sprint(int(op.Dst)),
				Label: ds.G.Symbols().LabelName(op.Label),
			}
		}
		return ops
	}

	sess := session.New(ds.G, rules, session.Options{})
	s := serve.New(sess, serve.Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var stop atomic.Bool
	var readErr atomic.Value
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(viaHTTP bool) {
			defer wg.Done()
			lastEpoch := -1
			for !stop.Load() {
				if viaHTTP {
					resp, err := srv.Client().Get(srv.URL + "/violations?limit=5")
					if err != nil {
						readErr.Store(fmt.Errorf("GET /violations: %w", err))
						return
					}
					var page struct {
						Epoch int `json:"epoch"`
					}
					err = json.NewDecoder(resp.Body).Decode(&page)
					resp.Body.Close()
					if err != nil {
						readErr.Store(fmt.Errorf("decode: %w", err))
						return
					}
					if page.Epoch < lastEpoch {
						readErr.Store(fmt.Errorf("epoch went backwards: %d -> %d", lastEpoch, page.Epoch))
						return
					}
					lastEpoch = page.Epoch
				} else {
					sn := s.Snapshot()
					if sn.Epoch < lastEpoch {
						readErr.Store(fmt.Errorf("epoch went backwards: %d -> %d", lastEpoch, sn.Epoch))
						return
					}
					lastEpoch = sn.Epoch
					vios := sn.Violations()
					if len(vios) != sn.Len() {
						readErr.Store(fmt.Errorf("snapshot inconsistent: %d != %d", len(vios), sn.Len()))
						return
					}
					if len(vios) > 0 {
						if _, ok := sn.Get(vios[0].Key()); !ok {
							readErr.Store(fmt.Errorf("snapshot index missing first violation"))
							return
						}
					}
				}
				reads.Add(1)
			}
		}(r%2 == 0)
	}

	// let the readers complete at least one read before the stream starts:
	// on a single-core host the writer could otherwise run to completion
	// before any reader goroutine is ever scheduled
	for reads.Load() == 0 {
		if err, ok := readErr.Load().(error); ok && err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}

	for _, d := range deltas {
		if _, err := s.Enqueue(toOps(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	s.Close()

	if err, ok := readErr.Load().(error); ok && err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().Epoch == 0 {
		t.Fatal("no commits observed")
	}
	if reads.Load() == 0 {
		t.Fatal("readers made no progress")
	}
	if err := sess.Recheck(); err != nil {
		t.Fatalf("store invariant after serving: %v", err)
	}
	t.Logf("%d reads across %d commits, final store %d", reads.Load(), s.Stats().Commits, s.Snapshot().Len())
}

// TestServeSurfacesPlanCounters drives commits through the serving layer
// while concurrent readers poll /stats, and checks that the shared rule
// program's plan-cache counters are (a) exposed on the wire and (b) warm:
// after the first batches, further commits are all cache hits. Runs under
// -race in CI, pinning the claim that Counters is safe to read from any
// goroutine while the writer plans.
func TestServeSurfacesPlanCounters(t *testing.T) {
	ds := gen.Generate(gen.YAGO2, 150, 3)
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: 10, MaxDiameter: 4, Seed: 3})
	sess := session.New(ds.G, rules, session.Options{})
	deltas := make([]*graph.Delta, 6)
	for b := range deltas {
		deltas[b] = gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(ds.G, 0.03), Gamma: 1, Seed: 900 + int64(b)})
	}
	s := serve.New(sess, serve.Options{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				var st serve.Stats
				getJSON(t, srv, "/stats", &st)
				if st.Plan.Rules == 0 {
					t.Error("/stats reports a program with no rules")
					return
				}
			}
		}()
	}
	toOps := func(d *graph.Delta) []serve.UpdateOp {
		ops := make([]serve.UpdateOp, len(d.Ops))
		for i, op := range d.Ops {
			kind := "delete"
			if op.Insert {
				kind = "insert"
			}
			ops[i] = serve.UpdateOp{
				Op: kind, Src: fmt.Sprint(int(op.Src)), Dst: fmt.Sprint(int(op.Dst)),
				Label: ds.G.Symbols().LabelName(op.Label),
			}
		}
		return ops
	}
	var prev serve.Stats
	getJSON(t, srv, "/stats", &prev)
	for b, d := range deltas {
		done, err := s.Enqueue(toOps(d))
		if err != nil {
			t.Fatal(err)
		}
		<-done.Done()
		var st serve.Stats
		getJSON(t, srv, "/stats", &st)
		if st.Plan.Hits < prev.Plan.Hits || st.Plan.Misses < prev.Plan.Misses {
			t.Fatalf("batch %d: plan counters went backwards: %+v -> %+v", b+1, prev.Plan, st.Plan)
		}
		if b >= 3 && st.Plan.Misses != prev.Plan.Misses && st.LastBatch.Ops > 0 {
			t.Logf("batch %d still compiling plans (misses %d -> %d)", b+1, prev.Plan.Misses, st.Plan.Misses)
		}
		prev = st
	}
	if prev.Plan.Hits == 0 {
		t.Fatal("no plan-cache hits across the whole stream")
	}
	stop.Store(true)
	wg.Wait()
	if err := sessRecheck(s, sess); err != nil {
		t.Fatal(err)
	}
}

// sessRecheck audits the store invariant after the server quiesced (Close
// drains the queue; the session is safe to touch again afterwards).
func sessRecheck(s *serve.Server, sess *session.Session) error {
	s.Close()
	return sess.Recheck()
}

// deadRule cannot be violated in any graph (unsatisfiable precondition):
// the session's admission pass must drop it and /rules/analysis must say so.
func deadRule() *core.NGD {
	q := pattern.New()
	q.AddNode("x", "person")
	return core.MustNew("dead", q,
		[]core.Literal{
			core.Lit(expr.V("x", "age"), expr.Lt, expr.C(0)),
			core.Lit(expr.V("x", "age"), expr.Gt, expr.C(0)),
		},
		[]core.Literal{core.Lit(expr.V("x", "age"), expr.Eq, expr.C(1))})
}

func TestRulesAnalysisEndpoint(t *testing.T) {
	g := graph.New()
	a := g.AddNode("person")
	g.SetAttr(a, "age", graph.Int(30))
	b := g.AddNode("person")
	g.SetAttr(b, "age", graph.Int(20))
	g.AddEdge(a, b, "knows")
	sess := session.New(g, core.NewSet(ageRule(), deadRule()), session.Options{})
	if got := sess.DroppedRules(); len(got) != 1 || got[0] != "dead" {
		t.Fatalf("session dropped = %v, want [dead]", got)
	}

	s := serve.New(sess, serve.Options{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var first struct {
		Epoch          int             `json:"epoch"`
		Cached         bool            `json:"cached"`
		SessionDropped []string        `json:"session_dropped"`
		Report         json.RawMessage `json:"report"`
	}
	if code := getJSON(t, srv, "/rules/analysis", &first); code != 200 {
		t.Fatalf("status %d", code)
	}
	if first.Cached {
		t.Fatal("first request claims cached")
	}
	if len(first.SessionDropped) != 1 || first.SessionDropped[0] != "dead" {
		t.Fatalf("session_dropped = %v", first.SessionDropped)
	}
	var rep struct {
		Signature   string `json:"signature"`
		Satisfiable string `json:"satisfiable"`
		NumRules    int    `json:"num_rules"`
	}
	if err := json.Unmarshal(first.Report, &rep); err != nil {
		t.Fatal(err)
	}
	// the lazy report covers the session's minimized Σ
	if rep.NumRules != 1 || rep.Satisfiable != "yes" || rep.Signature == "" {
		t.Fatalf("report = %+v", rep)
	}

	// second request: served from the signature-keyed cache
	var second struct {
		Cached bool            `json:"cached"`
		Report json.RawMessage `json:"report"`
	}
	getJSON(t, srv, "/rules/analysis", &second)
	if !second.Cached {
		t.Fatal("second request not cached")
	}
	if string(second.Report) != string(first.Report) {
		t.Fatal("cache returned a different report")
	}
}

func TestRulesAnalysisInjectedReport(t *testing.T) {
	// ngdserve's boot gate injects its report over the full Σ; the
	// endpoint must serve it verbatim and mark it cached.
	full := core.NewSet(ageRule(), deadRule())
	rep := analyze.Analyze(full, analyze.Options{})
	if len(rep.Dropped) != 1 || rep.Dropped[0] != "dead" {
		t.Fatalf("boot report dropped = %v", rep.Dropped)
	}
	sess, names := tinyWorld(t)
	s := serve.New(sess, serve.Options{Names: names, Analysis: rep})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var got struct {
		Cached bool `json:"cached"`
		Report struct {
			Signature string   `json:"signature"`
			NumRules  int      `json:"num_rules"`
			Dropped   []string `json:"dropped"`
		} `json:"report"`
	}
	getJSON(t, srv, "/rules/analysis", &got)
	if !got.Cached || got.Report.Signature != rep.Signature || got.Report.NumRules != 2 {
		t.Fatalf("injected report not served: %+v", got)
	}
	if len(got.Report.Dropped) != 1 || got.Report.Dropped[0] != "dead" {
		t.Fatalf("dropped = %v", got.Report.Dropped)
	}
}

// TestUpdateKeepsLargeIntegersExact: POST /update takes an integer attribute
// exactly anywhere in int64 range, not through float64, which rounds
// 2⁶² − 1 up to 2⁶².
func TestUpdateKeepsLargeIntegersExact(t *testing.T) {
	sess, names := tinyWorld(t)
	s := serve.New(sess, serve.Options{Names: names})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const big = 1<<62 - 1
	body := json.RawMessage(fmt.Sprintf(`{"ops":[{"op":"setattr","id":"alice","attrs":{"age":%d}},`+
		`{"op":"node","id":"carol","label":"person","attrs":{"age":%d}}]}`, big, big))
	if code := postJSON(t, srv, "/update?sync=1", body, nil); code != 200 {
		t.Fatalf("update: code %d", code)
	}
	// the sync ack returned after the commit: the writer is idle
	for _, v := range []graph.NodeID{names["alice"], graph.NodeID(sess.Graph().NumNodes() - 1)} {
		if got := sess.Graph().AttrByName(v, "age"); got != graph.Int(big) {
			t.Errorf("node %d: age = %v, want %d", v, got, big)
		}
	}
}
