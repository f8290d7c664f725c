package serve_test

// Serving-layer coverage for PR 7: the violation change feed (SSE +
// long-poll + cursors), the indexed keyset queries, and the request
// hygiene fixes (strict params, bounded bodies, exact sync-ack epochs).
// The -race CI target runs all of it.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/serve"
	"ngd/internal/session"
)

// feedEvent mirrors the wire form of one change-feed event.
type feedEvent struct {
	Epoch int `json:"epoch"`
	Added []struct {
		Key   string  `json:"key"`
		Rule  string  `json:"rule"`
		Match []int32 `json:"match"`
	} `json:"added"`
	Removed []string `json:"removed"`
}

// vioPage mirrors the wire form of GET /violations.
type vioPage struct {
	Epoch      int    `json:"epoch"`
	Total      int    `json:"total"`
	Returned   int    `json:"returned"`
	Next       string `json:"next"`
	Violations []struct {
		Key   string  `json:"key"`
		Rule  string  `json:"rule"`
		Match []int32 `json:"match"`
	} `json:"violations"`
}

// deltaOps converts a generated graph delta to wire ops (the graph already
// contains any arrived nodes; gen.RandomDelta mutates it, so deltas must be
// pre-generated before the server's writer takes ownership).
func deltaOps(ds *gen.Dataset, d *graph.Delta) []serve.UpdateOp {
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

// TestFeedDifferentialAgainstStore is the feed's correctness anchor: a
// subscriber that starts from the seed store and applies every event's
// Removed-then-Added must hold exactly Vio(Σ, G) at the final epoch —
// i.e. the pushed deltas compose to the same set Dect(Σ, G) maintains.
func TestFeedDifferentialAgainstStore(t *testing.T) {
	profile := gen.YAGO2
	ds := gen.Generate(profile, 200, 23)
	rules := gen.Rules(profile, gen.RuleConfig{Count: 8, MaxDiameter: 4, Seed: 23})
	const batches = 6
	deltas := make([]*graph.Delta, batches)
	for b := range deltas {
		deltas[b] = gen.RandomDelta(ds, gen.DeltaConfig{
			Size: gen.DeltaSize(ds.G, 0.05), Gamma: 1, Seed: int64(2300 + b),
		})
	}

	sess := session.New(ds.G, rules, session.Options{})
	s := serve.New(sess, serve.Options{})

	// seed the subscriber's mirror from the pre-commit store
	mirror := map[string]bool{}
	for _, v := range s.Snapshot().Violations() {
		mirror[v.Key()] = true
	}
	sub, err := s.Subscribe(s.Snapshot().Epoch)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	for _, d := range deltas {
		ack, err := s.Enqueue(deltaOps(ds, d))
		if err != nil {
			t.Fatal(err)
		}
		<-ack.Done()
	}

	// all events are buffered (batches ≤ FeedBuffer); apply them in order
	events := 0
drain:
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				t.Fatalf("feed closed early: %v", sub.Err())
			}
			events++
			var fe feedEvent
			if err := json.Unmarshal(ev.JSON(), &fe); err != nil {
				t.Fatalf("event JSON: %v", err)
			}
			if fe.Epoch != ev.Epoch {
				t.Fatalf("wire epoch %d != event epoch %d", fe.Epoch, ev.Epoch)
			}
			for _, k := range fe.Removed {
				if !mirror[k] {
					t.Fatalf("epoch %d removes %q the subscriber never had", fe.Epoch, k)
				}
				delete(mirror, k)
			}
			for _, v := range fe.Added {
				if mirror[v.Key] {
					t.Fatalf("epoch %d adds %q twice", fe.Epoch, v.Key)
				}
				mirror[v.Key] = true
			}
		default:
			break drain
		}
	}
	if events == 0 {
		t.Fatal("no feed events across the whole stream")
	}

	sn := s.Snapshot()
	if len(mirror) != sn.Len() {
		t.Fatalf("replayed mirror has %d violations, store %d at epoch %d",
			len(mirror), sn.Len(), sn.Epoch)
	}
	for _, v := range sn.Violations() {
		if !mirror[v.Key()] {
			t.Fatalf("mirror missing %q", v.Key())
		}
	}
	s.Close()
	if err := sess.Recheck(); err != nil {
		t.Fatalf("store invariant: %v", err)
	}
}

// addPerson returns ops that add one new person below bob's age plus a
// violating bob→new edge: exactly one ΔVio⁺ per commit in tinyWorld.
func addPerson(i int) []serve.UpdateOp {
	id := fmt.Sprintf("n%d", i)
	return []serve.UpdateOp{
		{Op: "node", ID: id, Label: "person", Attrs: map[string]any{"age": 1 + i}},
		{Op: "insert", Src: "bob", Dst: id, Label: "knows"},
	}
}

// TestFeedSSEStream subscribes over HTTP and checks the wire framing: the
// connected comment, then one id:/event:/data: frame per effective commit.
func TestFeedSSEStream(t *testing.T) {
	sess, names := tinyWorld(t)
	s := serve.New(sess, serve.Options{Names: names})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/feed", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("feed: code %d, content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	rd := bufio.NewReader(resp.Body)
	line, err := rd.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, ": connected epoch=") {
		t.Fatalf("greeting = %q, %v", line, err)
	}

	if code := postJSON(t, srv, "/update?sync=1", map[string]any{"ops": addPerson(1)}, nil); code != 200 {
		t.Fatalf("update: code %d", code)
	}

	// next frame: id: 1 / event: commit / data: {...}
	var id, event, data string
	for data == "" {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		switch {
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimSpace(line[4:])
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimSpace(line[7:])
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimSpace(line[6:])
		}
	}
	if id != "1" || event != "commit" {
		t.Fatalf("frame: id=%q event=%q", id, event)
	}
	var fe feedEvent
	if err := json.Unmarshal([]byte(data), &fe); err != nil {
		t.Fatalf("data: %v", err)
	}
	if fe.Epoch != 1 || len(fe.Added) != 1 || len(fe.Removed) != 0 {
		t.Fatalf("event = %+v, want epoch 1 with one addition", fe)
	}
	if fe.Added[0].Rule != "age-order" {
		t.Fatalf("added rule = %q", fe.Added[0].Rule)
	}
}

// TestFeedLongPollAndCursors exercises the ?poll=1 fallback and the cursor
// contract: since= replays missed epochs, next_since resumes without loss,
// and a cursor older than the backlog gets 410 Gone with a resync hint.
func TestFeedLongPollAndCursors(t *testing.T) {
	sess, names := tinyWorld(t)
	s := serve.New(sess, serve.Options{
		Names: names, FeedBacklog: 2, PollTimeout: 100 * time.Millisecond,
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for i := 1; i <= 4; i++ {
		if code := postJSON(t, srv, "/update?sync=1", map[string]any{"ops": addPerson(i)}, nil); code != 200 {
			t.Fatalf("update %d: code %d", i, code)
		}
	}

	// backlog capacity 2 retains epochs {3,4}: since=2 resumes exactly there
	var poll struct {
		Epoch     int               `json:"epoch"`
		Since     int               `json:"since"`
		Events    []json.RawMessage `json:"events"`
		NextSince int               `json:"next_since"`
	}
	if code := getJSON(t, srv, "/feed?poll=1&since=2", &poll); code != 200 {
		t.Fatalf("poll: code %d", code)
	}
	if len(poll.Events) != 2 || poll.NextSince != 4 {
		t.Fatalf("poll = %+v, want 2 events and next_since 4", poll)
	}
	var first feedEvent
	if err := json.Unmarshal(poll.Events[0], &first); err != nil || first.Epoch != 3 {
		t.Fatalf("first replayed event = %+v, %v (want epoch 3)", first, err)
	}

	// resuming from next_since with nothing new parks, then returns empty
	if code := getJSON(t, srv, "/feed?poll=1&since=4", &poll); code != 200 {
		t.Fatalf("empty poll: code %d", code)
	}
	if len(poll.Events) != 0 || poll.NextSince != 4 {
		t.Fatalf("empty poll = %+v", poll)
	}

	// an aged-out cursor must not silently skip epochs: 410 + resync hint
	var gone struct {
		Error  string `json:"error"`
		Oldest int    `json:"oldest"`
		Resync string `json:"resync"`
	}
	if code := getJSON(t, srv, "/feed?poll=1&since=1", &gone); code != 410 {
		t.Fatalf("aged cursor: code %d", code)
	}
	if gone.Oldest != 2 || gone.Resync == "" {
		t.Fatalf("410 body = %+v, want oldest 2 and a resync hint", gone)
	}
	if code := getJSON(t, srv, "/feed?since=0", &gone); code != 410 {
		t.Fatalf("aged SSE cursor: code %d", code)
	}
}

// TestFeedRenderedCount pins /stats feed_rendered: an event is rendered by
// the first reader that asks for it, once, and never without a reader.
func TestFeedRenderedCount(t *testing.T) {
	sess, names := tinyWorld(t)
	s := serve.New(sess, serve.Options{Names: names, PollTimeout: 100 * time.Millisecond})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	rendered := func() int64 {
		t.Helper()
		var st struct {
			FeedRendered *int64 `json:"feed_rendered"`
		}
		if code := getJSON(t, srv, "/stats", &st); code != 200 || st.FeedRendered == nil {
			t.Fatalf("stats: code %d, feed_rendered %v", code, st.FeedRendered)
		}
		return *st.FeedRendered
	}

	const k = 4
	for i := 1; i <= k; i++ {
		if code := postJSON(t, srv, "/update?sync=1", map[string]any{"ops": addPerson(i)}, nil); code != 200 {
			t.Fatalf("update %d: code %d", i, code)
		}
	}
	if n := rendered(); n != 0 {
		t.Fatalf("feed_rendered = %d after %d commits with no subscriber, want 0", n, k)
	}

	// two subscribers replay the same backlog, twice each
	for round := 0; round < 2; round++ {
		for sub := 0; sub < 2; sub++ {
			var poll struct {
				Events []json.RawMessage `json:"events"`
			}
			if code := getJSON(t, srv, "/feed?poll=1&since=0", &poll); code != 200 || len(poll.Events) != k {
				t.Fatalf("replay %d/%d: code %d, %d events, want %d", round, sub, code, len(poll.Events), k)
			}
		}
		if n := rendered(); n != k {
			t.Fatalf("feed_rendered = %d after replay round %d, want %d", n, round, k)
		}
	}
}

// TestCursorPaginationStableAcrossCommit walks the store in keyset pages
// while a commit lands mid-walk. Keys are stable identities, so the walk
// must stay strictly ascending with no duplicates, and every violation
// that exists both before and after the commit is returned exactly once —
// the guarantee offset pagination could not give.
func TestCursorPaginationStableAcrossCommit(t *testing.T) {
	profile := gen.YAGO2
	profile.ErrorRate = 0.4 // dense store: the walk needs many pages
	ds := gen.Generate(profile, 300, 31)
	rules := gen.EffectivenessRules(profile)
	mid := gen.RandomDelta(ds, gen.DeltaConfig{
		Size: gen.DeltaSize(ds.G, 0.08), Gamma: 1, Seed: 3100,
	})
	sess := session.New(ds.G, rules, session.Options{})
	s := serve.New(sess, serve.Options{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var full vioPage
	getJSON(t, srv, "/violations?limit=-1", &full)
	if full.Total < 20 {
		t.Fatalf("world too small for a pagination walk: %d violations", full.Total)
	}
	before := map[string]bool{}
	for _, v := range full.Violations {
		before[v.Key] = true
	}

	const pageSize = 7
	var walked []string
	after := ""
	pages := 0
	for {
		url := fmt.Sprintf("/violations?limit=%d", pageSize)
		if after != "" {
			url += "&after=" + after
		}
		var page vioPage
		if code := getJSON(t, srv, url, &page); code != 200 {
			t.Fatalf("page %d: code %d", pages, code)
		}
		for _, v := range page.Violations {
			walked = append(walked, v.Key)
		}
		pages++
		if pages == 2 { // commit lands mid-walk
			ack, err := s.Enqueue(deltaOps(ds, mid))
			if err != nil {
				t.Fatal(err)
			}
			<-ack.Done()
		}
		if page.Next == "" {
			break
		}
		after = page.Next
	}

	for i := 1; i < len(walked); i++ {
		if walked[i-1] >= walked[i] {
			t.Fatalf("walk not strictly ascending at %d: %q then %q", i, walked[i-1], walked[i])
		}
	}
	getJSON(t, srv, "/violations?limit=-1", &full)
	afterSet := map[string]bool{}
	for _, v := range full.Violations {
		afterSet[v.Key] = true
	}
	got := map[string]bool{}
	for _, k := range walked {
		got[k] = true
	}
	for k := range before {
		if afterSet[k] && !got[k] {
			t.Fatalf("violation %q survived the commit but the walk skipped it", k)
		}
	}
	if s.Snapshot().Epoch != 1 {
		t.Fatalf("epoch = %d, want exactly the mid-walk commit", s.Snapshot().Epoch)
	}
}

// TestIndexedQueriesMatchNaiveFilter pins the secondary indexes to ground
// truth after several epochs of incremental maintenance: for every rule
// and a sample of nodes, ?rule= / ?node= must return exactly what a full
// scan filtered by the same predicate returns.
func TestIndexedQueriesMatchNaiveFilter(t *testing.T) {
	profile := gen.Pokec
	profile.ErrorRate = 0.3 // a populated store across several rules
	ds := gen.Generate(profile, 250, 41)
	rules := gen.EffectivenessRules(profile)
	deltas := make([]*graph.Delta, 4)
	for b := range deltas {
		deltas[b] = gen.RandomDelta(ds, gen.DeltaConfig{
			Size: gen.DeltaSize(ds.G, 0.06), Gamma: 1, Seed: int64(4100 + b),
		})
	}
	sess := session.New(ds.G, rules, session.Options{})
	s := serve.New(sess, serve.Options{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, d := range deltas {
		ack, err := s.Enqueue(deltaOps(ds, d))
		if err != nil {
			t.Fatal(err)
		}
		<-ack.Done()
	}

	var full vioPage
	getJSON(t, srv, "/violations?limit=-1", &full)
	if full.Total == 0 {
		t.Fatal("empty store, nothing to compare")
	}
	byRule := map[string][]string{}
	byNode := map[int32][]string{}
	for _, v := range full.Violations {
		byRule[v.Rule] = append(byRule[v.Rule], v.Key)
		seen := map[int32]bool{}
		for _, id := range v.Match {
			if !seen[id] {
				seen[id] = true
				byNode[id] = append(byNode[id], v.Key)
			}
		}
	}

	fetch := func(q string) []string {
		var page vioPage
		if code := getJSON(t, srv, "/violations?limit=-1&"+q, &page); code != 200 {
			t.Fatalf("%s: code %d", q, code)
		}
		if page.Total != page.Returned {
			t.Fatalf("%s: total %d != returned %d at limit=-1", q, page.Total, page.Returned)
		}
		keys := make([]string, len(page.Violations))
		for i, v := range page.Violations {
			keys[i] = v.Key
		}
		return keys
	}
	for rule, want := range byRule {
		sort.Strings(want)
		got := fetch("rule=" + rule)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("rule=%s: indexed %v != naive %v", rule, got, want)
		}
	}
	if got := fetch("rule=no-such-rule"); len(got) != 0 {
		t.Fatalf("unknown rule returned %v", got)
	}
	checked := 0
	for id, want := range byNode {
		if checked++; checked > 8 {
			break
		}
		sort.Strings(want)
		got := fetch(fmt.Sprintf("node=%d", id))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("node=%d: indexed %v != naive %v", id, got, want)
		}
	}
	// intersection: rule ∧ node
	v0 := full.Violations[0]
	want := []string{}
	for _, k := range byNode[v0.Match[0]] {
		for _, v := range full.Violations {
			if v.Key == k && v.Rule == v0.Rule {
				want = append(want, k)
			}
		}
	}
	sort.Strings(want)
	got := fetch(fmt.Sprintf("rule=%s&node=%d", v0.Rule, v0.Match[0]))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rule∧node: indexed %v != naive %v", got, want)
	}

	s.Close()
	if err := sess.Recheck(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCloseTearsDownFeed pins the shutdown path with live
// subscribers: Close must end active SSE handlers and close API
// subscriptions cleanly, returning the process to its goroutine baseline.
func TestServerCloseTearsDownFeed(t *testing.T) {
	before := runtime.NumGoroutine()

	sess, names := tinyWorld(t)
	s := serve.New(sess, serve.Options{Names: names})
	srv := httptest.NewServer(s.Handler())

	apiSub, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	// two SSE clients held open across a commit
	type stream struct {
		resp *http.Response
		got  chan error
	}
	var streams []stream
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest("GET", srv.URL+"/feed?since=0", nil)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		st := stream{resp: resp, got: make(chan error, 1)}
		go func() {
			rd := bufio.NewReader(resp.Body)
			sawCommit := false
			for {
				line, err := rd.ReadString('\n')
				if err != nil { // EOF once Server.Close ends the handler
					if !sawCommit {
						st.got <- fmt.Errorf("stream ended before any commit event: %v", err)
					} else {
						st.got <- nil
					}
					return
				}
				if strings.HasPrefix(line, "event: commit") {
					sawCommit = true
				}
			}
		}()
		streams = append(streams, st)
	}

	if code := postJSON(t, srv, "/update?sync=1", map[string]any{"ops": addPerson(1)}, nil); code != 200 {
		t.Fatalf("update: code %d", code)
	}

	s.Close() // must unblock both SSE handlers and close apiSub
	for i, st := range streams {
		select {
		case err := <-st.got:
			if err != nil {
				t.Fatalf("stream %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("SSE handler %d survived Server.Close", i)
		}
		st.resp.Body.Close()
	}
	if ev, ok := <-apiSub.C; !ok || ev.Epoch != 1 {
		t.Fatalf("api sub: ok=%v ev=%+v, want the buffered epoch-1 event", ok, ev)
	}
	if _, ok := <-apiSub.C; ok {
		t.Fatal("api sub channel still open after Close")
	}
	if apiSub.Err() != nil {
		t.Fatalf("clean shutdown reported %v", apiSub.Err())
	}

	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked past Close: %d alive, baseline %d\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestUpdateBodyLimits pins the ingestion hygiene fixes: oversized bodies
// are 413 (bounded before buffering), trailing garbage after the JSON
// object is 400 (a corrupted payload must not half-apply).
func TestUpdateBodyLimits(t *testing.T) {
	sess, names := tinyWorld(t)
	s := serve.New(sess, serve.Options{Names: names, MaxBody: 256})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) (int, string) {
		resp, err := srv.Client().Post(srv.URL+"/update", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	big := fmt.Sprintf(`{"ops":[{"op":"node","id":"big","label":%q}]}`,
		strings.Repeat("x", 1024))
	if code, body := post(big); code != 413 || !strings.Contains(body, "256") {
		t.Fatalf("oversized body: code %d, %s", code, body)
	}
	if code, body := post(`{"ops":[]}garbage`); code != 400 || !strings.Contains(body, "trailing") {
		t.Fatalf("trailing garbage: code %d, %s", code, body)
	}
	if code, _ := post(`{"ops":[]}{"ops":[]}`); code != 400 {
		t.Fatalf("concatenated objects: code %d", code)
	}
	if code, _ := post("{\"ops\":[]}\n  "); code != 202 { // whitespace is fine
		t.Fatalf("trailing whitespace: code %d", code)
	}
	// the rejected requests must not have half-applied anything
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DroppedOps; got != 0 {
		t.Fatalf("rejected bodies reached the writer: %d dropped ops", got)
	}
	if s.Snapshot().Len() != 1 {
		t.Fatalf("store changed: %d violations", s.Snapshot().Len())
	}
}

// TestSyncAckEpochExact pins the sync-ack fix: an Ack reports the epoch of
// the commit that contained its batch — recorded by the writer at commit
// time — and never drifts to a later epoch the writer published while the
// waiter was waking up.
func TestSyncAckEpochExact(t *testing.T) {
	sess, names := tinyWorld(t)
	s := serve.New(sess, serve.Options{Names: names})
	defer s.Close()

	ack1, err := s.Enqueue(addPerson(1))
	if err != nil {
		t.Fatal(err)
	}
	<-ack1.Done()
	if ack1.Epoch() != 1 {
		t.Fatalf("ack1.Epoch() = %d, want 1", ack1.Epoch())
	}
	ack2, err := s.Enqueue(addPerson(2))
	if err != nil {
		t.Fatal(err)
	}
	<-ack2.Done()
	if ack2.Epoch() != 2 {
		t.Fatalf("ack2.Epoch() = %d, want 2", ack2.Epoch())
	}
	// the old bug: the handler re-read the *current* snapshot after waking,
	// reporting epoch 2 for batch 1 if it lost the race. The Ack is immutable
	// after commit, so batch 1's epoch must still read 1.
	if ack1.Epoch() != 1 {
		t.Fatalf("ack1.Epoch() drifted to %d after a later commit", ack1.Epoch())
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var committed struct {
		Epoch int `json:"epoch"`
	}
	if code := postJSON(t, srv, "/update?sync=1", map[string]any{"ops": addPerson(3)}, &committed); code != 200 {
		t.Fatalf("sync update: code %d", code)
	}
	if committed.Epoch != 3 {
		t.Fatalf("sync ack epoch = %d, want 3", committed.Epoch)
	}
}

// TestMalformedParamsRejected pins the strict-parameter fix: a malformed
// numeric param is a 400 with an error body, never silently coerced to a
// default, and removed offset pagination is an explicit 400.
func TestMalformedParamsRejected(t *testing.T) {
	sess, names := tinyWorld(t)
	s := serve.New(sess, serve.Options{Names: names})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, path := range []string{
		"/violations?limit=abc",
		"/violations?limit=12.5",
		"/violations?limit=",
		"/violations?node=xyz",
		"/violations?offset=5",
		"/violations?offset=0", // removed entirely, not just nonzero values
		"/violations?after=",
		"/feed?since=abc",
		"/feed?poll=1&since=12x",
	} {
		var body struct {
			Error string `json:"error"`
		}
		if code := getJSON(t, srv, path, &body); code != 400 {
			t.Errorf("%s: code %d, want 400", path, code)
		} else if body.Error == "" {
			t.Errorf("%s: 400 without an error body", path)
		}
	}
}

// BenchmarkViolationQuery measures one indexed ?rule= / ?node= page query
// against store size: keyset + posting-list seeks keep per-query cost flat
// while the full-scan baseline grows with the store.
func BenchmarkViolationQuery(b *testing.B) {
	b.ReportAllocs()
	for _, size := range []int{400, 1600} {
		profile := gen.YAGO2
		profile.ErrorRate = 0.3
		ds := gen.Generate(profile, size, 7)
		rules := gen.EffectivenessRules(profile)
		sess := session.New(ds.G, rules, session.Options{})
		s := serve.New(sess, serve.Options{})
		h := s.Handler()

		var full vioPage
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/violations?limit=-1", nil))
		if err := json.NewDecoder(rec.Body).Decode(&full); err != nil || full.Total == 0 {
			b.Fatalf("seed store: %v (total %d)", err, full.Total)
		}
		rule := full.Violations[0].Rule
		node := full.Violations[0].Match[0]

		run := func(name, target string) {
			b.Run(fmt.Sprintf("%s/store=%d", name, full.Total), func(b *testing.B) {
				b.ReportAllocs()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rec := httptest.NewRecorder()
					rec.Body = &bytes.Buffer{}
					h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
					if rec.Code != 200 {
						b.Fatalf("%s: code %d", target, rec.Code)
					}
				}
			})
		}
		run("rule", fmt.Sprintf("/violations?rule=%s&limit=10", rule))
		run("node", fmt.Sprintf("/violations?node=%d&limit=10", node))
		run("scan", "/violations?limit=-1") // contrast: O(|store|) encode
		s.Close()
	}
}
