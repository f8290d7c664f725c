package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/pattern"
	"ngd/internal/serve"
	"ngd/internal/session"
)

// capRule: an item's val must stay ≤ 10.
func capRule(name string) *core.NGD {
	q := pattern.New()
	q.AddNode("x", "item")
	return core.MustNew(name, q, nil, []core.Literal{
		core.Lit(expr.V("x", "val"), expr.Le, expr.C(10)),
	})
}

// itemWorld: n items with val 1, except the listed ones with val 20.
func itemWorld(n int, rules *core.Set, over ...graph.NodeID) *session.Session {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.SetAttr(g.AddNode("item"), "val", graph.Int(1))
	}
	for _, v := range over {
		g.SetAttr(v, "val", graph.Int(20))
	}
	return session.New(g, rules, session.Options{})
}

func queryKeys(t *testing.T, srv *httptest.Server, q string) []string {
	t.Helper()
	var page vioPage
	if code := getJSON(t, srv, "/violations?"+q, &page); code != 200 {
		t.Fatalf("%s: code %d", q, code)
	}
	if page.Total != len(page.Violations) {
		t.Fatalf("%s: total %d, %d rows", q, page.Total, len(page.Violations))
	}
	keys := []string{}
	for _, v := range page.Violations {
		keys = append(keys, v.Key)
	}
	return keys
}

// TestApplyEmptiedShardThenAdd pins the copy-on-write edge case where one
// commit clears the only violation posted in a node shard and posts a new
// one under another id of the same shard: the new epoch must answer from
// the edited shard for both ids. The loop defeats Go's random map iteration
// order — the failure this was written for only fired when the emptying id
// happened to be processed first.
func TestApplyEmptiedShardThenAdd(t *testing.T) {
	for i := 0; i < 16; i++ {
		s := serve.New(itemWorld(8, core.NewSet(capRule("r")), 5), serve.Options{})
		srv := httptest.NewServer(s.Handler())
		before := s.Snapshot()
		ack, err := s.Enqueue([]serve.UpdateOp{
			{Op: "setattr", ID: "5", Attrs: map[string]any{"val": 1}},
			{Op: "setattr", ID: "7", Attrs: map[string]any{"val": 20}},
		})
		if err != nil {
			t.Fatal(err)
		}
		<-ack.Done()
		for q, want := range map[string]string{
			"node=7": "[r:7]", "node=5": "[]", "rule=r": "[r:7]", "node=7&rule=r": "[r:7]", "": "[r:7]",
		} {
			if got := fmt.Sprint(queryKeys(t, srv, q)); got != want {
				t.Fatalf("?%s = %s, want %s", q, got, want)
			}
		}
		// the epoch published before the commit is frozen
		if got := before.Node(5); len(got) != 1 || got[0].Key() != "r:5" || len(before.Node(7)) != 0 {
			t.Fatalf("epoch 0 postings changed under the commit: node 5 = %v", got)
		}
		srv.Close()
		s.Close()
	}
}

// TestRuleQueryMatchesWholeName: ?rule= is a prefix range "<name>:" of the
// key-sorted run, so a rule whose name is a prefix of another's must not
// pick up the other's violations, and a value that is no rule name — a bare
// prefix, or a name with part of a key appended — selects nothing.
func TestRuleQueryMatchesWholeName(t *testing.T) {
	rules := core.NewSet(capRule("r1"), capRule("r10"), capRule("r1-b"))
	s := serve.New(itemWorld(12, rules, 1, 10), serve.Options{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for q, want := range map[string]string{
		"rule=r1":         "[r1:1 r1:10]",
		"rule=r10":        "[r10:1 r10:10]",
		"rule=r1-b":       "[r1-b:1 r1-b:10]",
		"rule=r":          "[]",
		"rule=r1:1":       "[]",
		"rule=r1&node=10": "[r1:10]",
		"node=1":          "[r1-b:1 r10:1 r1:1]",
	} {
		if got := fmt.Sprint(queryKeys(t, srv, q)); got != want {
			t.Errorf("?%s = %s, want %s", q, got, want)
		}
	}
}

// TestSnapshotReadAllocBudget pins the per-request core of GET /violations
// — the snapshot handle, the violation listing and one point read off the
// same epoch — under the ceiling the CI allocation probe used to enforce
// (< 8 allocs per read, the figure before the allocation-discipline pass;
// 1 measured, the key string).
func TestSnapshotReadAllocBudget(t *testing.T) {
	srv := serve.New(itemWorld(64, core.NewSet(capRule("cap")), 3, 17, 40), serve.Options{})
	defer srv.Close()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sn := srv.Snapshot()
		vios := sn.Violations()
		if _, ok := sn.Get(vios[i%len(vios)].Key()); !ok {
			t.Fatal("snapshot lost a violation it lists")
		}
		i++
	})
	if allocs >= 8 {
		t.Fatalf("snapshot read allocated %.0f objects, budget < 8", allocs)
	}
}

// TestCursorWalkMatchesFullListing: at one epoch, walking ?after= with page
// sizes 1, 7 and 200 concatenates to exactly the limit=-1 response — rows
// byte for byte, "total" on every page, "next" the last row's key while rows
// remain — over the whole store (six chunks, so pages cross chunk
// boundaries), over ?rule= with names that are prefixes of one another, and
// over ?node= (the hub's posting is longer than a chunk).
func TestCursorWalkMatchesFullListing(t *testing.T) {
	const n = 700
	s := hubWorld(n, true)
	defer s.Close()
	if got := s.Snapshot().Len(); got != 4*n-1 {
		t.Fatalf("store holds %d violations, want %d", got, 4*n-1)
	}

	for scope, total := range map[string]int{
		"": 4*n - 1, "rule=r1": n, "rule=r10": n, "rule=r1-b": n, "rule=r1-hub": n - 1, "rule=r": 0,
		"node=0": n + 2, "node=0&rule=r1-hub": n - 1, "node=5": 4, "node=5&rule=r1": 1,
	} {
		cursorWalk(t, s.Handler(), scope, total)
	}
}

// TestCursorWalkOverCommittedPosting is TestCursorWalkMatchesFullListing's
// ?node= walk over a hub posting built by commits rather than at boot: its
// edges arrive in batches out of key order, then a stretch from the middle
// of the key order is deleted. The walk concatenates to the limit=-1
// listing, and that listing is the sorted reference.
func TestCursorWalkOverCommittedPosting(t *testing.T) {
	const n = 700
	s := hubWorld(n, false)
	defer s.Close()
	commit := func(op string, dsts []int) {
		t.Helper()
		ops := make([]serve.UpdateOp, len(dsts))
		for i, d := range dsts {
			ops[i] = serve.UpdateOp{Op: op, Src: "0", Dst: strconv.Itoa(d), Label: "link"}
		}
		ack, err := s.Enqueue(ops)
		if err != nil {
			t.Fatal(err)
		}
		<-ack.Done()
	}

	// numeric order is not key order ("r1-hub:0:10" < "r1-hub:0:9"), and
	// each batch is shuffled on top of that
	rng := rand.New(rand.NewSource(36))
	dsts := rng.Perm(n - 1)
	for i := range dsts {
		dsts[i]++
	}
	for b := 0; b < len(dsts); b += 97 {
		commit("insert", dsts[b:min(b+97, len(dsts))])
	}
	keyed := func(d int) string { return "r1-hub:0:" + strconv.Itoa(d) }
	byKey := make([]int, n-1)
	for i := range byKey {
		byKey[i] = i + 1
	}
	slices.SortFunc(byKey, func(a, b int) int { return strings.Compare(keyed(a), keyed(b)) })
	middle := byKey[(n-1)/3 : 2*(n-1)/3]
	kept := append(slices.Clone(byKey[:(n-1)/3]), byKey[2*(n-1)/3:]...)
	commit("delete", slices.Clone(middle))

	wantHub := make([]string, len(kept))
	for i, d := range kept {
		wantHub[i] = keyed(d)
	}
	wantAll := append([]string{"r1-b:0", "r10:0", "r1:0"}, wantHub...)
	sort.Strings(wantAll)
	for scope, want := range map[string][]string{"node=0": wantAll, "node=0&rule=r1-hub": wantHub} {
		var got []string
		for _, row := range cursorWalk(t, s.Handler(), scope, len(want)) {
			var v struct{ Key string }
			if err := json.Unmarshal(row, &v); err != nil {
				t.Fatal(err)
			}
			got = append(got, v.Key)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("?%s lists %d keys, want the %d of the reference:\n%v\nwant\n%v", scope, len(got), len(want), got, want)
		}
	}
}

// hubWorld serves n items with val 20 under three cap rules and r1-hub
// (x -link-> y with x.val < y.val), every item violating each cap rule;
// linked adds the hub edges 0 → 1 … n−1 before the boot, each an r1-hub
// violation.
func hubWorld(n int, linked bool) *serve.Server {
	q := pattern.New()
	x, y := q.AddNode("x", "item"), q.AddNode("y", "item")
	q.AddEdge(x, y, "link")
	hub := core.MustNew("r1-hub", q, nil, []core.Literal{
		core.Lit(expr.V("x", "val"), expr.Lt, expr.V("y", "val")),
	})
	g := graph.New()
	for i := 0; i < n; i++ {
		g.SetAttr(g.AddNode("item"), "val", graph.Int(20))
	}
	for i := 1; linked && i < n; i++ {
		g.AddEdge(0, graph.NodeID(i), "link")
	}
	rules := core.NewSet(capRule("r1"), capRule("r10"), capRule("r1-b"), hub)
	return serve.New(session.New(g, rules, session.Options{}), serve.Options{})
}

// cursorWalk walks ?<scope> with ?after= at page sizes 1, 7 and 200, checks
// that each walk concatenates to exactly the limit=-1 response — rows byte
// for byte, "total" on every page, "next" the last row's key while rows
// remain — and returns the limit=-1 rows.
func cursorWalk(t *testing.T, h http.Handler, scope string, total int) []json.RawMessage {
	t.Helper()
	type page struct {
		Total      int               `json:"total"`
		Returned   int               `json:"returned"`
		Next       *string           `json:"next"`
		Violations []json.RawMessage `json:"violations"`
	}
	get := func(query string) page {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/violations?"+query, nil))
		var p page
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil || rec.Code != 200 {
			t.Fatalf("?%s: code %d, %v", query, rec.Code, err)
		}
		if p.Returned != len(p.Violations) {
			t.Fatalf("?%s: returned %d beside %d rows", query, p.Returned, len(p.Violations))
		}
		return p
	}

	full := get("limit=-1&" + scope)
	if full.Total != total || len(full.Violations) != total || full.Next != nil {
		t.Fatalf("?%s: total %d, %d rows, next %v; want %d rows", scope, full.Total, len(full.Violations), full.Next, total)
	}
	for _, limit := range []int{1, 7, 200} {
		var walked []json.RawMessage
		for after := ""; ; {
			query := fmt.Sprintf("limit=%d&%s", limit, scope)
			if after != "" {
				query += "&after=" + url.QueryEscape(after)
			}
			p := get(query)
			if p.Total != total || len(p.Violations) > limit {
				t.Fatalf("?%s: total %d, %d rows", query, p.Total, len(p.Violations))
			}
			walked = append(walked, p.Violations...)
			if more := len(walked) < total; more != (p.Next != nil) {
				t.Fatalf("?%s: %d of %d rows walked, next = %v", query, len(walked), total, p.Next)
			}
			if p.Next == nil {
				break
			}
			var last struct{ Key string }
			if err := json.Unmarshal(p.Violations[len(p.Violations)-1], &last); err != nil || last.Key != *p.Next {
				t.Fatalf("?%s: next %q after a page ending at %q (%v)", query, *p.Next, last.Key, err)
			}
			after = *p.Next
		}
		if len(walked) != total {
			t.Fatalf("?%s by %d: walked %d rows of %d", scope, limit, len(walked), total)
		}
		for i, row := range walked {
			if !bytes.Equal(row, full.Violations[i]) {
				t.Fatalf("?%s by %d: row %d is %s, the full listing has %s", scope, limit, i, row, full.Violations[i])
			}
		}
	}
	return full.Violations
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// discardWriter is a ResponseWriter that keeps nothing of the body.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestViolationPagesAllocateAConstant: GET /violations streams its rows
// from the snapshot's records through a pooled buffer, so a page costs the
// same few allocations (those of parsing the query) whatever its length and
// the store's size: ?limit=-1 costs what ?limit=50 does. When pages were
// marshaled, a 50-row ?node= page cost 32 objects and 2.3 KB.
func TestViolationPagesAllocateAConstant(t *testing.T) {
	queries := []string{"limit=50", "limit=-1", "limit=50&node=0", "limit=50&after=r1-b:3"}
	objects := map[string]float64{}
	for _, n := range []int{100, 700} {
		s := hubWorld(n, true)
		h := s.Handler()
		w := &discardWriter{h: http.Header{}}
		for _, q := range queries {
			r := httptest.NewRequest("GET", "/violations?"+q, nil)
			h.ServeHTTP(w, r) // warm the pool
			allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, r) })
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 200 {
				h.ServeHTTP(w, r)
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / 200
			t.Logf("store %d, ?%s: %.0f objects, %.0f B", 4*n-1, q, allocs, bytes)
			if was, ok := objects[q]; ok && allocs != was {
				t.Errorf("?%s: %.0f objects on a store of %d, %.0f on the smaller one", q, allocs, 4*n-1, was)
			}
			objects[q] = allocs
			if allocs > 8 || bytes > 1024 && !raceEnabled {
				t.Errorf("store %d, ?%s: %.0f objects, %.0f B; budget 8 and 1,024", 4*n-1, q, allocs, bytes)
			}
		}
		s.Close()
	}
	if objects["limit=-1"] != objects["limit=50"] {
		t.Errorf("?limit=-1 costs %.0f objects, ?limit=50 %.0f", objects["limit=-1"], objects["limit=50"])
	}
}
