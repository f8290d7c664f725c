package serve_test

import (
	"fmt"
	"net/http/httptest"
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
