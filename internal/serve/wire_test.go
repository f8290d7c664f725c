package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/pattern"
	"ngd/internal/session"
)

// The daemon's bodies used to be built as the values below and handed to
// encoding/json. They are the oracle the appended bodies are held to, byte
// for byte.

// vioJSON is the wire form of one violation.
type vioJSON struct {
	Key   string  `json:"key"`
	Rule  string  `json:"rule"`
	Match []int32 `json:"match"`
	Text  string  `json:"text"`
}

// toVioJSON renders v, whose canonical key the caller already holds.
func toVioJSON(key string, v core.Violation) vioJSON {
	m := make([]int32, len(v.Match))
	for i, id := range v.Match {
		m[i] = int32(id)
	}
	return vioJSON{Key: key, Rule: v.Rule.Name, Match: m, Text: v.String()}
}

// feedWire is the wire form of one feed event.
type feedWire struct {
	Epoch   int       `json:"epoch"`
	Added   []vioJSON `json:"added,omitempty"`
	Removed []string  `json:"removed,omitempty"`
}

// encoded is v as json.Encoder writes it: HTML-escaped, newline-terminated.
func encoded(v any) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(v)
	return b.Bytes()
}

// pageBody is the GET /violations body for the first limit entries of rest,
// a stretch of vios, as a map of values.
func pageBody(epoch int, vios, rest session.Range, limit int) []byte {
	page := slices.Collect(rest.Page(limit).Records())
	out := make([]vioJSON, len(page))
	for i, k := range page {
		out[i] = toVioJSON(k.Key, k.Violation)
	}
	resp := map[string]any{"epoch": epoch, "total": vios.Len(), "returned": len(out), "violations": out}
	if len(out) > 0 && len(out) < rest.Len() {
		resp["next"] = page[len(page)-1].Key
	}
	return encoded(resp)
}

// linkWorld serves the nodes 0 → 1 → 2 under one rule, x -e-> y with a
// consequence that never holds, named and with variables as given: two
// violations, name:0:1 and name:1:2.
func linkWorld(name, x, y string) *Server {
	q := pattern.New()
	q.AddEdge(q.AddNode(x, "n"), q.AddNode(y, "n"), "e")
	r := core.MustNew(name, q, nil, []core.Literal{core.Lit(expr.C(1), expr.Eq, expr.C(2))})
	g := graph.New()
	for range 3 {
		g.AddNode("n")
	}
	g.AddEdge(0, 1, "e")
	g.AddEdge(1, 2, "e")
	return New(session.New(g, core.NewSet(r), session.Options{}), Options{})
}

// FuzzViolationBody holds every body that carries a violation to
// encoding/json's rendering of the values the daemon used to marshal:
// appendVio on arbitrary rule names, variable names, keys and node ids; a
// feed event's JSON; and, where the names make a valid rule (no ':' in
// it, two distinct non-empty variables), the GET /violations pages and the
// GET /violations/{key} body of a server holding two of its violations.
func FuzzViolationBody(f *testing.F) {
	for _, s := range [][4]string{
		{"r", "x", "y", "r:0:1"},
		{"<a&b>", `q"`, `\`, "k\n\r\t\b\f"},
		{"\x00\x1f\x7f", "\xff", "\xe2\x80", "\xe2\x80\xa8\xe2\x80\xa9"},
		{"\u00fcn\u00ef", "\u2028", "\ufffd", "\xed\xa0\x80"},
		{"", "", "", ""},
	} {
		f.Add(s[0], s[1], s[2], s[3], int32(0), int32(-1), 7)
	}
	f.Add("rule", "a", "b", "rule:2147483647", int32(2147483647), int32(-2147483648), -1)

	f.Fuzz(func(t *testing.T, rule, x, y, key string, a, b int32, epoch int) {
		ngd := &core.NGD{Name: rule, Pattern: &pattern.Pattern{Nodes: []pattern.Node{{Var: x}, {Var: y}}}}
		keys := []string{key, rule, x}
		var added []*core.Keyed
		for n := range 3 {
			v := core.Violation{Rule: ngd, Match: core.Match{graph.NodeID(a), graph.NodeID(b)}[:n]}
			k := &core.Keyed{Key: key, Violation: v}
			if got, want := appendVio(nil, k), encoded(toVioJSON(key, v)); !bytes.Equal(append(got, '\n'), want) {
				t.Fatalf("appendVio:\ngot  %s\nwant %s", got, want)
			}
			added = append(added, &core.Keyed{Key: keys[n], Violation: v})
		}
		removed := []*core.Keyed{{Key: y}, {Key: key}}

		for _, ev := range []*session.CommitEvent{
			{Epoch: epoch, Added: added, Removed: removed},
			{Epoch: epoch, Added: added[:1]},
			{Epoch: epoch, Removed: removed[:1]},
			{Epoch: epoch},
		} {
			w := feedWire{Epoch: ev.Epoch}
			for _, k := range ev.Removed {
				w.Removed = append(w.Removed, k.Key)
			}
			for _, k := range ev.Added {
				w.Added = append(w.Added, toVioJSON(k.Key, k.Violation))
			}
			want, _ := json.Marshal(w)
			fe := &FeedEvent{Epoch: ev.Epoch, Commit: ev, rendered: new(atomic.Int64)}
			if got := fe.JSON(); !bytes.Equal(got, want) {
				t.Fatalf("feed event:\ngot  %s\nwant %s", got, want)
			}
		}

		if strings.Contains(rule, ":") || x == "" || y == "" || x == y {
			return // core.New refuses the rule
		}
		s := linkWorld(rule, x, y)
		defer s.Close()
		sn := s.Snapshot()
		all := sn.All()
		first := slices.Collect(all.Records())[0]
		h := s.Handler()
		for _, c := range []struct {
			query      string
			vios, rest session.Range
			limit      int
		}{
			{"limit=-1", all, all, -1},
			{"limit=1", all, all, 1},
			{"", all, all, 100},
			{"rule=" + url.QueryEscape(rule), all.Rule(rule), all.Rule(rule), 100},
			{"node=1&limit=-1", sn.Posted(1), sn.Posted(1), -1},
			{"after=" + url.QueryEscape(first.Key), all, all.After(first.Key), 100},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/violations?"+c.query, nil))
			if want := pageBody(sn.Epoch, c.vios, c.rest, c.limit); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("?%s: code %d\ngot  %s\nwant %s", c.query, rec.Code, rec.Body.Bytes(), want)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/violations/"+url.PathEscape(first.Key), nil))
		want := encoded(map[string]any{"epoch": sn.Epoch, "violation": toVioJSON(first.Key, first.Violation)})
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("/violations/{key}: code %d\ngot  %s\nwant %s", rec.Code, rec.Body.Bytes(), want)
		}
	})
}
