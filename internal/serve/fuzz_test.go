package serve_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ngd/internal/paperdata"
	"ngd/internal/ref"
	"ngd/internal/repair"
	"ngd/internal/serve"
	"ngd/internal/session"
)

// fuzzMaxBody is the body cap of FuzzUpdateBody's server: small, so the
// fuzzer reaches the 413 path with short inputs.
const fuzzMaxBody = 1024

// FuzzUpdateBody posts arbitrary bytes to POST /update?sync=1 on a server
// over the paper's merged example graph and Σ (node ids 0–2 G1, 3–6 G2, 7–14
// G3, 15–23 G4; see paperdata.MergedGraph). The handler must never panic,
// must answer 200, 400 or 413, and after every accepted body the published
// store must equal Vio(Σ, G) from the reference detector on the server's
// graph.
func FuzzUpdateBody(f *testing.F) {
	for _, seed := range []string{
		// φ1's destruction date goes, then an empty batch
		`{"ops":[{"op":"delete","src":"0","dst":"2","label":"wasDestroyedOnDate"}]}`,
		`{"ops":[]}`,
		// a new area arrives with a star that breaks φ2
		`{"ops":[{"op":"node","id":"tw","label":"area"},{"op":"node","id":"tw-f","label":"integer","attrs":{"val":1}},` +
			`{"op":"node","id":"tw-m","label":"integer","attrs":{"val":1}},{"op":"node","id":"tw-t","label":"integer","attrs":{"val":3}},` +
			`{"op":"insert","src":"tw","dst":"tw-f","label":"femalePopulation"},{"op":"insert","src":"tw","dst":"tw-m","label":"malePopulation"},` +
			`{"op":"insert","src":"tw","dst":"tw-t","label":"populationTotal"}]}`,
		// setattr: φ2 repaired by value (600 + 722 = 1322), φ4's fake account
		// demoted; a fractional, a string and an unsupported value refuse
		// the request
		`{"ops":[{"op":"setattr","id":"6","attrs":{"val":1322}},{"op":"setattr","id":"21","attrs":{"val":false}}]}`,
		`{"ops":[{"op":"setattr","id":"11","attrs":{"val":100000.5,"name":"x"}},{"op":"setattr","id":"12","attrs":{"val":[1]}}]}`,
		// numbers are taken as the exact int64 they denote, or refused
		`{"ops":[{"op":"setattr","id":"6","attrs":{"val":9007199254740993.0}},{"op":"setattr","id":"5","attrs":{"val":1e3}}]}`,
		`{"ops":[{"op":"setattr","id":"6","attrs":{"val":2.5}}]}`,
		`{"ops":[{"op":"setattr","id":"6","attrs":{"val":1e30}}]}`,
		`{"ops":[{"op":"node","id":"n","label":"integer","attrs":{"val":1e999999999}}]}`,
		// an integer float64 would round (2⁶² − 1), and one past int64
		`{"ops":[{"op":"setattr","id":"6","attrs":{"val":4611686018427387903}},{"op":"setattr","id":"5","attrs":{"val":9223372036854775808}}]}`,
		// unknown ids, an unseen label, an unknown op, a numeric node id
		`{"ops":[{"op":"insert","src":"nobody","dst":"3","label":"femalePopulation"},{"op":"delete","src":"99","dst":"0","label":"unseen"},` +
			`{"op":"setattr","id":"-1","attrs":{"val":1}},{"op":"bogus"},{"op":"node","id":"7","label":"place"}]}`,
		// trailing garbage, concatenated objects, not JSON at all
		`{"ops":[]}garbage`,
		`{"ops":[]}{"ops":[]}`,
		`ops`,
		// oversized
		`{"ops":[{"op":"node","id":"big","label":"` + strings.Repeat("x", fuzzMaxBody) + `"}]}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		g := paperdata.MergedGraph()
		rules := paperdata.AllRules()
		s := serve.New(session.New(g, rules, session.Options{}), serve.Options{MaxBody: fuzzMaxBody})
		defer s.Close()

		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update?sync=1", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		// the sync ack returned after the commit published: the writer is
		// idle, and the graph it owns can be read here
		if got, want := ref.Keys(s.Snapshot().Violations()), ref.Keys(ref.Detect(g, rules)); got != want {
			t.Fatalf("after %q: store != Vio(Σ,G)\nstore:\n%s\nreference:\n%s", body, got, want)
		}
	})
}

// FuzzRepairBody posts arbitrary bytes to POST /repair/preview and then to
// POST /repair/apply on a server over the paper's merged example graph and
// Σ. Neither handler may panic or answer anything but 200, 400, 404, 409 or
// 422; a preview must leave the epoch where it was; and after every applied
// fix the published store must equal Vio(Σ, G) from the reference detector
// on the server's graph.
func FuzzRepairBody(f *testing.F) {
	// seeds: every stored violation's key, alone and with each fix id its
	// preview offers, plus the error paths
	s := serve.New(session.New(paperdata.MergedGraph(), paperdata.AllRules(), session.Options{}), serve.Options{})
	for _, v := range s.Snapshot().Violations() {
		key := v.Key()
		f.Add([]byte(fmt.Sprintf(`{"key":%q}`, key)))
		res, err := s.PreviewRepair(key, repair.Options{})
		if err != nil {
			f.Fatal(err)
		}
		for _, fix := range res.Fixes {
			f.Add([]byte(fmt.Sprintf(`{"key":%q,"fix":%q,"max_fixes":2}`, key, fix.ID)))
		}
	}
	s.Close()
	for _, seed := range []string{
		`{"key":"phi1:0:1:2","fix":"bogus"}`,
		`{"key":"nope:0"}`,
		`{"key":""}`,
		`{"max_fixes":-1,"key":"phi2:3:4:5:6"}`,
		`{"key":"phi2:3:4:5:6"}{"key":"phi2:3:4:5:6"}`,
		`{"key":7}`,
		`key`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		g := paperdata.MergedGraph()
		rules := paperdata.AllRules()
		s := serve.New(session.New(g, rules, session.Options{}), serve.Options{MaxBody: fuzzMaxBody})
		defer s.Close()

		for _, path := range []string{"/repair/preview", "/repair/apply"} {
			epoch := s.Snapshot().Epoch
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusUnprocessableEntity:
			default:
				t.Fatalf("%s: status %d for %q: %s", path, rec.Code, body, rec.Body)
			}
			if path == "/repair/preview" || rec.Code != http.StatusOK {
				if got := s.Snapshot().Epoch; got != epoch {
					t.Fatalf("%s answered %d for %q but moved the epoch %d → %d", path, rec.Code, body, epoch, got)
				}
				continue
			}
			// the apply committed and published before answering: the
			// writer is idle, and the graph it owns can be read here
			if got, want := ref.Keys(s.Snapshot().Violations()), ref.Keys(ref.Detect(g, rules)); got != want {
				t.Fatalf("after applying %q: store != Vio(Σ,G)\nstore:\n%s\nreference:\n%s", body, got, want)
			}
		}
	})
}
