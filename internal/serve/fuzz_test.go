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
	// the seeds FuzzUpdateDecoder starts from too, and an oversized body
	for _, seed := range append(serve.UpdateBodySeeds,
		`{"ops":[{"op":"node","id":"big","label":"`+strings.Repeat("x", fuzzMaxBody)+`"}]}`) {
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
