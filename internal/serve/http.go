package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/repair"
	"ngd/internal/session"
)

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

// updateRequest is the body of POST /update.
type updateRequest struct {
	Ops []UpdateOp `json:"ops"`
}

// Handler returns the HTTP API:
//
//	GET  /healthz              liveness + current epoch
//	GET  /violations           keyset-paginated store queries
//	                           (query: limit, after, rule, node)
//	GET  /violations/{key}     one violation by canonical key
//	GET  /feed                 violation change feed: SSE by default,
//	                           long-poll with ?poll=1; cursor: since=epoch
//	GET  /stats                server + last-batch statistics; ?mem=1
//	                           adds heap and GC counters
//	POST /update               enqueue update ops ({"ops":[...]}; ?sync=1
//	                           waits for the batch to commit)
//	POST /repair/preview       enumerate ranked fixes for one violation
//	                           ({"key":..., "max_fixes"?}; never mutates)
//	POST /repair/apply         apply a fix ({"key":..., "fix"?: id}; the
//	                           top-ranked fix when "fix" is omitted),
//	                           committed through the ordinary ingest path
//
// Every read is served from the atomically published snapshot: a reader
// holds one consistent epoch for the whole request and is never blocked by
// a commit in progress.
//
// Error contract: malformed numeric query params and unparseable or
// trailing-garbage bodies get 400; an oversized /update body gets 413; a
// /feed cursor older than the retained backlog gets 410 with the oldest
// resumable epoch. The repair endpoints add: 409 for a violation key the
// live store no longer holds (a later commit cleared it — re-list and
// retry), 404 for a fix id the current enumeration lacks, 422 when the
// violation is unrepairable (the body carries the enumerator's reason),
// 503 after Close.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "epoch": s.Snapshot().Epoch})
	})

	mux.HandleFunc("GET /violations", s.handleViolations)
	mux.HandleFunc("GET /feed", s.handleFeed)

	mux.HandleFunc("GET /violations/{key}", func(w http.ResponseWriter, r *http.Request) {
		sn := s.Snapshot()
		key := r.PathValue("key")
		v, ok := sn.Get(key)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]any{
				"error": "violation not found", "epoch": sn.Epoch,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"epoch": sn.Epoch, "violation": toVioJSON(key, v),
		})
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		if r.URL.Query().Get("mem") == "1" {
			st.Mem = readMemCounters()
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /rules/analysis", func(w http.ResponseWriter, r *http.Request) {
		rep, cached := s.Analysis()
		writeJSON(w, http.StatusOK, map[string]any{
			"epoch":           s.Snapshot().Epoch,
			"cached":          cached,
			"session_dropped": s.sess.DroppedRules(),
			"report":          rep,
		})
	})

	mux.HandleFunc("POST /update", s.handleUpdate)
	mux.HandleFunc("POST /repair/preview", s.handleRepairPreview)
	mux.HandleFunc("POST /repair/apply", s.handleRepairApply)

	return mux
}

// repairRequest is the body of POST /repair/preview and /repair/apply.
type repairRequest struct {
	// Key is the canonical key of the stored violation to repair.
	Key string `json:"key"`
	// MaxFixes caps the preview's ranked list (default 8).
	MaxFixes int `json:"max_fixes,omitempty"`
	// Fix picks a fix id for /repair/apply; empty applies the top-ranked.
	Fix string `json:"fix,omitempty"`
}

// decodeRepair parses a bounded, exactly-one-object repair request body.
func (s *Server) decodeRepair(w http.ResponseWriter, r *http.Request) (repairRequest, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	var req repairRequest
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return req, false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "trailing data after JSON body"})
		return req, false
	}
	if req.Key == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "missing violation key"})
		return req, false
	}
	return req, true
}

// writeRepairErr maps the repair error contract onto status codes.
func writeRepairErr(w http.ResponseWriter, err error) {
	var unrep *UnrepairableError
	switch {
	case isStaleViolation(err):
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": err.Error(),
			"hint":  "the violation was cleared by a later commit; re-list /violations and retry",
		})
	case errors.As(err, &unrep):
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error": err.Error(), "reason": unrep.Reason,
		})
	case errors.Is(err, ErrUnknownFix):
		writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
	}
}

// handleRepairPreview enumerates ranked candidate fixes without mutating
// anything; the response's epoch is the exact epoch the preview ran at.
func (s *Server) handleRepairPreview(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRepair(w, r)
	if !ok {
		return
	}
	res, err := s.PreviewRepair(req.Key, repair.Options{MaxFixes: req.MaxFixes})
	if err != nil {
		writeRepairErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch": s.Snapshot().Epoch, "result": res,
	})
}

// handleRepairApply applies the chosen (or top-ranked) fix as an ordinary
// committed batch and reports the landing epoch and the shrunken store.
func (s *Server) handleRepairApply(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRepair(w, r)
	if !ok {
		return
	}
	res, err := s.ApplyRepair(req.Key, req.Fix, repair.Options{MaxFixes: req.MaxFixes})
	if err != nil {
		writeRepairErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"applied":   true,
		"epoch":     res.Epoch,
		"fix":       res.Fix,
		"cleared":   res.Fix.Clears,
		"remaining": res.Remaining,
	})
}

// handleViolations serves keyset-cursor queries over one epoch's store:
//
//	limit=n        page size (default 100; -1 = the rest)
//	after=<key>    resume strictly after this canonical key
//	rule=<name>    only violations of one rule (a stretch of the sorted keys)
//	node=<id>      only violations whose match contains the node (postings)
//
// Every combination is a session.Range: the cursor and the rule are binary
// searches on the keys the snapshot stores, and a page costs O(log total +
// page) whatever the store size — it aliases the snapshot's storage unless
// it crosses a chunk boundary.
//
// Pages are consistent within the request's epoch; because keys are stable
// identities (unlike offsets), a walk that spans commits resumes at the
// correct position in the new epoch — concurrent ΔVio never shifts rows
// under the cursor. The response carries "next" (the cursor for the
// following page) while more rows remain.
func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Has("offset") {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": "offset pagination has been removed: it shifts under concurrent commits; use the keyset cursor ?after=<key> (response field \"next\")",
		})
		return
	}
	limit, err := intParam(q, "limit", 100)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	after := q.Get("after")
	if q.Has("after") && after == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "invalid after: cursor must be a violation key (use the \"next\" field of the previous page)"})
		return
	}

	sn := s.Snapshot() // one load: the whole request reads one epoch

	vios := sn.All()
	if q.Has("node") {
		id, err := intParam(q, "node", 0)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
			return
		}
		if id == int(graph.NodeID(id)) {
			vios = sn.Posted(graph.NodeID(id))
		} else {
			vios = session.Range{} // past int32: no node has this id
		}
	}
	if rule := q.Get("rule"); rule != "" {
		vios = vios.Rule(rule)
	}
	rest := vios.After(after) // no cursor: every key is past ""
	keys, page := rest.Page(limit)

	out := make([]vioJSON, len(page))
	for i, v := range page {
		out[i] = toVioJSON(keys[i], v)
	}
	resp := map[string]any{
		"epoch":      sn.Epoch,
		"total":      vios.Len(),
		"returned":   len(out),
		"violations": out,
	}
	if len(out) > 0 && len(out) < rest.Len() {
		resp["next"] = keys[len(keys)-1]
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFeed serves the violation change feed. Server-sent events by
// default: one "commit" event per effective commit, id: set to the epoch
// so Last-Event-ID/since resume lines up. With ?poll=1 it degrades to
// long-polling for clients that cannot hold an SSE stream: the request
// parks until an event arrives (or PollTimeout passes) and returns the
// batch of events collected, plus next_since to resume from.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since, err := intParam(q, "since", s.Snapshot().Epoch)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	sub, err := s.Subscribe(since)
	if err != nil {
		var aged *CursorAgedError
		switch {
		case errors.As(err, &aged):
			writeJSON(w, http.StatusGone, map[string]any{
				"error":  err.Error(),
				"oldest": aged.Floor,
				"resync": "/violations?limit=-1 (then re-subscribe with since=<that response's epoch>)",
			})
		case errors.Is(err, ErrClosed):
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		}
		return
	}
	defer sub.Close()

	if q.Get("poll") != "" {
		s.servePoll(w, r, sub, since)
		return
	}
	s.serveSSE(w, r, sub)
}

// serveSSE streams feed events until the client hangs up, the server
// closes, or the subscriber is evicted for falling behind.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, sub *FeedSub) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, map[string]any{"error": "streaming unsupported by this connection"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": connected epoch=%d\n\n", s.Snapshot().Epoch)
	fl.Flush()

	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				if sub.Err() != nil { // evicted: tell the client before EOF
					fmt.Fprintf(w, "event: error\ndata: {\"error\":%q}\n\n", sub.Err().Error())
					fl.Flush()
				}
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: commit\ndata: %s\n\n", ev.Epoch, ev.JSON())
			fl.Flush()
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// servePoll is the long-poll fallback: wait (bounded) for the first event,
// then drain whatever else is already buffered into the same response.
func (s *Server) servePoll(w http.ResponseWriter, r *http.Request, sub *FeedSub, since int) {
	var events []json.RawMessage
	next := since
	deadline := time.NewTimer(s.pollTimeout)
	defer deadline.Stop()
	wait := true
	for wait {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				if errors.Is(sub.Err(), ErrSlowConsumer) {
					writeJSON(w, http.StatusGone, map[string]any{"error": sub.Err().Error()})
					return
				}
				wait = false // server closing: return what we have
				continue
			}
			events = append(events, ev.JSON())
			next = ev.Epoch
			// first event in hand: drain the rest without blocking
			for {
				select {
				case more, ok := <-sub.C:
					if !ok {
						break
					}
					events = append(events, more.JSON())
					next = more.Epoch
					continue
				default:
				}
				break
			}
			wait = false
		case <-deadline.C:
			wait = false
		case <-r.Context().Done():
			return
		}
	}
	if events == nil {
		events = []json.RawMessage{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":      s.Snapshot().Epoch,
		"since":      since,
		"events":     events,
		"next_since": next,
	})
}

// handleUpdate ingests update ops. The body is bounded (413 beyond
// Options.MaxBody) and must be exactly one JSON object — trailing garbage
// is rejected, so a concatenated or corrupted payload can never half-apply.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.UseNumber() // attribute integers stay exact past 2⁵³
	var req updateRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
				"error": fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": "trailing data after JSON body",
		})
		return
	}
	ack, err := s.Enqueue(req.Ops)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
		return
	}
	if r.URL.Query().Get("sync") != "" {
		<-ack.Done()
		// ack.Epoch is recorded by the writer at commit time: it is the
		// epoch of the commit that contained this batch, not whatever the
		// writer has published by the time this handler resumes
		resp := map[string]any{
			"committed": true, "ops": len(req.Ops), "epoch": ack.Epoch(),
		}
		// with a durability layer attached, tell the client whether a
		// committed ack is also a persisted one — a latched WAL failure
		// means the batch lives in memory only
		if s.durabilityErr != nil {
			if err := s.durabilityErr(); err != nil {
				resp["durable"] = false
				resp["durability_error"] = err.Error()
			} else {
				resp["durable"] = true
			}
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"queued": true, "ops": len(req.Ops),
	})
}

// intParam parses an integer query param, returning def when absent and an
// error when present but unparseable (including present-but-empty) —
// malformed input is a client error (400), never silently coerced to a
// default.
func intParam(q url.Values, name string, def int) (int, error) {
	if !q.Has(name) {
		return def, nil
	}
	raw := q.Get(name)
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("invalid %s: %q is not an integer", name, raw)
	}
	return n, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
