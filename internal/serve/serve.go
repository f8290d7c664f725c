// Package serve is the concurrency-safe serving layer over a detection
// session: the deployment mode the incremental detectors exist for —
// keeping Vio(Σ, G) live on an evolving graph while it is being queried.
//
// The concurrency model is single-writer / many-readers with snapshot
// isolation:
//
//   - All mutation is serialized through one writer goroutine owning the
//     session. Updates are enqueued asynchronously; whenever the writer
//     commits, it first drains everything already queued and coalesces it
//     into a single batch, so one Normalize pass and one incremental
//     detection serve an entire burst.
//   - Readers never touch the session or the graph. They load the current
//     epoch's immutable session.Snapshot through an atomic pointer —
//     wait-free, never blocked by a commit in progress, and always seeing
//     a consistent (post-commit) violation store.
//
// On top of the Server sits an HTTP API (Handler): violation queries by
// rule and by node with keyset cursors, a violation change feed (SSE and
// long-poll) fed from the per-commit ΔVio⁺/ΔVio⁻, update ingestion, stats
// and health — see cmd/ngdserve.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ngd/internal/analyze"
	"ngd/internal/graph"
	"ngd/internal/plan"
	"ngd/internal/session"
)

// Options configure a Server.
type Options struct {
	// QueueDepth bounds the ingest queue (default 256). Enqueue applies
	// backpressure — blocks — once this many update requests are pending.
	QueueDepth int
	// Names maps external (textual) node ids to NodeIDs, e.g. the mapping
	// returned by dsl.LoadGraph. Update ops may also reference any node by
	// its numeric id; ops introducing new nodes register their ids here.
	// The map is owned by the Server's writer after New.
	Names map[string]graph.NodeID
	// OnNewNode, when set, is called from the writer goroutine immediately
	// after a "node" op registers a new external id, with the id and the
	// NodeID it was bound to. The durability layer (internal/store) uses it
	// to record id bindings in the write-ahead log; the callback must not
	// touch the Server.
	OnNewNode func(id string, v graph.NodeID)
	// AfterCommit, when set, is called from the writer goroutine after each
	// commit with that batch's statistics — after the new snapshot is
	// published but before the batch's waiters are released. cmd/ngdserve
	// drives periodic store checkpoints (and surfaces WAL append errors)
	// through it; the callback must not call Enqueue or Close.
	AfterCommit func(session.BatchStats)
	// DurabilityErr, when set, reports the durability layer's health (nil =
	// healthy; wire it to store.(*Store).Err). It must be safe to call from
	// any goroutine. Stats includes the result, and POST /update?sync=1
	// responses carry a "durable" field, so clients can tell an in-memory
	// ack from a persisted one.
	DurabilityErr func() error
	// MaxBody caps the POST /update request body (default 8 MiB). Oversized
	// bodies are rejected with 413 before they are buffered.
	MaxBody int64
	// FeedBacklog is how many committed change events the feed retains for
	// since= cursor resume (default 64). A cursor older than the retained
	// window gets 410 Gone and must full-resync.
	FeedBacklog int
	// FeedBuffer bounds each feed subscriber's event buffer beyond its
	// initial replay (default 32). A subscriber that falls further behind
	// is disconnected (slow-consumer eviction), never waited on.
	FeedBuffer int
	// PollTimeout is how long a long-poll GET /feed?poll=1 request waits
	// for the first event before returning an empty page (default 25s).
	PollTimeout time.Duration
	// Analysis, when set, is the Σ admission report computed at boot
	// (cmd/ngdserve's -analyze gate over the full, pre-minimization rule
	// set); GET /rules/analysis serves it verbatim. When nil the endpoint
	// computes a report over the session's (minimized) Σ on first request,
	// within analyzeTimeout, and serves that one from then on: a Server's Σ
	// never changes.
	Analysis *analyze.Report
}

// analyzeTimeout is the wall-clock budget of the lazily computed Σ report,
// on top of reason's branch and match caps.
const analyzeTimeout = 10 * time.Second

// UpdateOp is one ingested operation, the wire format of POST /update.
type UpdateOp struct {
	// Op is "insert" or "delete" (edge ops), "node" (a new node arriving
	// with its attribute tuple, before any of its edges), or "setattr"
	// (reassign attributes of an existing node — the repair path's commit
	// shape, routed through session.CommitBatch so detection, WAL, feed and
	// snapshot all observe it as an ordinary batch).
	Op string `json:"op"`
	// Src and Dst reference nodes for edge ops: either an id registered in
	// Options.Names (or by a previous "node" op), or a decimal NodeID.
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`
	// Label is the edge label (insert/delete) or node label (node).
	Label string `json:"label"`
	// ID is the external id a "node" op registers for the new node, or the
	// node a "setattr" op targets (registered name or decimal NodeID).
	ID string `json:"id,omitempty"`
	// Attrs is the attribute tuple of a "node" op, or the reassignments of
	// a "setattr" op. A value is a string, a bool or an integer: an int or
	// int64, or a json.Number that denotes an exact int64 ("1e3" does, "2.5"
	// does not). Enqueue refuses a request holding any other value.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Stats is a point-in-time summary of a Server (GET /stats).
type Stats struct {
	Epoch      int   `json:"epoch"`       // commit epoch of the published snapshot
	StoreSize  int   `json:"store_size"`  // |Vio(Σ, G)| at that epoch
	Nodes      int   `json:"nodes"`       // |V| at that epoch
	Edges      int   `json:"edges"`       // |E| at that epoch
	Commits    int64 `json:"commits"`     // batches committed
	Enqueued   int64 `json:"enqueued"`    // update requests accepted
	Coalesced  int64 `json:"coalesced"`   // requests merged into another request's batch
	DroppedOps int64 `json:"dropped_ops"` // ops skipped (unknown node or op, bad label, duplicate node id)
	Queued     int64 `json:"queued"`      // requests currently waiting for the writer

	// DurabilityError is the durability layer's current failure ("" =
	// healthy or no durability configured; see Options.DurabilityErr).
	DurabilityError string `json:"durability_error,omitempty"`

	// Plan reports the session program's cumulative plan-cache counters:
	// a warm serving process shows hits growing per batch with misses flat
	// (plans compiled once, reused for every commit), and shared_rules
	// says how many of Σ's rules ride a shared matching prefix.
	Plan plan.Counters `json:"plan"`

	// FeedSubs / FeedBacklog / FeedOldest report the change feed: live
	// subscribers, retained backlog events, and the oldest epoch a
	// since= cursor can still resume from (older cursors get 410).
	FeedSubs    int `json:"feed_subs"`
	FeedBacklog int `json:"feed_backlog"`
	FeedOldest  int `json:"feed_oldest"`
	// FeedRendered counts the events rendered to wire JSON since boot: an
	// event is rendered once, by the first subscriber that reads it, and
	// never when nobody does.
	FeedRendered int64 `json:"feed_rendered"`

	// Mem reports process heap and GC counters so allocation-discipline
	// regressions show up in operations dashboards: a healthy steady-state
	// server shows mallocs growing slowly relative to commits and num_gc
	// roughly flat between batches. Reading them (runtime.ReadMemStats)
	// stops the world, so Server.Stats leaves Mem nil and GET /stats fills
	// it only on request (?mem=1).
	Mem *MemCounters `json:"mem,omitempty"`

	// LastBatch reports what the most recent commit did (nil before the
	// first commit).
	LastBatch *session.BatchStats `json:"last_batch,omitempty"`
}

// MemCounters is the /stats memory block, a stable subset of
// runtime.MemStats.
type MemCounters struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`  // live heap
	HeapObjects     uint64 `json:"heap_objects"`      // live objects
	TotalAllocBytes uint64 `json:"total_alloc_bytes"` // cumulative allocated bytes
	Mallocs         uint64 `json:"mallocs"`           // cumulative allocations
	NumGC           uint32 `json:"num_gc"`            // completed GC cycles
	GCPauseTotalNs  uint64 `json:"gc_pause_total_ns"` // cumulative stop-the-world pause
	SysBytes        uint64 `json:"sys_bytes"`         // OS-reserved virtual memory
}

func readMemCounters() *MemCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &MemCounters{
		HeapAllocBytes:  ms.HeapAlloc,
		HeapObjects:     ms.HeapObjects,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		NumGC:           ms.NumGC,
		GCPauseTotalNs:  ms.PauseTotalNs,
		SysBytes:        ms.Sys,
	}
}

// Ack is the handle Enqueue returns for one update request. Done is
// closed once the request's batch has committed; Epoch then reports the
// exact commit epoch that contained it — recorded by the writer at commit
// time, so it never drifts to a later epoch the writer has moved on to.
type Ack struct {
	done  chan struct{}
	epoch int // written by the writer before done is closed
}

// Done is closed once the ops' batch has committed.
func (a *Ack) Done() <-chan struct{} { return a.done }

// Epoch reports the commit epoch that contained the ops. Valid only after
// Done is closed.
func (a *Ack) Epoch() int { return a.epoch }

// ingest is one queued update request, or — when job is set — a closure to
// run on the writer goroutine between commits (repair previews/applies use
// this to serialize with mutation; see runOnWriter).
type ingest struct {
	ops []UpdateOp
	ack *Ack
	job func()
}

// Server owns a session and serves snapshot-isolated reads while updates
// stream in. Create with New, stop with Close.
type Server struct {
	sess          *session.Session
	names         map[string]graph.NodeID // writer-owned after New
	onNewNode     func(string, graph.NodeID)
	afterCommit   func(session.BatchStats)
	durabilityErr func() error
	in            chan ingest
	cur           atomic.Pointer[session.Snapshot]
	feed          *feedHub
	maxBody       int64
	pollTimeout   time.Duration

	// Σ analysis served by GET /rules/analysis: the boot report when the
	// gate ran in cmd/ngdserve, else computed on first request (anMu guards
	// it; requests never block the writer).
	analysis *analyze.Report
	anMu     sync.Mutex

	mu      sync.Mutex // guards closed and the senders count
	closed  bool
	senders sync.WaitGroup // admitted sends to in not yet completed
	done    chan struct{}  // writer exited

	enqueued   atomic.Int64
	commits    atomic.Int64
	coalesced  atomic.Int64
	droppedOps atomic.Int64
	queued     atomic.Int64
	lastBatch  atomic.Pointer[session.BatchStats]
}

// ErrClosed is returned by Enqueue after Close.
var ErrClosed = errors.New("serve: server closed")

// New starts the serving layer over an opened session. The session (and
// its graph) must not be touched by anyone else afterwards; the Server's
// writer goroutine is its sole owner.
func New(sess *session.Session, opts Options) *Server {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.Names == nil {
		opts.Names = make(map[string]graph.NodeID)
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = 8 << 20
	}
	if opts.FeedBacklog <= 0 {
		opts.FeedBacklog = 64
	}
	if opts.FeedBuffer <= 0 {
		opts.FeedBuffer = 32
	}
	if opts.PollTimeout <= 0 {
		opts.PollTimeout = 25 * time.Second
	}
	s := &Server{
		sess:          sess,
		names:         opts.Names,
		onNewNode:     opts.OnNewNode,
		afterCommit:   opts.AfterCommit,
		durabilityErr: opts.DurabilityErr,
		maxBody:       opts.MaxBody,
		pollTimeout:   opts.PollTimeout,
		analysis:      opts.Analysis,
		in:            make(chan ingest, opts.QueueDepth),
		done:          make(chan struct{}),
	}
	sn := sess.Snapshot()
	s.cur.Store(sn)
	s.feed = newFeedHub(sn.Epoch, opts.FeedBacklog, opts.FeedBuffer)
	go s.writer()
	return s
}

// Snapshot returns the current epoch's immutable view. Wait-free; safe
// from any goroutine; never blocked by an in-flight commit.
func (s *Server) Snapshot() *session.Snapshot { return s.cur.Load() }

// Analysis returns the Σ admission report and whether it was served from
// cache: the boot-time report when one was injected (Options.Analysis),
// else the report over the session's rules, computed by the first call.
// Safe from any goroutine; the analysis touches only the rule set, never the
// graph, so it cannot race the writer.
func (s *Server) Analysis() (*analyze.Report, bool) {
	s.anMu.Lock()
	defer s.anMu.Unlock()
	if s.analysis != nil {
		return s.analysis, true
	}
	s.analysis = analyze.Analyze(s.sess.Rules(), analyze.Options{Timeout: analyzeTimeout})
	return s.analysis, false
}

// Subscribe opens a change-feed subscription resuming after epoch since
// (pass Snapshot().Epoch to receive only future commits). Events already
// aged out of the backlog yield a *CursorAgedError; the HTTP layer exposes
// this as GET /feed.
func (s *Server) Subscribe(since int) (*FeedSub, error) {
	return s.feed.subscribe(since)
}

// Stats summarizes the server.
func (s *Server) Stats() Stats {
	sn := s.Snapshot()
	durability := ""
	if s.durabilityErr != nil {
		if err := s.durabilityErr(); err != nil {
			durability = err.Error()
		}
	}
	floor, backlog, subs := s.feed.stats()
	return Stats{
		FeedSubs:        subs,
		FeedBacklog:     backlog,
		FeedOldest:      floor,
		FeedRendered:    s.feed.rendered.Load(),
		DurabilityError: durability,
		Plan:            s.sess.PlanStats(),
		Epoch:           sn.Epoch,
		StoreSize:       sn.Len(),
		Nodes:           sn.Nodes,
		Edges:           sn.Edges,
		Commits:         s.commits.Load(),
		Enqueued:        s.enqueued.Load(),
		Coalesced:       s.coalesced.Load(),
		DroppedOps:      s.droppedOps.Load(),
		Queued:          s.queued.Load(),
		LastBatch:       s.lastBatch.Load(),
	}
}

// Enqueue queues update ops for the writer. The returned Ack reports
// commit completion (Done) and the exact epoch the batch landed in
// (Epoch); callers that don't care simply drop it. Blocks only when the
// ingest queue is full (backpressure), and then blocks only its own
// caller: other enqueuers and Close proceed. A request holding an
// attribute value outside the value domain (see UpdateOp.Attrs) queues
// nothing: the error names the op's index and the attribute.
func (s *Server) Enqueue(ops []UpdateOp) (*Ack, error) {
	if err := checkAttrs(ops); err != nil {
		return nil, err
	}
	if !s.admit() {
		return nil, ErrClosed
	}
	defer s.senders.Done()
	ing := ingest{ops: ops, ack: &Ack{done: make(chan struct{})}}
	s.enqueued.Add(1)
	s.queued.Add(1)
	s.in <- ing
	return ing.ack, nil
}

// admit registers one send on the ingest queue, or reports false once
// Close has begun. The send itself runs outside the mutex, so a full queue
// parks its sender without holding the lock; Close waits for every
// admitted send to land before it closes the queue. The caller must call
// s.senders.Done after its send.
func (s *Server) admit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.senders.Add(1)
	return true
}

// Flush blocks until every update queued before the call has committed.
func (s *Server) Flush() error {
	ack, err := s.Enqueue(nil)
	if err != nil {
		return err
	}
	<-ack.Done()
	return nil
}

// Close stops the writer after it drains the queue and closes the change
// feed, so no goroutine the server owns survives the call. Reads keep
// working against the final snapshot; Enqueue fails with ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	if first {
		// the writer keeps draining, so every admitted send lands
		s.senders.Wait()
		close(s.in)
	}
	<-s.done
	s.feed.close() // the writer has exited: no publish can race this
}

// writer is the single mutating goroutine: drain, coalesce, materialize,
// commit, publish.
func (s *Server) writer() {
	defer close(s.done)
	for ing := range s.in {
		batch := []ingest{ing}
		// coalesce the whole burst already queued: one Normalize pass and
		// one incremental detection for all of it
	coalesce:
		for {
			select {
			case more, ok := <-s.in:
				if !ok {
					break coalesce
				}
				batch = append(batch, more)
				s.coalesced.Add(1)
			default:
				break coalesce
			}
		}
		// execute in order, splitting around writer jobs: consecutive op
		// requests still coalesce into one commit, and a job always sees
		// every update enqueued before it committed
		var ops []ingest
		flush := func() {
			if len(ops) > 0 {
				s.commitBatch(ops)
				ops = nil
			}
		}
		for _, e := range batch {
			if e.job != nil {
				flush()
				e.job()
			} else {
				ops = append(ops, e)
			}
		}
		flush()
	}
}

// runOnWriter runs job on the writer goroutine, serialized with commits,
// and returns once it finishes. The job must not call Enqueue, Flush or
// Close (it would deadlock the writer against itself); committing through
// s.commitBatch directly is the sanctioned mutation path.
func (s *Server) runOnWriter(job func()) error {
	if !s.admit() {
		return ErrClosed
	}
	done := make(chan struct{})
	s.in <- ingest{job: func() { defer close(done); job() }}
	s.senders.Done()
	<-done
	return nil
}

// commitBatch materializes the queued ops into node arrivals plus one ΔG,
// commits through the session, and publishes the next epoch's snapshot.
func (s *Server) commitBatch(batch []ingest) {
	g := s.sess.Graph()
	delta := &graph.Delta{}
	var attrOps, arrived []graph.AttrOp
	for _, ing := range batch {
		for _, op := range ing.ops {
			switch op.Op {
			case "node":
				arrived = s.applyNode(g, op, arrived)
			case "setattr":
				v, ok := s.resolve(op.ID)
				if !ok {
					s.droppedOps.Add(1)
					continue
				}
				for _, name := range slices.Sorted(maps.Keys(op.Attrs)) {
					val, _ := toValue(op.Attrs[name]) // checked by Enqueue
					attrOps = append(attrOps, graph.AttrOp{Node: v, Attr: g.Symbols().Attr(name), Val: val})
				}
			case "insert", "delete":
				src, okS := s.resolve(op.Src)
				dst, okD := s.resolve(op.Dst)
				if !okS || !okD {
					s.droppedOps.Add(1)
					continue
				}
				if op.Op == "insert" {
					delta.Insert(src, dst, g.Symbols().Label(op.Label))
				} else {
					l := g.Symbols().LookupLabel(op.Label)
					if l == graph.NoLabel {
						s.droppedOps.Add(1) // label never seen: edge cannot exist
						continue
					}
					delta.Delete(src, dst, l)
				}
			default:
				s.droppedOps.Add(1)
			}
		}
	}

	g.ApplyAttrs(arrived) // the arrivals' attributes, one index write for all
	st := s.sess.CommitBatch(delta, attrOps)
	s.commits.Add(1)
	s.lastBatch.Store(&st)

	// publish the next epoch — the commit already derived its snapshot, run
	// and node postings alike, from this batch's reconciled ΔVio⁺/ΔVio⁻ —
	// then the same delta on the feed, unrendered: the first subscriber
	// that reads the event renders its wire form
	s.cur.Store(s.sess.Snapshot())
	if ev := st.Event; len(ev.Added)+len(ev.Removed) > 0 {
		s.feed.publish(s.feed.event(ev))
	}
	if s.afterCommit != nil {
		s.afterCommit(st)
	}

	for _, ing := range batch {
		s.queued.Add(-1)
		ing.ack.epoch = st.Batch
		close(ing.ack.done)
	}
}

// applyNode handles a "node" op: a *new* entity arriving with its
// attribute star. Re-registering an existing id is dropped — mutating the
// attributes of a node the store has already seen would silently break the
// store ≡ Dect(Σ, G) invariant (unit updates are edge-only, paper §5.2).
// The node's attributes are appended to attrs, for the caller to set with
// the batch's other arrivals.
func (s *Server) applyNode(g *graph.Graph, op UpdateOp, attrs []graph.AttrOp) []graph.AttrOp {
	if op.ID == "" {
		s.droppedOps.Add(1)
		return attrs
	}
	if _, exists := s.names[op.ID]; exists {
		s.droppedOps.Add(1)
		return attrs
	}
	if _, err := strconv.Atoi(op.ID); err == nil {
		s.droppedOps.Add(1) // numeric ids are reserved for raw NodeIDs
		return attrs
	}
	v := g.AddNode(op.Label)
	id := strings.Clone(op.ID) // not a piece of the request body, which it outlives
	s.names[id] = v
	if s.onNewNode != nil {
		s.onNewNode(id, v)
	}
	for name, raw := range op.Attrs {
		val, _ := toValue(raw) // checked by Enqueue
		attrs = append(attrs, graph.AttrOp{Node: v, Attr: g.Symbols().Attr(name), Val: val})
	}
	return attrs
}

// resolve maps an external node reference — a registered name or a decimal
// NodeID — to a node of the graph.
func (s *Server) resolve(ref string) (graph.NodeID, bool) {
	if v, ok := s.names[ref]; ok {
		return v, true
	}
	n, err := strconv.Atoi(ref)
	if err != nil || n < 0 || n >= s.sess.Graph().NumNodes() {
		return 0, false
	}
	return graph.NodeID(n), true
}

// checkAttrs refuses the first op, by index, of kind "node" or "setattr"
// holding an attribute value toValue refuses, naming the least such
// attribute of that op.
func checkAttrs(ops []UpdateOp) error {
	for i, op := range ops {
		if op.Op != "node" && op.Op != "setattr" {
			continue
		}
		bad, badErr := "", error(nil)
		for name, raw := range op.Attrs {
			if _, err := toValue(raw); err != nil && (badErr == nil || name < bad) {
				bad, badErr = name, err
			}
		}
		if badErr != nil {
			return fmt.Errorf("op %d: attribute %q: %w", i, bad, badErr)
		}
	}
	return nil
}

// toValue converts an attribute value of UpdateOp.Attrs. POST /update's
// decoder hands a number over as the int64 it denotes, or as the
// json.Number that graph.ParseInt refuses. A float64 is refused: it may
// already have been rounded.
func toValue(raw any) (graph.Value, error) {
	switch v := raw.(type) {
	case string:
		return graph.Str(v), nil
	case bool:
		return graph.Bool(v), nil
	case json.Number:
		i, err := graph.ParseInt(string(v))
		return graph.Int(i), err
	case int:
		return graph.Int(int64(v)), nil
	case int64:
		return graph.Int(v), nil
	}
	text, _ := json.Marshal(raw)
	return graph.Value{}, fmt.Errorf("%s is not a string, a bool or an integer", text)
}
