package store_test

// End-to-end recovery differentials: a session that dies and recovers
// through internal/store must be indistinguishable from one that never
// died — same violation store, same graph, same external-id map, and the
// same behaviour on subsequent commits (which transitively checks the
// rebuilt adjacency, postings and attribute indexes). The suite covers
// clean recovery (replay-free after a checkpoint), WAL replay, the torn
// final record, annihilating batches, and the full serving stack under
// the race detector.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/pattern"
	"ngd/internal/serve"
	"ngd/internal/session"
	"ngd/internal/store"
)

const (
	tEntities = 220
	tRules    = 16
	tSeed     = int64(7)
)

func makeWorkload(t *testing.T) (*gen.Dataset, *session.Session) {
	t.Helper()
	ds := gen.Generate(gen.YAGO2, tEntities, tSeed)
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: tRules, MaxDiameter: 4, Seed: tSeed})
	return ds, session.New(ds.G, rules, session.Options{})
}

func batchFor(ds *gen.Dataset, b int) *graph.Delta {
	return gen.RandomDelta(ds, gen.DeltaConfig{
		Size:  gen.DeltaSize(ds.G, 0.04),
		Gamma: 1,
		Seed:  tSeed*97 + int64(b),
	})
}

// sessionsEqual compares everything recovery must reproduce.
func sessionsEqual(t *testing.T, label string, want, got *session.Session) {
	t.Helper()
	if w, g := want.Graph().NumNodes(), got.Graph().NumNodes(); w != g {
		t.Errorf("%s: |V| = %d, want %d", label, g, w)
	}
	if w, g := want.Graph().NumEdges(), got.Graph().NumEdges(); w != g {
		t.Errorf("%s: |E| = %d, want %d", label, g, w)
	}
	wv, gv := want.Violations(), got.Violations()
	if len(wv) != len(gv) {
		t.Fatalf("%s: store size = %d, want %d", label, len(gv), len(wv))
	}
	for i := range wv {
		if wv[i].Key() != gv[i].Key() {
			t.Fatalf("%s: violation %d = %s, want %s", label, i, gv[i].Key(), wv[i].Key())
		}
	}
	if err := got.Recheck(); err != nil {
		t.Errorf("%s: recovered store invariant broken: %v", label, err)
	}
}

// commitVia replays ds-generated batches through a store-attached session,
// simulating the serving writer (hook-logged commits, cadence-driven
// checkpoints when st is non-nil and every > 0).
func commitVia(t *testing.T, sess *session.Session, ds *gen.Dataset, st *store.Store, every, batches int) {
	t.Helper()
	for b := 0; b < batches; b++ {
		bs := sess.Commit(batchFor(ds, b))
		if bs.LogErr != nil {
			t.Fatalf("batch %d: WAL append failed: %v", b, bs.LogErr)
		}
		if st != nil && every > 0 {
			st.MaybeCheckpoint()
		}
	}
}

func TestRecoverReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	const batches = 6

	ds, live := makeWorkload(t)
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatal("fresh directory reported recoverable state")
	}
	if err := st.Bootstrap(live, live.Rules(), nil); err != nil {
		t.Fatal(err)
	}
	commitVia(t, live, ds, nil, 0, batches)
	if err := st.Close(); err != nil { // crash: no final checkpoint
		t.Fatal(err)
	}

	st2, rec2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec2 == nil {
		t.Fatal("nothing recovered")
	}
	if rec2.SnapshotSeq != 0 || rec2.Replayed != batches || rec2.Truncated {
		t.Errorf("recovered = snap %d + %d replayed (truncated=%v), want 0 + %d",
			rec2.SnapshotSeq, rec2.Replayed, rec2.Truncated, batches)
	}
	sessionsEqual(t, "replayed", live, rec2.Session)

	// the recovered session must behave identically from here on: absorb
	// the same node arrivals and commit the same batch, then re-compare
	// (this transitively checks adjacency, postings and index maintenance)
	w := rec2.Session.Graph().NumNodes()
	extra := batchFor(ds, batches) // adds arriving nodes to the live graph
	for v := w; v < ds.G.NumNodes(); v++ {
		id := graph.NodeID(v)
		nv := rec2.Session.Graph().AddNode(ds.G.LabelName(id))
		ds.G.Attrs(id, func(a graph.AttrID, val graph.Value) {
			rec2.Session.Graph().SetAttr(nv, ds.G.Symbols().AttrName(a), val)
		})
	}
	live.Commit(extra)
	if bs := rec2.Session.Commit(extra); bs.LogErr != nil {
		t.Fatalf("post-recovery commit: %v", bs.LogErr)
	}
	sessionsEqual(t, "post-recovery commit", live, rec2.Session)
}

func TestRecoverAfterCheckpointIsReplayFree(t *testing.T) {
	dir := t.TempDir()
	const batches = 5

	ds, live := makeWorkload(t)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(live, live.Rules(), nil); err != nil {
		t.Fatal(err)
	}
	commitVia(t, live, ds, nil, 0, batches)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Replayed != 0 {
		t.Fatalf("recovery after checkpoint replayed %d batches, want 0", rec.Replayed)
	}
	if rec.SnapshotSeq != uint64(batches) {
		t.Errorf("snapshot seq = %d, want %d", rec.SnapshotSeq, batches)
	}
	sessionsEqual(t, "checkpointed", live, rec.Session)
}

func TestRecoverTornTailDropsLastBatch(t *testing.T) {
	dir := t.TempDir()
	const batches = 5

	ds, live := makeWorkload(t)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(live, live.Rules(), nil); err != nil {
		t.Fatal(err)
	}
	commitVia(t, live, ds, nil, 0, batches)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// kill mid-write: shear bytes off the final WAL record
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.ngdw"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("wal segments = %v (err %v)", wals, err)
	}
	fi, err := os.Stat(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wals[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	// reference: an identical workload that only ever committed batches-1
	// (the torn batch was never acknowledged as durable)
	dsRef := gen.Generate(gen.YAGO2, tEntities, tSeed)
	rules := gen.Rules(gen.YAGO2, gen.RuleConfig{Count: tRules, MaxDiameter: 4, Seed: tSeed})
	ref := session.New(dsRef.G, rules, session.Options{})
	commitVia(t, ref, dsRef, nil, 0, batches-1)
	// the final batch's node arrivals rode in the torn record, so they
	// must not survive recovery either; the reference stops before
	// generating that batch at all, matching the recovered state

	st2, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec == nil || !rec.Truncated {
		t.Fatalf("torn tail not reported (rec=%+v)", rec)
	}
	if rec.Replayed != batches-1 {
		t.Errorf("replayed %d batches, want %d", rec.Replayed, batches-1)
	}
	sessionsEqual(t, "torn tail", ref, rec.Session)

	// the truncated segment must accept appends again
	rg := rec.Session.Graph()
	d := &graph.Delta{}
	d.Insert(1, 2, rg.Symbols().Label("post_torn"))
	if bs := rec.Session.Commit(d); bs.LogErr != nil {
		t.Fatalf("append after torn-tail recovery: %v", bs.LogErr)
	}
}

func TestAnnihilatingAndNoopBatches(t *testing.T) {
	dir := t.TempDir()
	ds, live := makeWorkload(t)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(live, live.Rules(), nil); err != nil {
		t.Fatal(err)
	}

	g := live.Graph()
	l := g.Symbols().Label("rel_0")
	// a batch whose ops fully annihilate: insert+delete of an absent edge,
	// delete+insert of a present one (net no-op against G)
	var u, v graph.NodeID = 1, 3
	ann := &graph.Delta{}
	ann.Insert(u, v, l)
	ann.Delete(u, v, l)
	if g.OutDegree(0) > 0 {
		h := g.Out(0)[0]
		ann.Delete(0, h.To, h.Label)
		ann.Insert(0, h.To, h.Label)
	}
	bs := live.Commit(ann)
	if bs.Ops != 0 {
		t.Fatalf("annihilating batch normalized to %d ops, want 0", bs.Ops)
	}
	if bs.LogErr != nil {
		t.Fatal(bs.LogErr)
	}
	// plus one real batch, then one pure no-op batch (delete absent edge)
	commitVia(t, live, ds, nil, 0, 1)
	noop := &graph.Delta{}
	noop.Delete(2, 4, g.Symbols().Label("never_seen_label"))
	live.Commit(noop)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec == nil {
		t.Fatal("nothing recovered")
	}
	// only the one effective batch was logged
	if rec.Replayed != 1 {
		t.Errorf("replayed %d batches, want 1 (empty batches are not logged)", rec.Replayed)
	}
	sessionsEqual(t, "annihilate", live, rec.Session)
}

func TestCheckpointCadenceAndPruning(t *testing.T) {
	dir := t.TempDir()
	const batches = 9

	ds, live := makeWorkload(t)
	st, _, err := store.Open(dir, store.Options{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(live, live.Rules(), nil); err != nil {
		t.Fatal(err)
	}
	commitVia(t, live, ds, st, 3, batches)
	if err := st.Close(); err != nil { // waits for in-flight checkpoints
		t.Fatal(err)
	}

	ss := st.Stats()
	if ss.Checkpoints == 0 {
		t.Fatal("no background checkpoint ran")
	}
	if ss.SnapshotSeq == 0 {
		t.Fatal("snapshot seq never advanced")
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.ngds"))
	if len(snaps) != 1 {
		t.Errorf("%d snapshots on disk after pruning, want 1: %v", len(snaps), snaps)
	}
	// every surviving WAL segment must start at or after the snapshot seq
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.ngdw"))
	for _, w := range wals {
		var ws uint64
		if _, err := fmt.Sscanf(filepath.Base(w), "wal-%d.ngdw", &ws); err != nil {
			t.Fatalf("unparseable segment name %s", w)
		}
		if ws < ss.SnapshotSeq {
			t.Errorf("stale segment %s survived pruning (snapshot seq %d)", w, ss.SnapshotSeq)
		}
	}

	_, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("nothing recovered")
	}
	if rec.Replayed > batches-int(ss.SnapshotSeq) {
		t.Errorf("replayed %d batches despite snapshot at seq %d", rec.Replayed, ss.SnapshotSeq)
	}
	sessionsEqual(t, "pruned", live, rec.Session)
}

// TestRecoverThroughServe drives the full serving stack — external-id node
// ops, coalesced edge ops, cadence checkpoints — kills it (no final
// checkpoint), recovers, and compares против the surviving server. Run
// under -race this also exercises the writer/checkpoint handoff.
func TestRecoverThroughServe(t *testing.T) {
	dir := t.TempDir()

	ds, sess := makeWorkload(t)
	rules := sess.Rules()
	st, _, err := store.Open(dir, store.Options{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]graph.NodeID)
	if err := st.Bootstrap(sess, rules, names); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(sess, serve.Options{
		Names:     names,
		OnNewNode: st.NoteName,
		AfterCommit: func(bs session.BatchStats) {
			if bs.LogErr != nil {
				t.Errorf("WAL append failed: %v", bs.LogErr)
			}
			st.MaybeCheckpoint()
		},
	})

	relabel := ds.G.Symbols().LabelName(ds.G.Out(0)[0].Label)
	for b := 0; b < 10; b++ {
		ops := []serve.UpdateOp{
			{Op: "node", ID: nameFor(b), Label: "person", Attrs: map[string]any{
				"idx": b, "name": "u" + nameFor(b), "vip": b%2 == 0,
			}},
			{Op: "insert", Src: "0", Dst: nameFor(b), Label: relabel},
			{Op: "insert", Src: nameFor(b), Dst: "1", Label: relabel},
		}
		if b > 2 {
			ops = append(ops, serve.UpdateOp{Op: "delete", Src: "0", Dst: nameFor(b - 2), Label: relabel})
		}
		if _, err := srv.Enqueue(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	liveSnap := srv.Snapshot()
	liveNodes, liveEdges := liveSnap.Nodes, liveSnap.Edges
	liveKeys := make([]string, 0, liveSnap.Len())
	for _, v := range liveSnap.Violations() {
		liveKeys = append(liveKeys, v.Key())
	}
	srv.Close()
	if err := st.Close(); err != nil { // crash: skip the final checkpoint
		t.Fatal(err)
	}

	st2, rec, err := store.Open(dir, store.Options{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec == nil {
		t.Fatal("nothing recovered")
	}
	got := rec.Session.Snapshot()
	if got.Nodes != liveNodes || got.Edges != liveEdges {
		t.Errorf("recovered |V|/|E| = %d/%d, want %d/%d", got.Nodes, got.Edges, liveNodes, liveEdges)
	}
	if got.Len() != len(liveKeys) {
		t.Fatalf("recovered store size %d, want %d", got.Len(), len(liveKeys))
	}
	for i, v := range rec.Session.Violations() {
		if v.Key() != liveKeys[i] {
			t.Fatalf("violation %d = %s, want %s", i, v.Key(), liveKeys[i])
		}
	}
	// external ids must have survived the WAL round-trip and still resolve
	for b := 0; b < 10; b++ {
		v, ok := rec.Names[nameFor(b)]
		if !ok {
			t.Fatalf("external id %q lost in recovery", nameFor(b))
		}
		if rec.Session.Graph().LabelName(v) != "person" {
			t.Errorf("external id %q resolves to a %q node", nameFor(b), rec.Session.Graph().LabelName(v))
		}
	}
	if err := rec.Session.Recheck(); err != nil {
		t.Errorf("recovered store invariant: %v", err)
	}

	// the recovered state must serve: spin the stack back up and ingest
	srv2 := serve.New(rec.Session, serve.Options{
		Names:       rec.Names,
		OnNewNode:   st2.NoteName,
		AfterCommit: func(session.BatchStats) { st2.MaybeCheckpoint() },
	})
	done, err := srv2.Enqueue([]serve.UpdateOp{
		{Op: "node", ID: "post-recovery", Label: "person"},
		{Op: "insert", Src: "post-recovery", Dst: "0", Label: relabel},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done.Done()
	srv2.Close()
}

func nameFor(b int) string {
	return "ext" + string(rune('a'+b))
}

func TestOpenRejectsWALWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000000.ngdw"), []byte("NGDWALOG"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Open(dir, store.Options{}); err == nil {
		t.Fatal("wal-without-snapshot accepted")
	}
}

// TestOpenRefusesSnapshotTail: a snapshot with bytes after its trailer is
// unreadable, so a directory whose only snapshot has such a tail does not
// load.
func TestOpenRefusesSnapshotTail(t *testing.T) {
	dir := t.TempDir()
	_, live := makeWorkload(t)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(live, live.Rules(), nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v, %v; want one", snaps, err)
	}
	f, err := os.OpenFile(snaps[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("junk"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Open(dir, store.Options{}); err == nil || !strings.Contains(err.Error(), "no readable snapshot") {
		t.Fatalf("a snapshot with a tail: err = %v", err)
	}
}

// TestOpenRefusesWALStartMismatch: a segment whose header start is not the
// one its name carries (a flipped byte in the one header field no checksum
// covers) fails recovery instead of replaying under the wrong numbering.
func TestOpenRefusesWALStartMismatch(t *testing.T) {
	dir := t.TempDir()
	ds, live := makeWorkload(t)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(live, live.Rules(), nil); err != nil {
		t.Fatal(err)
	}
	commitVia(t, live, ds, nil, 0, 2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal-0000000000000000.ngdw")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len("NGDWALOG")+4] ^= 0x01 // the start seq's low byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Open(dir, store.Options{}); err == nil || !strings.Contains(err.Error(), "starts at 1") {
		t.Fatalf("a segment named for seq 0 whose header says 1: err = %v", err)
	}
}

// TestOpenLocksDirectory: a second Open on a live directory must fail fast
// (two writers would corrupt the WAL), and Close must release the lock.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Open(dir, store.Options{}); err == nil {
		t.Fatal("second Open on a locked directory succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	st2.Close()
}

// TestRecoveryRebuildsProgram asserts that the shared rule program is NOT
// part of the persisted state: recovery restores Σ and the graph, then
// compiles a fresh Program from them — plan cache empty, counters zero —
// and subsequent commits warm it exactly like a never-crashed session.
func TestRecoveryRebuildsProgram(t *testing.T) {
	dir := t.TempDir()
	ds, live := makeWorkload(t)
	rules := live.Rules()
	st, _, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(live, rules, nil); err != nil {
		t.Fatal(err)
	}
	commitVia(t, live, ds, nil, 0, 3)
	if c := live.PlanStats(); c.Misses == 0 || c.Hits == 0 {
		t.Fatalf("live session's program never planned: %+v", c)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("expected a recoverable state")
	}
	prog := rec.Session.Program()
	if prog == nil {
		t.Fatal("recovered session has no program")
	}
	if prog == live.Program() {
		t.Fatal("recovered session shares the dead session's program object")
	}
	c := rec.Session.PlanStats()
	// WAL replay routes through Commit, so replayed batches may already
	// have planned — but nothing can have been served from a persisted
	// cache beyond what replay itself compiled.
	if c.Misses == 0 && c.Hits > 0 {
		t.Fatalf("recovered program reports hits without compiling anything (%+v) — plans were persisted?", c)
	}
	if c.Rules != int64(rules.Len()) {
		t.Fatalf("recovered program compiled %d rules, Σ has %d", c.Rules, rules.Len())
	}
	sessionsEqual(t, "program-rebuild", live, rec.Session)

	// the recovered program must be live: a fresh commit plans against the
	// restored graph and keeps the invariant. The probe inserts an edge that
	// the first pattern edge of Σ can pivot on; it used to delete one, but a
	// deleted edge's ΔVio⁻ is read off the store's postings since PR 24 and
	// plans nothing.
	rg := rec.Session.Graph()
	d := &graph.Delta{}
	r0 := rules.Rules[0]
	pe, cp := r0.Pattern.Edges[0], pattern.Compile(r0.Pattern, rg.Symbols())
	for u := 0; u < rg.NumNodes() && d.Len() == 0; u++ {
		if !cp.NodeMatches(pe.Src, rg.Label(graph.NodeID(u))) {
			continue
		}
		for w := 0; w < rg.NumNodes() && d.Len() == 0; w++ {
			if cp.NodeMatches(pe.Dst, rg.Label(graph.NodeID(w))) &&
				!rg.HasEdgeL(graph.NodeID(u), graph.NodeID(w), cp.EdgeLabels[0]) {
				d.Insert(graph.NodeID(u), graph.NodeID(w), cp.EdgeLabels[0])
			}
		}
	}
	if d.Len() == 0 {
		t.Fatalf("recovered graph has no room for another %s edge", pe.Label)
	}
	bs := rec.Session.Commit(d)
	if bs.PlanHits+bs.PlanMisses == 0 && bs.Ops > 0 {
		t.Fatal("post-recovery commit did not touch the rebuilt plan cache")
	}
	if err := rec.Session.Recheck(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenKeepsHashInStringLiteral: Σ is persisted as dsl.FormatRules text,
// so a string constant holding '#' must come back from a reopen whole rather
// than cut where a comment would start.
func TestReopenKeepsHashInStringLiteral(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	g.SetAttr(g.AddNode("item"), "tag", graph.Str("a # b"))
	p := pattern.New()
	p.AddNode("x", "item")
	lit := core.Lit(expr.V("x", "tag"), expr.Ne, expr.S("a # b"))
	live := session.New(g, core.NewSet(core.MustNew("hashed", p, nil, []core.Literal{lit})), session.Options{})
	if live.Len() != 1 {
		t.Fatalf("seed store: %d violations, want 1", live.Len())
	}
	st, _, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(live, live.Rules(), nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if rec == nil {
		t.Fatal("nothing recovered")
	}
	if got := rec.Session.Rules().Rules[0].Y[0]; got.String() != lit.String() {
		t.Fatalf("recovered literal %s, want %s", got, lit)
	}
	sessionsEqual(t, "reopened", live, rec.Session)
}
