package store

// Codec-level tests: snapshot round-trips (including the edge cases the
// serving layer produces — empty graphs, nodes with empty attribute
// tuples, every value kind), WAL framing, torn-tail truncation, and
// corruption detection. The end-to-end recovery differentials live in
// recover_test.go.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/pattern"
	"ngd/internal/session"
)

// fingerprint renders everything the snapshot codec must preserve about a
// graph — node labels, typed attribute tuples, adjacency with edge labels
// — as a canonical string, by name rather than by interned id so two
// graphs with different interning histories still compare equal.
func fingerprint(g *graph.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d edges=%d\n", g.NumNodes(), g.NumEdges())
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		fmt.Fprintf(&b, "n%d %s", v, g.LabelName(id))
		var attrs []string
		g.Attrs(id, func(a graph.AttrID, val graph.Value) {
			attrs = append(attrs, fmt.Sprintf(" %s=%s/%s", g.Symbols().AttrName(a), val, val.Kind()))
		})
		sort.Strings(attrs)
		for _, a := range attrs {
			b.WriteString(a)
		}
		b.WriteByte('\n')
		for _, h := range g.Out(id) {
			fmt.Fprintf(&b, "  -%s-> n%d\n", g.Symbols().LabelName(h.Label), h.To)
		}
	}
	return b.String()
}

func roundtrip(t *testing.T, sd *snapshotData) *snapshotData {
	t.Helper()
	var buf bytes.Buffer
	if err := writeImage(&buf, sd); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	got, err := readSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	return got
}

func TestSnapshotRoundtrip(t *testing.T) {
	g := graph.New()
	a := g.AddNode("person")
	b := g.AddNode("person")
	c := g.AddNode("place")
	g.SetAttr(a, "age", graph.Int(41))
	g.SetAttr(a, "name", graph.Str("ada \"the\" first"))
	g.SetAttr(a, "active", graph.Bool(true))
	g.SetAttr(b, "score", graph.Str(""))
	g.SetAttr(b, "neg", graph.Int(-17))
	// c deliberately keeps an empty attribute tuple
	g.AddEdge(a, b, "knows")
	g.AddEdge(a, c, "born_in")
	g.AddEdge(b, a, "knows")
	g.AddEdge(a, b, "likes")

	sd := &snapshotData{
		Seq:       42,
		G:         g,
		Names:     map[string]graph.NodeID{"ada": a, "bob": b, "rome": c},
		RulesText: "rule r1 { }", // opaque to the codec; parsed elsewhere
		Violations: []vioRec{
			{Rule: "r1", Match: []graph.NodeID{a, b}},
			{Rule: "r1", Match: []graph.NodeID{b, a}},
		},
	}
	got := roundtrip(t, sd)

	if got.Seq != 42 {
		t.Errorf("seq = %d, want 42", got.Seq)
	}
	if want, have := fingerprint(g), fingerprint(got.G); want != have {
		t.Errorf("graph fingerprint mismatch:\nwant:\n%s\ngot:\n%s", want, have)
	}
	if len(got.Names) != 3 || got.Names["ada"] != a || got.Names["bob"] != b || got.Names["rome"] != c {
		t.Errorf("names = %v", got.Names)
	}
	if got.RulesText != sd.RulesText {
		t.Errorf("rules text = %q", got.RulesText)
	}
	if len(got.Violations) != 2 || got.Violations[0].Rule != "r1" ||
		got.Violations[0].Match[0] != a || got.Violations[1].Match[0] != b {
		t.Errorf("violations = %+v", got.Violations)
	}
	// derived structures must come back consistent: in-lists mirror
	// out-lists, by-label postings cover every node
	if got.G.InDegree(b) != 2 || got.G.InDegree(a) != 1 || got.G.InDegree(c) != 1 {
		t.Errorf("in-degrees = %d/%d/%d", got.G.InDegree(a), got.G.InDegree(b), got.G.InDegree(c))
	}
	if n := len(got.G.NodesWithLabel(got.G.Symbols().LookupLabel("person"))); n != 2 {
		t.Errorf("by-label postings: %d person nodes, want 2", n)
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	sd := &snapshotData{Seq: 0, G: graph.New(), Names: map[string]graph.NodeID{}}
	got := roundtrip(t, sd)
	if got.G.NumNodes() != 0 || got.G.NumEdges() != 0 || len(got.Names) != 0 || len(got.Violations) != 0 {
		t.Errorf("empty snapshot decoded to |V|=%d |E|=%d names=%d vios=%d",
			got.G.NumNodes(), got.G.NumEdges(), len(got.Names), len(got.Violations))
	}
}

func TestSnapshotZeroAttrNodes(t *testing.T) {
	g := graph.New()
	for i := 0; i < 5; i++ {
		g.AddNode("bare")
	}
	g.AddEdge(0, 4, "e")
	got := roundtrip(t, &snapshotData{G: g})
	if want, have := fingerprint(g), fingerprint(got.G); want != have {
		t.Errorf("zero-attr fingerprint mismatch:\nwant:\n%s\ngot:\n%s", want, have)
	}
	for v := 0; v < 5; v++ {
		if got.G.NumAttrs(graph.NodeID(v)) != 0 {
			t.Errorf("node %d decoded with %d attrs, want 0", v, got.G.NumAttrs(graph.NodeID(v)))
		}
	}
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	g := graph.New()
	v := g.AddNode("x")
	g.SetAttr(v, "a", graph.Int(7))
	var buf bytes.Buffer
	if err := writeImage(&buf, &snapshotData{G: g}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// flip one byte in the middle: the CRC trailer (or a bounds check on
	// the mangled structure) must reject the file
	for _, off := range []int{len(raw) / 2, len(raw) - 5} {
		mangled := append([]byte(nil), raw...)
		mangled[off] ^= 0x41
		if _, err := readSnapshot(bytes.NewReader(mangled)); err == nil {
			t.Errorf("corruption at offset %d went undetected", off)
		}
	}
	// truncation anywhere must be detected too
	for _, cut := range []int{len(raw) - 1, len(raw) / 2, 4} {
		if _, err := readSnapshot(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation to %d bytes went undetected", cut)
		}
	}
	if _, err := readSnapshot(bytes.NewReader([]byte("NOTASNAP"))); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}
}

func testRecords() []*walRecord {
	return []*walRecord{
		{
			Seq: 1,
			Nodes: []nodeRec{
				{Node: 10, ExtID: "alice", Label: "person", Attrs: []nodeAttr{
					{Name: "age", Val: graph.Int(30)},
					{Name: "city", Val: graph.Str("ulm")},
				}},
				{Node: 11, Label: "place"}, // no external id, no attrs
			},
			Ops: []opRec{
				{Insert: true, Src: 10, Dst: 11, Label: "born_in"},
			},
		},
		{Seq: 2, Ops: []opRec{{Insert: false, Src: 10, Dst: 11, Label: "born_in"}}},
		{Seq: 3, Nodes: []nodeRec{{Node: 12, ExtID: "z", Label: "person"}}},
	}
}

func writeSegment(t *testing.T, path string, start uint64, recs []*walRecord) {
	t.Helper()
	w, err := createWAL(path, start, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

func scanAll(t *testing.T, path string) ([]*walRecord, walScanResult) {
	t.Helper()
	var got []*walRecord
	res, err := scanWAL(path, func(r *walRecord) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatalf("scanWAL: %v", err)
	}
	return got, res
}

func TestWALRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0.ngdw")
	recs := testRecords()
	writeSegment(t, path, 0, recs)

	got, res := scanAll(t, path)
	if res.Truncated {
		t.Error("clean segment reported as truncated")
	}
	if res.Start != 0 {
		t.Errorf("start = %d", res.Start)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	r := got[0]
	if r.Seq != 1 || len(r.Nodes) != 2 || len(r.Ops) != 1 {
		t.Fatalf("record 0 = %+v", r)
	}
	if r.Nodes[0].ExtID != "alice" || r.Nodes[0].Label != "person" || len(r.Nodes[0].Attrs) != 2 {
		t.Errorf("node rec = %+v", r.Nodes[0])
	}
	if v := r.Nodes[0].Attrs[0].Val; r.Nodes[0].Attrs[0].Name != "age" || !v.Equal(graph.Int(30)) {
		t.Errorf("attr = %+v", r.Nodes[0].Attrs[0])
	}
	if !r.Ops[0].Insert || r.Ops[0].Src != 10 || r.Ops[0].Dst != 11 || r.Ops[0].Label != "born_in" {
		t.Errorf("op = %+v", r.Ops[0])
	}
	if got[1].Ops[0].Insert {
		t.Error("record 1 delete decoded as insert")
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ngdw")
	recs := testRecords()
	writeSegment(t, full, 0, recs)
	fi, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	// locate the end of record 2 by scanning a two-record segment
	two := filepath.Join(dir, "two.ngdw")
	writeSegment(t, two, 0, recs[:2])
	fi2, err := os.Stat(two)
	if err != nil {
		t.Fatal(err)
	}
	goodTwo := fi2.Size()

	// cut the full segment at every byte inside the final record: frame
	// header torn, payload torn, and (full size - 1) checksum-breaking cuts
	for cut := goodTwo + 1; cut < fi.Size(); cut++ {
		torn := filepath.Join(dir, "torn.ngdw")
		raw, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(torn, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, res := scanAll(t, torn)
		if !res.Truncated {
			t.Fatalf("cut at %d: torn tail not reported", cut)
		}
		if len(got) != 2 || res.GoodSize != goodTwo {
			t.Fatalf("cut at %d: %d records survive, goodSize %d (want 2, %d)",
				cut, len(got), res.GoodSize, goodTwo)
		}
	}

	// a bit-flip inside the last record's payload must also truncate there
	raw, _ := os.ReadFile(full)
	raw[len(raw)-1] ^= 0xff
	flip := filepath.Join(dir, "flip.ngdw")
	if err := os.WriteFile(flip, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, res := scanAll(t, flip)
	if !res.Truncated || len(got) != 2 {
		t.Fatalf("bit-flip: truncated=%v records=%d", res.Truncated, len(got))
	}

	// appending after a torn-tail truncation continues the segment cleanly
	w, err := openWALForAppend(flip, res.Start, res.GoodSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(recs[2]); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, res = scanAll(t, flip)
	if res.Truncated || len(got) != 3 || got[2].Seq != 3 {
		t.Fatalf("after repair+append: truncated=%v records=%d", res.Truncated, len(got))
	}
}

func TestWALEmptySegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-7.ngdw")
	writeSegment(t, path, 7, nil)
	got, res := scanAll(t, path)
	if len(got) != 0 || res.Truncated || res.Start != 7 {
		t.Errorf("empty segment: records=%d truncated=%v start=%d", len(got), res.Truncated, res.Start)
	}
}

// itemSession is a session over eight "item" nodes in a chain of "next"
// edges, each with val 1 and a tuple that an attribute named early, interned
// first, would shift, under the rule that no item's val exceeds 10.
func itemSession() (*session.Session, *core.Set) {
	q := pattern.New()
	q.AddNode("x", "item")
	rules := core.NewSet(core.MustNew("cap", q, nil, []core.Literal{core.MustLiteral("x.val <= 10")}))
	g := graph.New()
	g.Symbols().Attr("early")
	for i := 0; i < 8; i++ {
		g.SetAttr(g.AddNode("item"), "val", graph.Int(1))
		if i > 0 {
			g.AddEdge(graph.NodeID(i-1), graph.NodeID(i), "next")
		}
	}
	return session.New(g, rules, session.Options{}), rules
}

// TestCheckpointWritesTheCapturedEpoch: the checkpoint captures the graph,
// the names and the violation set at capture time, and the job encodes them
// while the writer keeps committing — edge inserts and deletes on captured
// nodes, an attribute insert that shifts a tuple, a node arriving with a
// new label, a new attribute name and an external id. Those commits are in
// the WAL suffix, not in the snapshot file. Run it under -race.
func TestCheckpointWritesTheCapturedEpoch(t *testing.T) {
	sess, rules := itemSession()
	g := sess.Graph()
	val, next := g.Symbols().Attr("val"), g.Symbols().Label("next")
	set := func(n graph.NodeID, a graph.AttrID, v int64) {
		sess.CommitBatch(nil, []graph.AttrOp{{Node: n, Attr: a, Val: graph.Int(v)}})
	}

	dir := t.TempDir()
	st, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(sess, rules, map[string]graph.NodeID{"first": 0, "also-first": 0, "third": 2}); err != nil {
		t.Fatal(err)
	}
	set(2, val, 20)
	set(5, val, 20)
	arrive := func(label, attr, id string) graph.NodeID {
		v := g.AddNode(label)
		st.NoteName(id, v)
		g.SetAttr(v, attr, graph.Int(3))
		sess.CommitBatch(nil, nil)
		return v
	}
	arrive("item", "val", "ninth")

	st.ckptBusy.Store(true)
	image := fingerprint(g)
	job, err := st.captureCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- job() }()
	set(5, val, 1) // cleared after capture
	set(7, val, 20)
	d := &graph.Delta{}
	d.Insert(7, 0, next)
	d.Insert(3, 5, next)
	d.Delete(1, 2, next)
	sess.Commit(d)
	set(3, g.Symbols().Attr("early"), 5)
	late := arrive("late-label", "late-attr", "tenth")
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, snapName(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sd, err := readSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(sd.Violations); got != "[{cap [2]} {cap [5]}]" {
		t.Fatalf("snapshot at seq 3 holds %s, want the violations of nodes 2 and 5", got)
	}
	if got := fingerprint(sd.G); got != image {
		t.Fatalf("snapshot graph:\n%s\nwant the captured image:\n%s", got, image)
	}
	if got := fmt.Sprint(sd.Names); got != "map[also-first:0 first:0 ninth:8 third:2]" {
		t.Fatalf("snapshot names %s, want the four bound at capture", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// and recovery replays the five later commits on top of it
	_, rec, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rec.Session.Violations()); rec.Replayed != 5 || got != fmt.Sprint(sess.Violations()) {
		t.Fatalf("recovered %s after %d replayed batches, live store is %v", got, rec.Replayed, sess.Violations())
	}
	if got, want := fingerprint(rec.Session.Graph()), fingerprint(g); got != want {
		t.Fatalf("recovered graph:\n%s\nwant:\n%s", got, want)
	}
	if rec.Names["tenth"] != late || len(rec.Names) != 5 {
		t.Fatalf("recovered names %v, want tenth at %d beside the four captured", rec.Names, late)
	}
}

// TestCheckpointRotateFailureIsReported: a checkpoint whose new WAL segment
// cannot be created (a directory sits at its path) reports the failure in
// Err, leaves appends on the old segment, and is retried on the next
// commit; recovery then equals the live store.
func TestCheckpointRotateFailureIsReported(t *testing.T) {
	sess, rules := itemSession()
	val := sess.Graph().Symbols().Attr("val")
	dir := t.TempDir()
	st, _, err := Open(dir, Options{NoSync: true, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(sess, rules, nil); err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(dir, walName(2))
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	commit := func(n graph.NodeID, v int64) {
		t.Helper()
		bs := sess.CommitBatch(nil, []graph.AttrOp{{Node: n, Attr: val, Val: graph.Int(v)}})
		if bs.LogErr != nil {
			t.Fatalf("commit not logged: %v", bs.LogErr)
		}
		st.MaybeCheckpoint()
		st.ckptWG.Wait()
	}
	commit(2, 20)
	commit(5, 20) // due: the capture at seq 2 cannot rotate
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), walName(2)) {
		t.Fatalf("Err() = %v, want the failed rotation to %s", err, walName(2))
	}
	if s := st.Stats(); s.Checkpoints != 0 || s.SnapshotSeq != 0 {
		t.Fatalf("stats %+v: a checkpoint counted that never ran", s)
	}
	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	commit(5, 1) // logged, then the retried checkpoint at seq 3 succeeds
	if err := st.Err(); err != nil {
		t.Fatalf("Err() = %v after a checkpoint succeeded", err)
	}
	if s := st.Stats(); s.Seq != 3 || s.SnapshotSeq != 3 || s.Checkpoints != 1 || s.LastCapture <= 0 ||
		s.LastEncode <= 0 || s.LastSync <= 0 || s.LastInstall <= 0 || s.LastEncode+s.LastSync+s.LastInstall > s.LastCheckpoint {
		t.Fatalf("stats %+v, want seq and snapshot seq 3 after one checkpoint with its capture and phases timed", s)
	}
	commit(7, 20)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rec.Session.Violations()); rec.Seq != 4 || got != fmt.Sprint(sess.Violations()) {
		t.Fatalf("recovered %s at seq %d, live store is %v at 4", got, rec.Seq, sess.Violations())
	}
	if got, want := fingerprint(rec.Session.Graph()), fingerprint(sess.Graph()); got != want {
		t.Fatalf("recovered graph:\n%s\nwant:\n%s", got, want)
	}
}

// TestRotationSyncsTheOldSegmentFirst: recovery accepts a torn tail only on
// the last segment, so with NoSync a rotation must make the old segment
// durable before it creates the next one. An fsync that fails (here on a
// closed file) therefore fails the capture, and leaves no new segment.
func TestRotationSyncsTheOldSegmentFirst(t *testing.T) {
	sess, rules := itemSession()
	val := sess.Graph().Symbols().Attr("val")
	dir := t.TempDir()
	st, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(sess, rules, nil); err != nil {
		t.Fatal(err)
	}
	sess.CommitBatch(nil, []graph.AttrOp{{Node: 2, Attr: val, Val: graph.Int(20)}})
	st.wal.f.Close()
	if err := st.Checkpoint(); err == nil || !strings.Contains(err.Error(), "wal sync") {
		t.Fatalf("Checkpoint() = %v, want the old segment's failed fsync", err)
	}
	if _, err := os.Stat(filepath.Join(dir, walName(1))); !os.IsNotExist(err) {
		t.Fatalf("%s exists after the old segment failed to sync (%v)", walName(1), err)
	}
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), "wal sync") {
		t.Fatalf("Err() = %v, want the failed fsync", err)
	}
	st.Close()
}

// TestCrashInsideTheCheckpointRecovers: a crash after the capture rotated
// the WAL but before its job wrote the snapshot leaves the old snapshot,
// the whole old segment and a new segment whose last record may be torn.
// Recovery replays both segments up to the tear.
func TestCrashInsideTheCheckpointRecovers(t *testing.T) {
	sess, rules := itemSession()
	g := sess.Graph()
	val := g.Symbols().Attr("val")
	dir := t.TempDir()
	st, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(sess, rules, nil); err != nil {
		t.Fatal(err)
	}
	set := func(n graph.NodeID, v int64) {
		sess.CommitBatch(nil, []graph.AttrOp{{Node: n, Attr: val, Val: graph.Int(v)}})
	}
	set(2, 20)
	set(5, 20)
	st.ckptBusy.Store(true)
	if _, err := st.captureCheckpoint(); err != nil { // the job never runs
		t.Fatal(err)
	}
	set(5, 1)
	image, vios := fingerprint(g), fmt.Sprint(sess.Violations())
	set(7, 20)

	// the crash tears the last record of the new segment
	tail := filepath.Join(dir, walName(2))
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	unlockDir(st.lock)

	_, rec, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq != 0 || rec.Seq != 3 || !rec.Truncated {
		t.Fatalf("recovered %+v, want snapshot 0 replayed to seq 3 with the torn record dropped", rec)
	}
	if got := fmt.Sprint(rec.Session.Violations()); got != vios {
		t.Fatalf("recovered %s, want %s", got, vios)
	}
	if got := fingerprint(rec.Session.Graph()); got != image {
		t.Fatalf("recovered graph:\n%s\nwant:\n%s", got, image)
	}
}
