// Package store makes serving sessions durable: a versioned binary
// snapshot codec for the graph (nodes, labels, typed attributes,
// adjacency, the external-id map, the rules and the live violation store)
// plus a write-ahead log of normalized update batches, with crash recovery
// that costs time proportional to the WAL suffix rather than to a full
// re-ingest and batch detection run.
//
// The durability protocol is write-ahead with periodic checkpoints:
//
//   - Every session commit first appends its batch — the arriving nodes
//     and the normalized ΔG — to the current WAL segment (the session's
//     commit hook fires before the in-place Apply). Records are
//     length-prefixed and CRC-checked, and are written with a single
//     write() each, so a crash can tear at most the final record.
//   - Every N batches (and at clean shutdown) a checkpoint captures the
//     whole session state into a new snapshot file: the writer forks the
//     graph in O(pages), then the background encodes, fsyncs and renames
//     it into place; once the snapshot is durable, older snapshots and
//     fully-covered WAL segments are pruned.
//   - Recovery (Open on a non-empty directory) loads the newest readable
//     snapshot, restores the session around its persisted violation store
//     (no seeding detection run), and replays the WAL suffix through the
//     session — incremental detection per batch — so the recovered
//     violation store, graph and indexes are identical to those of a
//     process that never died. A torn final record is truncated away; the
//     state then matches the prefix of batches whose appends completed.
//
// Single-writer discipline: a Store attaches to exactly one session, and
// NoteName, Checkpoint, MaybeCheckpoint and the logging hook must all run
// on the goroutine that owns that session (internal/serve's writer).
// Stats is safe from any goroutine.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ngd/internal/core"
	"ngd/internal/dsl"
	"ngd/internal/graph"
	"ngd/internal/session"
)

// Options configure a Store.
type Options struct {
	// CheckpointEvery is the batch cadence of MaybeCheckpoint: a background
	// checkpoint starts once this many batches have been logged since the
	// last one. Default 64. Checkpoints bound recovery time — between them,
	// recovery replays the WAL suffix.
	CheckpointEvery int
	// NoSync disables the fsync after every WAL append. Throughput rises,
	// but batches acknowledged within the OS write-back window before a
	// crash can be lost (the WAL still truncates cleanly; recovered state
	// is a consistent prefix). Snapshots are always fsynced.
	NoSync bool
	// Session configures the session restored by recovery (parallel
	// routing, admission analysis). It should match the options the serving
	// process normally runs with.
	Session session.Options
}

// Stats is a point-in-time summary of a Store.
type Stats struct {
	Seq         uint64 // last batch sequence logged
	SnapshotSeq uint64 // sequence covered by the newest durable snapshot
	Batches     int64  // batches appended since Open/Bootstrap
	WALBytes    int64  // bytes appended to the WAL since Open/Bootstrap
	Checkpoints int64  // checkpoints completed since Open/Bootstrap
	// LastCheckpoint is the wall-clock duration of the most recent
	// checkpoint's encode+fsync+rename+prune phase (zero before the first).
	LastCheckpoint time.Duration
	// LastEncode, LastSync and LastInstall split LastCheckpoint: encoding
	// the snapshot into its temp file; fsyncing it, and closing the WAL
	// segment the capture rotated away from; renaming it into place,
	// fsyncing the directory and pruning what it covers.
	LastEncode, LastSync, LastInstall time.Duration
	// LastCapture is the writer-side wall time of the most recent
	// checkpoint's capture, WAL rotation (and its fsync) included: the
	// commits it stalls.
	LastCapture time.Duration
}

// Recovered reports what Open reconstructed from a non-empty directory.
type Recovered struct {
	// Session is the restored session: snapshot state plus every replayed
	// batch, with the violation store reproduced.
	Session *session.Session
	// Rules is Σ, re-parsed from the DSL text embedded in the snapshot.
	Rules *core.Set
	// Names is the recovered external-id map; hand it to serve.Options.
	Names map[string]graph.NodeID
	// Seq is the last batch sequence recovered (snapshot + replay).
	Seq uint64
	// SnapshotSeq is the sequence the loaded snapshot covered.
	SnapshotSeq uint64
	// Replayed counts WAL batches replayed through the session.
	Replayed int
	// Truncated reports whether a torn WAL tail was found and dropped.
	Truncated bool
	// SnapshotBytes and WALBytes size what recovery read.
	SnapshotBytes int64
	WALBytes      int64
	// SnapshotLoad and WALReplay split the recovery wall time.
	SnapshotLoad time.Duration
	WALReplay    time.Duration
}

// Store manages the durable state of one serving session in one directory:
//
//	snap-<seq>.ngds   snapshot covering batches … seq (atomic rename)
//	wal-<seq>.ngdw    WAL segment holding batches seq+1, seq+2, …
//
// Create with Open; attach a fresh session with Bootstrap when Open found
// nothing to recover.
type Store struct {
	dir  string
	opts Options

	// writer-goroutine state
	sess       *session.Session
	rules      *core.Set
	rulesText  string
	names      nodeNames               // every external id, laid out by node
	pendingExt map[graph.NodeID]string // extIDs of nodes arrived since the last batch
	wal        *walWriter

	ckptBusy atomic.Bool
	ckptWG   sync.WaitGroup

	lock *os.File // held flock on <dir>/LOCK for the Store's lifetime

	mu       sync.Mutex // guards the fields below (Stats reads cross-goroutine)
	seq      uint64
	snapSeq  uint64
	ckptSeq  uint64 // seq at which the last checkpoint was initiated
	batches  int64
	walBytes int64
	ckpts    int64
	ckptDur  time.Duration
	ckptPh   ckptPhases
	capDur   time.Duration
	ckptErr  error
	// walErr latches the first failed WAL append. Once set, no further
	// records are written: a failed (possibly partial) write may have left
	// garbage at the segment tail, and appending after it would strand
	// good records behind a corrupt frame — and a skipped sequence number
	// would break the replay chain outright. With the log frozen, the
	// on-disk tail stays recoverable (truncate-on-torn-tail) and every
	// subsequent commit keeps reporting the error via BatchStats.LogErr.
	walErr error
}

func snapName(seq uint64) string { return fmt.Sprintf("snap-%016d%s", seq, snapSuffix) }
func walName(seq uint64) string  { return fmt.Sprintf("wal-%016d%s", seq, walSuffix) }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var seq uint64
	_, err := fmt.Sscanf(strings.TrimSuffix(name, suffix)[len(prefix):], "%d", &seq)
	return seq, err == nil
}

// Open opens (creating if necessary) the data directory. When it holds a
// recoverable state — at least one readable snapshot — Open recovers:
// loads the newest good snapshot, restores the session, replays the WAL
// suffix through it (truncating a torn tail), installs the logging hook,
// and returns the result. On an empty directory it returns a nil Recovered
// and the caller must Bootstrap a freshly opened session.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 64
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	ok := false
	defer func() {
		if !ok {
			unlockDir(lock)
		}
	}()
	st := &Store{dir: dir, opts: opts, lock: lock, pendingExt: make(map[graph.NodeID]string)}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var snapSeqs, walSeqs []uint64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			_ = os.Remove(filepath.Join(dir, e.Name())) // stray torn snapshot write
			continue
		}
		if seq, ok := parseSeq(e.Name(), "snap-", snapSuffix); ok {
			snapSeqs = append(snapSeqs, seq)
		} else if seq, ok := parseSeq(e.Name(), "wal-", walSuffix); ok {
			walSeqs = append(walSeqs, seq)
		}
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })

	if len(snapSeqs) == 0 {
		if len(walSeqs) > 0 {
			return nil, nil, fmt.Errorf("store: %s holds wal segments but no snapshot; refusing to guess a base state", dir)
		}
		ok = true
		return st, nil, nil
	}

	rec, err := st.recover(snapSeqs, walSeqs)
	if err != nil {
		return nil, nil, err
	}
	ok = true
	return st, rec, nil
}

// recover performs snapshot load + WAL replay. Snapshots are tried newest
// first: an unreadable one (torn by a crash mid-checkpoint before the
// rename, or bit-rotted) falls back to the previous, whose covering WAL
// segments were only pruned after its successor became durable.
func (st *Store) recover(snapSeqs, walSeqs []uint64) (*Recovered, error) {
	rec := &Recovered{}

	var sd *snapshotData
	var snapErr error
	t0 := time.Now()
	for i := len(snapSeqs) - 1; i >= 0 && sd == nil; i-- {
		path := filepath.Join(st.dir, snapName(snapSeqs[i]))
		f, err := os.Open(path)
		if err != nil {
			snapErr = err
			continue
		}
		fi, _ := f.Stat()
		sd, err = readSnapshot(f)
		f.Close()
		if err != nil {
			snapErr = fmt.Errorf("%s: %w", path, err)
			sd = nil
			continue
		}
		if fi != nil {
			rec.SnapshotBytes = fi.Size()
		}
	}
	if sd == nil {
		return nil, fmt.Errorf("store: no readable snapshot in %s: %w", st.dir, snapErr)
	}
	rec.SnapshotSeq = sd.Seq

	rules, err := dsl.ParseRules(strings.NewReader(sd.RulesText))
	if err != nil {
		return nil, fmt.Errorf("store: rules embedded in snapshot: %w", err)
	}
	byName := make(map[string]*core.NGD, len(rules.Rules))
	for _, r := range rules.Rules {
		if _, dup := byName[r.Name]; !dup {
			byName[r.Name] = r
		}
	}
	vios := make([]core.Violation, 0, len(sd.Violations))
	for _, vr := range sd.Violations {
		r, ok := byName[vr.Rule]
		if !ok {
			return nil, fmt.Errorf("store: snapshot violation references unknown rule %q", vr.Rule)
		}
		vios = append(vios, core.Violation{Rule: r, Match: core.Match(vr.Match)})
	}
	sess := session.Restore(sd.G, rules, vios, st.opts.Session)
	rec.SnapshotLoad = time.Since(t0)

	// replay the WAL chain: segments starting at or after the snapshot's
	// seq, in order, each continuing exactly where the previous ended
	t0 = time.Now()
	reached := sd.Seq
	var lastPath string
	var lastScan walScanResult
	for i, ws := range walSeqs {
		if ws < sd.Seq {
			continue // fully covered by the snapshot; prune leftovers later
		}
		if ws != reached {
			return nil, fmt.Errorf("store: wal chain broken: segment %s starts at %d, expected %d",
				walName(ws), ws, reached)
		}
		path := filepath.Join(st.dir, walName(ws))
		res, err := scanWAL(path, func(r *walRecord) error {
			if r.Seq != reached+1 {
				return fmt.Errorf("store: wal record seq %d, expected %d", r.Seq, reached+1)
			}
			if err := st.replayRecord(sess, sd.Names, r); err != nil {
				return err
			}
			reached = r.Seq
			rec.Replayed++
			return nil
		})
		if err != nil {
			return nil, err
		}
		if res.Start != ws {
			return nil, fmt.Errorf("store: wal segment %s says it starts at %d", path, res.Start)
		}
		rec.WALBytes += res.GoodSize
		if res.Truncated {
			if i != len(walSeqs)-1 {
				return nil, fmt.Errorf("store: wal segment %s is corrupt mid-chain (later segments exist)", path)
			}
			rec.Truncated = true
		}
		lastPath, lastScan = path, res
	}
	rec.WALReplay = time.Since(t0)
	rec.Seq = reached

	// reopen the tail segment for further appends (truncating any torn
	// tail), or start a fresh segment if none survived
	if lastPath != "" {
		st.wal, err = openWALForAppend(lastPath, lastScan.Start, lastScan.GoodSize, !st.opts.NoSync)
	} else {
		st.wal, err = createWAL(filepath.Join(st.dir, walName(reached)), reached, !st.opts.NoSync)
	}
	if err != nil {
		return nil, err
	}

	st.seq, st.snapSeq, st.ckptSeq = reached, sd.Seq, sd.Seq
	st.attach(sess, rules, byNode(sd.Names, sess.Graph().NumNodes()))
	rec.Session, rec.Rules, rec.Names = sess, rules, sd.Names
	return rec, nil
}

// replayRecord applies one logged batch: node arrivals first (exactly as
// the serving layer applied them before the original commit), then the
// normalized ΔG through a session commit, which re-runs incremental
// detection and reconciles the violation store.
func (st *Store) replayRecord(sess *session.Session, names map[string]graph.NodeID, r *walRecord) error {
	g := sess.Graph()
	var arrived []graph.AttrOp
	for _, nr := range r.Nodes {
		v := g.AddNode(nr.Label)
		if v != nr.Node {
			return fmt.Errorf("store: replay node id drift: logged %d, graph assigned %d", nr.Node, v)
		}
		for _, a := range nr.Attrs {
			arrived = append(arrived, graph.AttrOp{Node: v, Attr: g.Symbols().Attr(a.Name), Val: a.Val})
		}
		if nr.ExtID != "" {
			names[nr.ExtID] = v
		}
	}
	g.ApplyAttrs(arrived)
	d := &graph.Delta{}
	for _, op := range r.Ops {
		l := g.Symbols().Label(op.Label)
		if op.Insert {
			d.Insert(op.Src, op.Dst, l)
		} else {
			d.Delete(op.Src, op.Dst, l)
		}
	}
	var attrs []graph.AttrOp
	for _, a := range r.AttrOps {
		attrs = append(attrs, graph.AttrOp{
			Node: a.Node, Attr: g.Symbols().Attr(a.Name), Val: a.Val,
		})
	}
	bs := sess.CommitBatch(d, attrs)
	if bs.LogErr != nil {
		return bs.LogErr // cannot happen: the hook is installed after replay
	}
	return nil
}

// Bootstrap attaches a freshly opened session (first boot: Open returned a
// nil Recovered) and makes its current state durable: a seq-0 snapshot of
// the seeded session is written synchronously, the first WAL segment is
// created, and the logging hook is installed so every subsequent commit is
// write-ahead logged. names may be nil; the store lays it out once, and
// learns of later bindings through NoteName.
func (st *Store) Bootstrap(sess *session.Session, rules *core.Set, names map[string]graph.NodeID) error {
	if st.sess != nil {
		return fmt.Errorf("store: already attached to a session")
	}
	st.rulesText = dsl.FormatRules(rules)
	sd := &snapshotData{Seq: 0, G: sess.Graph(), RulesText: st.rulesText}
	nn := byNode(names, sd.G.NumNodes())
	if _, err := st.writeSnapshotFile(sd, nn, storeVios(sess.Snapshot())); err != nil {
		return err
	}
	w, err := createWAL(filepath.Join(st.dir, walName(0)), 0, !st.opts.NoSync)
	if err != nil {
		return err
	}
	st.wal = w
	st.attach(sess, rules, nn)
	return nil
}

// attach wires the store to its session: from here on every commit is
// logged through the session's commit hook.
func (st *Store) attach(sess *session.Session, rules *core.Set, names nodeNames) {
	st.sess, st.rules, st.names = sess, rules, names
	if st.rulesText == "" {
		st.rulesText = dsl.FormatRules(rules)
	}
	sess.SetCommitHook(st.logBatch)
}

// NoteName records that the serving layer bound external id to node v,
// which arrived since the last commit; the binding rides in the next batch
// record and in every later snapshot. A binding for a node that was there
// before is not recorded: no batch record could carry it. Wire it to
// serve.Options.OnNewNode, which binds ids to new nodes only.
func (st *Store) NoteName(id string, v graph.NodeID) {
	if st.names.add(id, v) {
		st.pendingExt[v] = id
	}
}

// logBatch is the session commit hook: it renders the arriving nodes, the
// normalized ΔG and the batch's attribute ops into one WAL record and
// appends it (write-ahead: the session has not yet mutated the graph).
// Batches with no effect are not logged. Runs on the writer goroutine.
func (st *Store) logBatch(g *graph.Graph, norm *graph.Delta, attrs []graph.AttrOp, lo, hi graph.NodeID) error {
	rec := &walRecord{}
	for v := lo; v < hi; v++ {
		nr := nodeRec{Node: v, ExtID: st.pendingExt[v], Label: g.LabelName(v)}
		g.Attrs(v, func(a graph.AttrID, val graph.Value) {
			nr.Attrs = append(nr.Attrs, nodeAttr{Name: g.Symbols().AttrName(a), Val: val})
		})
		rec.Nodes = append(rec.Nodes, nr)
	}
	clear(st.pendingExt)
	for _, op := range norm.Ops {
		rec.Ops = append(rec.Ops, opRec{
			Insert: op.Insert, Src: op.Src, Dst: op.Dst,
			Label: g.Symbols().LabelName(op.Label),
		})
	}
	for _, op := range attrs {
		rec.AttrOps = append(rec.AttrOps, attrRec{
			Node: op.Node, Name: g.Symbols().AttrName(op.Attr), Val: op.Val,
		})
	}
	if rec.empty() {
		return nil
	}

	st.mu.Lock()
	if err := st.walErr; err != nil {
		st.mu.Unlock()
		return err
	}
	rec.Seq = st.seq + 1
	st.mu.Unlock()

	before := st.wal.n
	if err := st.wal.append(rec); err != nil {
		st.mu.Lock()
		st.walErr = err
		st.mu.Unlock()
		return err
	}
	st.mu.Lock()
	st.seq = rec.Seq // advance only on a durable append: no gaps, ever
	st.batches++
	st.walBytes += st.wal.n - before
	st.mu.Unlock()
	return nil
}

// MaybeCheckpoint starts a background checkpoint if CheckpointEvery
// batches have been logged since the last one and none is in flight. Call
// it from the writer goroutine after commits (serve.Options.AfterCommit).
func (st *Store) MaybeCheckpoint() {
	if st.sess == nil {
		return
	}
	st.mu.Lock()
	due := st.seq >= st.ckptSeq+uint64(st.opts.CheckpointEvery)
	st.mu.Unlock()
	if !due || !st.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	_ = st.startCheckpoint(true) // a failure is in Err
}

// Checkpoint captures the attached session's current state into a new
// snapshot synchronously: it waits for any in-flight background checkpoint,
// then encodes, fsyncs, renames, and prunes before returning. Call it from
// the writer goroutine, or after the serving layer has shut down.
func (st *Store) Checkpoint() error {
	if st.sess == nil {
		return fmt.Errorf("store: no session attached")
	}
	st.ckptWG.Wait()
	if !st.ckptBusy.CompareAndSwap(false, true) {
		return fmt.Errorf("store: checkpoint already in flight")
	}
	return st.startCheckpoint(false)
}

// startCheckpoint captures the session state and writes it out, in the
// background when async. st.ckptBusy is held on entry and released when the
// job finishes.
func (st *Store) startCheckpoint(async bool) error {
	job, err := st.captureCheckpoint()
	if err != nil {
		st.ckptBusy.Store(false)
		return err
	}
	if async {
		st.ckptWG.Add(1)
		go func() {
			defer st.ckptWG.Done()
			_ = job()
		}()
		return nil
	}
	return job()
}

// captureCheckpoint rotates the WAL at the current seq and captures the
// session state on the calling (writer) goroutine, stalling commits for
// four steps: the old WAL segment is fsynced (with NoSync, the records
// since the last rotation) and the new one created, the graph forked in
// O(pages) (graph.Clone), and the name layout's current length and the
// session's current snapshot (epochs are immutable) recorded. The returned
// job closes the old segment, encodes, fsyncs, renames and prunes, then
// releases the fork; commits that land before it runs are not in the file
// it writes. A failure, of the capture or of the job, is recorded in
// ckptErr and rolls the cadence marker back so the next commit retries
// instead of waiting another full CheckpointEvery window.
func (st *Store) captureCheckpoint() (job func() error, err error) {
	t0 := time.Now()
	st.mu.Lock()
	seq := st.seq
	st.ckptSeq = seq
	st.mu.Unlock()
	fail := func(err error) error {
		st.mu.Lock()
		st.ckptErr = err
		if st.ckptSeq == seq {
			st.ckptSeq = st.snapSeq
		}
		st.mu.Unlock()
		return err
	}

	// rotate: subsequent appends go to wal-<seq>. Recovery accepts a torn
	// tail only on the last segment, so the old one is made durable before
	// the new one can receive a record; the new one is created before the
	// old is let go, so that a failure leaves appends where they were. The
	// old segment is pruned only after the snapshot is durable, so a crash
	// mid-checkpoint recovers from the previous snapshot plus the full
	// chain.
	var old *walWriter
	if st.wal.start != seq {
		if !st.wal.sync {
			if err := st.wal.fsync(); err != nil {
				return nil, fail(fmt.Errorf("store: checkpoint at seq %d: %w", seq, err))
			}
		}
		w, err := createWAL(filepath.Join(st.dir, walName(seq)), seq, !st.opts.NoSync)
		if err != nil {
			return nil, fail(fmt.Errorf("store: checkpoint at seq %d: %w", seq, err))
		}
		old, st.wal = st.wal, w
	}

	sd := &snapshotData{Seq: seq, G: st.sess.Graph().Clone(), RulesText: st.rulesText}
	names, vios := st.names, storeVios(st.sess.Snapshot())
	st.mu.Lock()
	st.capDur = time.Since(t0)
	st.mu.Unlock()

	return func() error {
		defer st.ckptBusy.Store(false)
		defer sd.G.Release()
		t0 := time.Now()
		if old != nil {
			if err := old.close(); err != nil {
				return fail(err)
			}
		}
		closed := time.Since(t0)
		ph, err := st.writeSnapshotFile(sd, names, vios)
		if err != nil {
			return fail(err)
		}
		t1 := time.Now()
		st.prune(seq)
		ph.sync += closed
		ph.install += time.Since(t1)
		st.mu.Lock()
		st.snapSeq = seq
		st.ckpts++
		st.ckptDur = time.Since(t0)
		st.ckptPh = ph
		st.ckptErr = nil // durability restored; stop reporting the stale failure
		st.mu.Unlock()
		return nil
	}, nil
}

// ckptPhases split a checkpoint job's wall time (see Stats.LastEncode).
type ckptPhases struct{ encode, sync, install time.Duration }

// writeSnapshotFile encodes sd, names and vios to a temp file in the data
// directory, fsyncs it, and atomically renames it into place, timing the
// three.
func (st *Store) writeSnapshotFile(sd *snapshotData, names nodeNames, vios vioSeq) (ckptPhases, error) {
	final := filepath.Join(st.dir, snapName(sd.Seq))
	tmp := final + tmpSuffix
	t0 := time.Now()
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return ckptPhases{}, err
	}
	if err := writeSnapshot(f, sd, names, vios); err != nil {
		f.Close()
		os.Remove(tmp)
		return ckptPhases{}, err
	}
	t1 := time.Now()
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return ckptPhases{}, err
	}
	t2 := time.Now()
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return ckptPhases{}, err
	}
	err = syncDir(st.dir)
	return ckptPhases{t1.Sub(t0), t2.Sub(t1), time.Since(t2)}, err
}

// prune removes snapshots and WAL segments made redundant by the durable
// snapshot at seq. Best-effort: a leftover file is re-pruned by the next
// checkpoint, and recovery skips fully-covered segments anyway.
func (st *Store) prune(seq uint64) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if s, ok := parseSeq(e.Name(), "snap-", snapSuffix); ok && s < seq {
			_ = os.Remove(filepath.Join(st.dir, e.Name()))
		} else if s, ok := parseSeq(e.Name(), "wal-", walSuffix); ok && s < seq {
			_ = os.Remove(filepath.Join(st.dir, e.Name()))
		}
	}
	_ = syncDir(st.dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats summarizes the store. Safe from any goroutine.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return Stats{
		Seq:            st.seq,
		SnapshotSeq:    st.snapSeq,
		Batches:        st.batches,
		WALBytes:       st.walBytes,
		Checkpoints:    st.ckpts,
		LastCheckpoint: st.ckptDur,
		LastEncode:     st.ckptPh.encode,
		LastSync:       st.ckptPh.sync,
		LastInstall:    st.ckptPh.install,
		LastCapture:    st.capDur,
	}
}

// Err reports the store's durability health: a latched WAL append
// failure (fatal: no further batches are logged; see logBatch), or the
// most recent checkpoint failure (transient: cleared when a later
// checkpoint succeeds; the WAL keeps growing and keeps recovery correct
// meanwhile). A serving process should surface it — cmd/ngdserve logs it
// after each commit and reports it in /stats.
func (st *Store) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.walErr != nil {
		return st.walErr
	}
	return st.ckptErr
}

// Close waits for any in-flight checkpoint, closes the WAL segment (with
// a final fsync) and releases the directory lock. It does not checkpoint;
// call Checkpoint first for a replay-free next boot.
func (st *Store) Close() error {
	st.ckptWG.Wait()
	var err error
	if st.wal != nil {
		err = st.wal.close()
	}
	if e := st.Err(); err == nil {
		err = e
	}
	unlockDir(st.lock)
	st.lock = nil
	return err
}
