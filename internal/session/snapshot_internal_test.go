package session

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/sorted"
)

// The reference the store is checked against: a plain map, rendered by
// sorting and by naive filters. Nothing here shares code with sorted.Run,
// Snapshot.advance or the snapshot's lookups.

const refIDs = 3 << dirShift // three posting directories

type refStore map[string]core.Violation

// render lists, by key and in key order, the whole store, every rule's
// share and every node's postings — everything a Snapshot answers.
func (m refStore) render(names []string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintln(&b, "all", keys)
	for _, name := range names {
		var ks []string
		for _, k := range keys {
			if m[k].Rule.Name == name {
				ks = append(ks, k)
			}
		}
		fmt.Fprintln(&b, "rule", name, ks)
	}
	byNode := make([][]string, refIDs)
	for _, k := range keys {
		for i, n := range m[k].Match {
			if !slices.Contains(m[k].Match[:i], n) {
				byNode[n] = append(byNode[n], k)
			}
		}
	}
	for n, ks := range byNode {
		if ks != nil {
			fmt.Fprintln(&b, "node", n, ks)
		}
	}
	return b.String()
}

func keysOf(vios []core.Violation) []string {
	var ks []string
	for _, v := range vios {
		ks = append(ks, v.Key())
	}
	return ks
}

// renderSnapshot is refStore.render read off a Snapshot's own accessors; it
// also checks Get/Has against Violations.
func renderSnapshot(t *testing.T, sn *Snapshot, names []string) string {
	t.Helper()
	var b strings.Builder
	all := slices.Collect(sn.All().Records())
	keys := recordKeys(t, sn, all)
	fmt.Fprintln(&b, "all", keys)
	if sn.Len() != len(keys) || !slices.Equal(keys, keysOf(sn.Violations())) {
		t.Fatalf("epoch %d: Len %d, %d keys paged beside %v", sn.Epoch, sn.Len(), len(keys), keysOf(sn.Violations()))
	}
	for _, k := range all {
		if got, ok := sn.Get(k.Key); !ok || got.Rule != k.Rule || !slices.Equal(got.Match, k.Match) || !sn.Has(k.Key) {
			t.Fatalf("epoch %d: Get(%s) = %v, %v", sn.Epoch, k.Key, got, ok)
		}
	}
	for _, name := range names {
		fmt.Fprintln(&b, "rule", name, recordKeys(t, sn, slices.Collect(sn.All().Rule(name).Records())))
	}
	for n := graph.NodeID(0); n < refIDs; n++ {
		if ks := keysOf(sn.Node(n)); ks != nil {
			fmt.Fprintln(&b, "node", n, ks)
		}
	}
	return b.String()
}

// recordKeys lists the records' keys, checking each against its violation.
func recordKeys(t *testing.T, sn *Snapshot, recs []*core.Keyed) []string {
	t.Helper()
	var ks []string
	for _, k := range recs {
		if k.Key != k.Violation.Key() {
			t.Fatalf("epoch %d: record %s holds %s", sn.Epoch, k.Key, k.Violation.Key())
		}
		ks = append(ks, k.Key)
	}
	return ks
}

// sortedRecords is vs as a key-sorted run of fresh records.
func sortedRecords(vs ...core.Violation) run {
	r := make(run, len(vs))
	for i, v := range vs {
		r[i] = &core.Keyed{Key: v.Key(), Violation: v}
	}
	slices.SortFunc(r, (*core.Keyed).Cmp)
	return r
}

// checkChunks asserts the two-level array's invariants: chunks non-empty,
// within the bound, key-sorted across the whole store, none under a quarter
// of the bound unless it is the only one, and first/offs/Len in step.
func checkChunks(t *testing.T, sn *Snapshot) {
	t.Helper()
	c := sn.all
	chunks := c.Chunks()
	n, last := 0, ""
	var flat []*core.Keyed
	for i, ch := range chunks {
		if len(ch) == 0 || len(ch) > sorted.Bound {
			t.Fatalf("epoch %d: chunk %d holds %d records", sn.Epoch, i, len(ch))
		}
		if len(chunks) > 1 && len(ch) < sorted.Bound/4 {
			t.Fatalf("epoch %d: chunk %d of %d was left with %d entries", sn.Epoch, i, len(chunks), len(ch))
		}
		if c.At(n) != ch[0] {
			t.Fatalf("epoch %d: chunk %d starts at %d, the top level disagrees", sn.Epoch, i, n)
		}
		for j, k := range ch {
			if k.Key <= last || k.Violation.Key() != k.Key {
				t.Fatalf("epoch %d: chunk %d entry %d: key %q after %q, violation %s", sn.Epoch, i, j, k.Key, last, k.Violation.Key())
			}
			last = k.Key
		}
		n += len(ch)
		flat = append(flat, ch...)
	}
	if c.Len() != n {
		t.Fatalf("epoch %d: Len %d, chunks hold %d", sn.Epoch, c.Len(), n)
	}
	// Records walks the chunks in place and Last reads the record a page
	// ends on: the whole store, and stretches that start and end inside
	// chunks, paged whole, to one entry and to a chunk and a half
	for _, r := range []Range{sn.All(), {c, n / 3, 2 * n / 3}} {
		if got := slices.Collect(r.Records()); !slices.Equal(got, flat[r.lo:r.hi]) {
			t.Fatalf("epoch %d: Records over [%d, %d) yields %d records, want %d", sn.Epoch, r.lo, r.hi, len(got), r.Len())
		}
		for _, limit := range []int{-1, 0, 1, sorted.Bound * 3 / 2} {
			n := r.Len()
			if limit >= 0 {
				n = min(limit, n)
			}
			var last *core.Keyed
			if n > 0 {
				last = flat[r.lo+n-1]
			}
			if p := r.Page(limit); p.lo != r.lo || p.Len() != n || p.Last() != last {
				t.Fatalf("epoch %d: Page(%d) over [%d, %d) is [%d, %d)", sn.Epoch, limit, r.lo, r.hi, p.lo, p.hi)
			}
		}
	}
}

// checkRadix asserts that the posting radix holds no empty level: every
// directory in the top table has a leaf, and every leaf a posting.
func checkRadix(t *testing.T, sn *Snapshot) {
	t.Helper()
	for i, d := range sn.byNode {
		if d == nil {
			continue
		}
		if *d == (dir{}) {
			t.Fatalf("epoch %d: directory %d holds no leaf", sn.Epoch, i)
		}
		for j, l := range d {
			if l != nil && !slices.ContainsFunc(l[:], func(p []*core.Keyed) bool { return len(p) > 0 }) {
				t.Fatalf("epoch %d: leaf %d of directory %d holds no posting", sn.Epoch, j, i)
			}
		}
	}
}

// TestAdvanceMatchesMapReference drives the store's whole write path —
// Has/add/remove against "last snapshot + the commit's delta", then publish
// — with random commits and compares every epoch, and every earlier epoch
// again after each later commit, with the map reference — on a store of one
// chunk, and on one of several with commits aimed at the chunk structure.
func TestAdvanceMatchesMapReference(t *testing.T) {
	t.Run("one-chunk", func(t *testing.T) { advanceAgainstReference(t, false, 120, false) })
	t.Run("chunked", func(t *testing.T) { advanceAgainstReference(t, true, 10, true) })
}

// advanceAgainstReference runs the random stream for the given number of
// commits over node ids on the edges of the posting radix, in three of its
// directories (spread: at every slot of the edge leaves, not only their
// first and last); structural adds the seeding and the commits that
// overflow, empty, behead and shrink chunks.
func advanceAgainstReference(t *testing.T, spread bool, steps int, structural bool) {
	// names that are prefixes of one another: Rule must not confuse them.
	// The random stream uses the first four; a0, aa and zz sort before, amid
	// and after them, for the commits that aim at one chunk.
	names := []string{"a", "a1", "ab", "b", "a0", "aa", "zz", "none"}
	rules := make([]*core.NGD, 7)
	for i := range rules {
		rules[i] = &core.NGD{Name: names[i]}
	}
	rng := rand.New(rand.NewSource(15))
	// edge is a node id of directory d in its first, second or last leaf,
	// at the leaf's first or last slot (or any slot, when spread): few ids,
	// so long postings and repeated nodes
	edge := func(d int) graph.NodeID {
		slot := []int{0, leafSize - 1}[rng.Intn(2)]
		if spread && rng.Intn(2) == 0 {
			slot = rng.Intn(leafSize)
		}
		return graph.NodeID(d<<dirShift | []int{0, 1, dirSize - 1}[rng.Intn(3)]<<leafBits | slot)
	}
	// randVio binds a node of directory d first, and may bind nodes of the
	// other directories after it
	randVio := func(d int) core.Violation {
		m := core.Match{edge(d)}
		for n := rng.Intn(3); n > 0; n-- {
			if rng.Intn(3) == 0 {
				d = rng.Intn(3)
			}
			m = append(m, edge(d))
		}
		return core.Violation{Rule: rules[rng.Intn(4)], Match: m}
	}
	// binds reports whether v binds a node in directory d, and in its leaf
	// l when l ≥ 0
	binds := func(v core.Violation, d, l int) bool {
		return slices.ContainsFunc(v.Match, func(n graph.NodeID) bool {
			return int(n)>>dirShift == d && (l < 0 || int(n)>>leafBits&(dirSize-1) == l)
		})
	}

	s := &Session{g: graph.New(), snap: newSnapshot(nil, 0, 0),
		added: map[string]core.Violation{}, removed: map[string]*core.Keyed{}}
	ref := refStore{}
	add := func(v core.Violation) {
		_, had := ref[v.Key()]
		if s.add(v.Key(), v) == had {
			t.Fatalf("add(%s) with had=%v", v.Key(), had)
		}
		ref[v.Key()] = v
	}
	remove := func(v core.Violation) {
		_, had := ref[v.Key()]
		if s.remove(v.Key()) != had {
			t.Fatalf("remove(%s) with had=%v", v.Key(), had)
		}
		delete(ref, v.Key())
	}
	stored := func(pick func(keys []string) string) (core.Violation, bool) {
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		if len(keys) == 0 {
			return core.Violation{}, false
		}
		sort.Strings(keys)
		return ref[pick(keys)], true
	}

	type epoch struct {
		sn   *Snapshot
		want string
	}
	var epochs []epoch
	commit := func(ops func()) {
		t.Helper()
		before := make(refStore, len(ref))
		for k, v := range ref {
			before[k] = v
		}
		prev := s.snap
		ops()
		for k := range before {
			if _, has := ref[k]; s.Has(k) != has {
				t.Fatalf("mid-commit Has(%s) = %v", k, !has)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("mid-commit Len %d, reference %d", s.Len(), len(ref))
		}
		s.commits++
		ev := s.publish()

		// the event is the exact, key-sorted difference of the two epochs
		var wantAdd, wantDel []string
		for k := range ref {
			if _, ok := before[k]; !ok {
				wantAdd = append(wantAdd, k)
			}
		}
		for k := range before {
			if _, ok := ref[k]; !ok {
				wantDel = append(wantDel, k)
			}
		}
		sort.Strings(wantAdd)
		sort.Strings(wantDel)
		added, removed := recordKeys(t, s.snap, ev.Added), recordKeys(t, s.snap, ev.Removed)
		if !slices.Equal(added, wantAdd) || !slices.Equal(removed, wantDel) {
			t.Fatalf("epoch %d event +%v −%v, want +%v −%v", ev.Epoch, added, removed, wantAdd, wantDel)
		}
		if len(wantAdd)+len(wantDel) == 0 && prev.Len() > 0 && &s.snap.all.Chunks()[0][0] != &prev.all.Chunks()[0][0] {
			t.Fatalf("epoch %d: an empty event copied the store", ev.Epoch)
		}
		checkChunks(t, s.snap)
		checkRadix(t, s.snap)
		if s.snap.Epoch != prev.Epoch+1 || s.snap == prev {
			t.Fatalf("epoch %d follows %d", s.snap.Epoch, prev.Epoch)
		}

		epochs = append(epochs, epoch{s.snap, ref.render(names)})
		for _, e := range epochs { // the new epoch, and every frozen one
			if got := renderSnapshot(t, e.sn, names); got != e.want {
				t.Fatalf("epoch %d read at epoch %d:\n%s\nwant:\n%s", e.sn.Epoch, s.snap.Epoch, got, e.want)
			}
		}
	}

	// one commit empties a posting leaf and posts into it again under another id
	v5 := core.Violation{Rule: rules[0], Match: core.Match{5}}
	v7 := core.Violation{Rule: rules[0], Match: core.Match{7}}
	commit(func() { add(v5) })
	commit(func() { remove(v5); add(v7) })
	commit(func() { remove(v7) }) // the store, and the radix, are empty
	commit(func() { add(v5) })

	// the radix's edges: one commit binds the first and last slot of a leaf
	// and of a directory, and violations that span two directories; the
	// next empties the leaf, the one after the whole directory, and a last
	// one posts into it again
	dir1, dir2 := graph.NodeID(1<<dirShift), graph.NodeID(2<<dirShift)
	edges := []core.Violation{
		{Rule: rules[1], Match: core.Match{dir1 + leafSize}},                        // leaf 1's first slot
		{Rule: rules[1], Match: core.Match{dir1 + 2*leafSize - 1, dir1 + leafSize}}, // and its last
		{Rule: rules[2], Match: core.Match{dir1}},                                   // the directory's first slot
		{Rule: rules[2], Match: core.Match{dir2 - 1, dir2}},                         // its last, and directory 2's first
		{Rule: rules[3], Match: core.Match{5, dir2 - 1}},                            // directories 0 and 1
	}
	commit(func() {
		for _, v := range edges {
			add(v)
		}
	})
	commit(func() { remove(edges[0]); remove(edges[1]) })
	if s.snap.byNode[1][1] != nil || s.snap.byNode[1][0] == nil {
		t.Fatalf("emptying leaf 1 of directory 1 left leaves %p and %p", s.snap.byNode[1][0], s.snap.byNode[1][1])
	}
	commit(func() {
		for _, v := range edges[2:] {
			remove(v)
		}
	})
	if s.snap.byNode[1] != nil || s.snap.byNode[2] != nil || s.snap.byNode[0] == nil {
		t.Fatalf("emptying directories 1 and 2 left the top table %v", s.snap.byNode)
	}
	commit(func() { add(edges[3]) })

	if structural {
		structuralCommits(t, s, commit, add, remove, rules)
	}

	for step := 0; step < steps; step++ {
		commit(func() {
			switch step % 10 {
			case 0: // empty event
				return
			case 1: // first and last entry of the run
				if v, ok := stored(func(ks []string) string { return ks[0] }); ok {
					remove(v)
				}
				if v, ok := stored(func(ks []string) string { return ks[len(ks)-1] }); ok {
					remove(v)
				}
				return
			case 2: // empty one whole directory, then add into it
				for _, v := range ref {
					if binds(v, 1, -1) {
						remove(v)
					}
				}
				add(randVio(1))
				return
			case 3: // empty directory 2's last leaf (checkRadix: it goes)
				for _, v := range ref {
					if binds(v, 2, dirSize-1) {
						remove(v)
					}
				}
				return
			}
			for n := rng.Intn(12); n > 0; n-- {
				v := randVio(rng.Intn(3))
				switch rng.Intn(9) {
				case 0: // add then remove inside the commit: nets to nothing new
					add(v)
					remove(v)
				case 1: // remove then re-add a stored one: nets to nothing
					if w, ok := stored(func(ks []string) string { return ks[rng.Intn(len(ks))] }); ok {
						remove(w)
						add(w)
					}
				case 2, 3:
					if w, ok := stored(func(ks []string) string { return ks[rng.Intn(len(ks))] }); ok {
						remove(w)
					}
					remove(v) // mostly absent
				default:
					add(v)
				}
			}
		})
	}
	if len(ref) < 20 {
		t.Fatalf("the stream left only %d violations stored", len(ref))
	}

	// the boot path is the same constructor: an unordered list with a
	// repeated entry gives the snapshot the commits arrived at
	var list []core.Violation
	for _, v := range ref {
		list = append(list, v)
	}
	list = append(list, list[0])
	if got, want := renderSnapshot(t, newSnapshot(list, 0, 0), names), ref.render(names); got != want {
		t.Fatalf("newSnapshot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPostingsShareOneRecordPerViolation drives advance with random deltas
// and checks at every epoch that each stored violation is one record: the
// same *core.Keyed in the store's chunks and in the posting of every
// distinct node of its match, and the same one as long as it stays stored.
// Every posting is strictly key-sorted and lists what the map reference
// lists, and every earlier epoch's chunks and postings still hold the
// records they held when published.
func TestPostingsShareOneRecordPerViolation(t *testing.T) {
	rules := []*core.NGD{{Name: "a"}, {Name: "a1"}, {Name: "b"}}
	rng := rand.New(rand.NewSource(36))
	randVio := func() core.Violation {
		m := make(core.Match, 1+rng.Intn(3))
		for i := range m {
			m[i] = graph.NodeID(rng.Intn(3)<<dirShift + rng.Intn(10)*(leafSize-1)) // repeats within a match too
		}
		return core.Violation{Rule: rules[rng.Intn(len(rules))], Match: m}
	}
	ref := refStore{}
	seed := make([]core.Violation, 40)
	for i := range seed {
		seed[i] = randVio()
		ref[seed[i].Key()] = seed[i]
	}

	type frozen struct {
		sn       *Snapshot
		all      []*core.Keyed                  // a copy of the chunks' records as published
		postings map[graph.NodeID][]*core.Keyed // copies of the slices published
	}
	var epochs []frozen
	var last map[string]*core.Keyed
	check := func(sn *Snapshot) {
		t.Helper()
		recs := make(map[string]*core.Keyed)
		posted := make(map[graph.NodeID][]*core.Keyed)
		want := make(map[graph.NodeID][]string)
		for k, v := range ref {
			for i, n := range v.Match {
				if !slices.Contains(v.Match[:i], n) {
					want[n] = append(want[n], k)
				}
			}
		}
		all := slices.Collect(sn.All().Records())
		for _, k := range all {
			if v, ok := ref[k.Key]; !ok || k.Rule != v.Rule || !slices.Equal(k.Match, v.Match) || k.Violation.Key() != k.Key {
				t.Fatalf("epoch %d: stored record %s (violation %s) is not a stored violation", sn.Epoch, k.Key, k.Violation.Key())
			}
			recs[k.Key] = k
		}
		if len(recs) != len(ref) || len(all) != len(ref) {
			t.Fatalf("epoch %d: %d records (%d distinct) stored for %d violations", sn.Epoch, len(all), len(recs), len(ref))
		}
		for n := graph.NodeID(0); n < refIDs; n++ {
			p := sn.Posting(n)
			var ks []string
			for i, k := range p {
				if i > 0 && p[i-1].Key >= k.Key {
					t.Fatalf("epoch %d node %d: %s after %s", sn.Epoch, n, k.Key, p[i-1].Key)
				}
				if recs[k.Key] != k {
					t.Fatalf("epoch %d node %d: posts a record for %s that the store's chunks do not hold", sn.Epoch, n, k.Key)
				}
				ks = append(ks, k.Key)
			}
			sort.Strings(want[n])
			if !slices.Equal(ks, want[n]) {
				t.Fatalf("epoch %d node %d: posting %v, want %v", sn.Epoch, n, ks, want[n])
			}
			if len(p) > 0 {
				posted[n] = slices.Clone(p)
			}
		}
		for k, r := range recs {
			if was, ok := last[k]; ok && was != r {
				t.Fatalf("epoch %d: %s stayed stored but its record was replaced", sn.Epoch, k)
			}
		}
		last = recs
		epochs = append(epochs, frozen{sn, all, posted})
		for _, e := range epochs {
			if got := slices.Collect(e.sn.All().Records()); !slices.Equal(got, e.all) {
				t.Fatalf("epoch %d read at epoch %d: stores %d records, published %d", e.sn.Epoch, sn.Epoch, len(got), len(e.all))
			}
			for n := graph.NodeID(0); n < refIDs; n++ {
				if got := e.sn.Posting(n); !slices.Equal(got, e.postings[n]) {
					t.Fatalf("epoch %d read at epoch %d: node %d posts %d records, published %d", e.sn.Epoch, sn.Epoch, n, len(got), len(e.postings[n]))
				}
			}
			for _, k := range e.all {
				if k.Key != k.Violation.Key() {
					t.Fatalf("epoch %d read at epoch %d: record %s now holds %s", e.sn.Epoch, sn.Epoch, k.Key, k.Violation.Key())
				}
			}
		}
	}

	sn := newSnapshot(seed, 0, 0)
	check(sn)
	for step := 0; step < 60; step++ {
		var adds []core.Violation
		for n := rng.Intn(10); n > 0; n-- {
			v := randVio()
			if _, ok := ref[v.Key()]; !ok {
				adds = append(adds, v)
				ref[v.Key()] = v
			}
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			if sn.Has(k) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var del run
		for n := rng.Intn(8); n > 0 && len(keys) > 0; n-- {
			i := rng.Intn(len(keys))
			del = append(del, sn.record(keys[i])) // publish names a removal by its stored record
			delete(ref, keys[i])
			keys = slices.Delete(keys, i, i+1)
		}
		slices.SortFunc(del, (*core.Keyed).Cmp)
		sn = sn.advance(sortedRecords(adds...), del, 0, 0)
		check(sn)
	}
	if len(ref) < 20 {
		t.Fatalf("the stream left only %d violations stored", len(ref))
	}
}

// structuralCommits seeds the store past four chunk bounds and then aims one
// commit at each thing a chunk can do: overflow (at the front, in the middle
// and at the end of the key space), empty, lose its first key, and fall
// under the coalescing threshold with a left neighbour and without one.
func structuralCommits(t *testing.T, s *Session, commit func(func()), add, remove func(core.Violation), rules []*core.NGD) {
	t.Helper()
	chunks := func() [][]*core.Keyed { return s.snap.all.Chunks() }
	block := func(rule *core.NGD, n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				add(core.Violation{Rule: rule, Match: core.Match{graph.NodeID(i % refIDs), graph.NodeID(i / refIDs)}})
			}
		}
	}
	drop := func(ch run, from, to int) {
		for _, k := range ch[from:to] {
			remove(k.Violation)
		}
	}

	commit(block(rules[1], 4*sorted.Bound+sorted.Bound/2)) // boot-sized add into a one-entry store
	if n := len(chunks()); n < 5 {
		t.Fatalf("seeding left %d chunks", n)
	}
	for _, rule := range rules[4:7] { // a0: before chunk 0; aa: inside the run; zz: past the end
		n := len(chunks())
		commit(block(rule, sorted.Bound+sorted.Bound/2))
		if len(chunks()) <= n {
			t.Fatalf("%d entries of rule %s did not split a chunk: %d chunks, then %d", sorted.Bound+sorted.Bound/2, rule.Name, n, len(chunks()))
		}
	}

	n, third := len(chunks()), chunks()[3][0].Key
	commit(func() { drop(chunks()[2], 0, len(chunks()[2])) })
	if len(chunks()) != n-1 || chunks()[2][0].Key != third {
		t.Fatalf("emptying chunk 2 of %d left %d, chunk 2 starting at %s", n, len(chunks()), chunks()[2][0].Key)
	}

	second := chunks()[1][1].Key
	commit(func() { drop(chunks()[1], 0, 1) })
	if got := s.snap.all.Chunks()[1][0].Key; got != second {
		t.Fatalf("chunk 1 lost its first key and starts at %s, want %s", got, second)
	}

	// under the threshold in the middle (joins its left neighbour), then at
	// the front (rides into its right one); checkChunks sees no runt either way
	for _, ci := range []int{2, 0} {
		total := s.snap.Len()
		commit(func() { drop(chunks()[ci], sorted.Bound/8, len(chunks()[ci])) })
		if total-s.snap.Len() < sorted.Bound/8 {
			t.Fatalf("chunk %d was too small to shrink: store went %d → %d", ci, total, s.snap.Len())
		}
	}
	// a delete-heavy stream: every chunk down to one entry in one commit
	commit(func() {
		for _, ch := range chunks() {
			drop(ch, 1, len(ch))
		}
	})
	if got, most := len(chunks()), 1+s.snap.Len()/(sorted.Bound/4); got > most {
		t.Fatalf("one entry of every chunk was left as %d chunks of %d entries", got, s.snap.Len())
	}
	commit(block(rules[5], 2*sorted.Bound)) // and grow back
}

// capStore is a snapshot of n one-node violations cap:0 … cap:n−1, and the
// run of the sixteen BenchmarkSnapshotAdvance flips (cap:0 … cap:15).
func capStore(n int) (*Snapshot, run) {
	rule := &core.NGD{Name: "cap"}
	vios := make([]core.Violation, n)
	for i := range vios {
		vios[i] = core.Violation{Rule: rule, Match: core.Match{graph.NodeID(i)}}
	}
	sn := newSnapshot(vios, n, 0)
	var flips run
	for _, v := range vios[:16] {
		flips = append(flips, sn.record(v.Key()))
	}
	slices.SortFunc(flips, (*core.Keyed).Cmp)
	return sn, flips
}

// TestAdvanceSharesUntouchedChunks: a one-key delta re-merges the chunk the
// key falls into and nothing else — every other chunk of the next epoch is
// the predecessor's storage.
func TestAdvanceSharesUntouchedChunks(t *testing.T) {
	sn, flips := capStore(8 * sorted.Bound)
	one := flips[7:8:8]
	for _, step := range []struct {
		what     string
		add, del run
	}{{"delete", run{}, one}, {"add", one, run{}}} {
		next := sn.advance(step.add, step.del, sn.Nodes, sn.Edges)
		checkChunks(t, next)
		before, after := sn.all.Chunks(), next.all.Chunks()
		if len(after) != len(before) {
			t.Fatalf("%s of one key: %d chunks, then %d", step.what, len(before), len(after))
		}
		home := 0 // the last chunk starting at or below the key
		for i, ch := range before {
			if ch[0].Key <= one[0].Key {
				home = i
			}
		}
		for i := range after {
			if shared := &after[i][0] == &before[i][0]; shared == (i == home) {
				t.Fatalf("%s of %s (chunk %d): chunk %d shared = %v", step.what, one[0].Key, home, i, shared)
			}
		}
		sn = next
	}
}

// TestPublishIsDeltaSized: the bytes a commit's publish step allocates
// depend on the delta, not on the store — sixteen-key commits on 200k
// violations allocate under twice what they do on 20k (the flat run's copy
// per commit read ≈ 9.5×). A count, not a timing.
func TestPublishIsDeltaSized(t *testing.T) {
	perCommit := func(size int) float64 {
		sn, flips := capStore(size)
		const commits = 32
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < commits; i++ {
			if i%2 == 0 {
				sn = sn.advance(run{}, flips, sn.Nodes, sn.Edges)
			} else {
				sn = sn.advance(flips, run{}, sn.Nodes, sn.Edges)
			}
		}
		runtime.ReadMemStats(&after)
		if sn.Len() != size {
			t.Fatalf("%d flips left %d of %d violations", commits, sn.Len(), size)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / commits
	}
	small, large := perCommit(20_000), perCommit(200_000)
	t.Logf("advance allocates %.0f B per commit at 20k, %.0f B at 200k (×%.2f)", small, large, large/small)
	if large > 2*small {
		t.Fatalf("publish grows with the store: %.0f B per commit at 20k, %.0f B at 200k", small, large)
	}
}

// TestScatteredPublishIsDeltaSized: a commit whose ΔVio binds 700 nodes
// spread over all the ids, the shape of a burst commit, allocates under
// twice the bytes on a store of 256k nodes that it does on one of 16k. The
// publish copies the top table and the leaves and directories those nodes
// fall into; a table of 256-slot pages copied a 6 KiB page per node at the
// larger size. A count, not a timing.
func TestScatteredPublishIsDeltaSized(t *testing.T) {
	perCommit := func(nodes int) float64 {
		sn, _ := capStore(nodes)
		const spread = 700
		hop := &core.NGD{Name: "hop"}
		vios := make([]core.Violation, spread/2)
		for i := range vios {
			vios[i] = core.Violation{Rule: hop, Match: core.Match{graph.NodeID(2 * i * nodes / spread), graph.NodeID((2*i + 1) * nodes / spread)}}
		}
		flips := sortedRecords(vios...)
		const commits = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < commits; i++ {
			if i%2 == 0 {
				sn = sn.advance(flips, run{}, sn.Nodes, sn.Edges)
			} else {
				sn = sn.advance(run{}, flips, sn.Nodes, sn.Edges)
			}
		}
		runtime.ReadMemStats(&after)
		if sn.Len() != nodes {
			t.Fatalf("%d commits left %d of %d violations", commits, sn.Len(), nodes)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / commits
	}
	small, large := perCommit(16<<10), perCommit(256<<10)
	t.Logf("a commit binding 700 scattered nodes allocates %.0f B at 16k nodes, %.0f B at 256k (×%.2f)", small, large, large/small)
	if large > 2*small {
		t.Fatalf("publish grows with the graph: %.0f B per commit at 16k nodes, %.0f B at 256k", small, large)
	}
}

// TestNewSnapshotAllocsPerViolation: seeding a store costs two objects per
// violation, its key and its record: the chunks are cut from the sorted
// run, the postings filled from one array, and the radix's leaves and
// directories cut from one slab each. The
// seeding that copied every violation beside its key, sorted (node,
// violation) pairs and wrote a map entry per posting made ≈ 4.5.
func TestNewSnapshotAllocsPerViolation(t *testing.T) {
	p := gen.YAGO2
	p.ErrorRate = 0.75
	ds := gen.Generate(p, 2000, 1)
	vios := detect.Dect(ds.G, gen.EffectivenessRules(p), detect.Options{}).Violations
	allocs := testing.AllocsPerRun(3, func() { newSnapshot(vios, ds.G.NumNodes(), 0) })
	per := allocs / float64(len(vios))
	t.Logf("newSnapshot: %.0f objects for %d violations over %d nodes, %.3f per violation", allocs, len(vios), ds.G.NumNodes(), per)
	if per > 2.1 {
		t.Fatalf("seeding allocated %.2f objects per violation, budget 2.1", per)
	}
}
