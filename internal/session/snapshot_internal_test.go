package session

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"ngd/internal/core"
	"ngd/internal/graph"
)

// The reference the store is checked against: a plain map, rendered by
// sorting and by naive filters. Nothing here shares code with run.merge,
// Snapshot.advance or the snapshot's lookups.

const refIDs = 3 << nodeShardBits // three node shards

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
	for n := graph.NodeID(0); n < refIDs; n++ {
		var ks []string
		for _, k := range keys {
			if slices.Contains(m[k].Match, n) {
				ks = append(ks, k)
			}
		}
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
	fmt.Fprintln(&b, "all", keysOf(sn.Violations()))
	if sn.Len() != len(sn.Violations()) {
		t.Fatalf("epoch %d: Len %d, %d violations", sn.Epoch, sn.Len(), len(sn.Violations()))
	}
	for _, v := range sn.Violations() {
		if got, ok := sn.Get(v.Key()); !ok || got.Rule != v.Rule || !slices.Equal(got.Match, v.Match) || !sn.Has(v.Key()) {
			t.Fatalf("epoch %d: Get(%s) = %v, %v", sn.Epoch, v.Key(), got, ok)
		}
	}
	for _, name := range names {
		fmt.Fprintln(&b, "rule", name, keysOf(sn.Rule(name)))
	}
	for n := graph.NodeID(0); n < refIDs; n++ {
		if ks := keysOf(sn.Node(n)); ks != nil {
			fmt.Fprintln(&b, "node", n, ks)
		}
	}
	return b.String()
}

// TestAdvanceMatchesMapReference drives the store's whole write path —
// Has/add/remove against "last snapshot + the commit's delta", then publish
// — with random commits and compares every epoch, and every earlier epoch
// again after each later commit, with the map reference.
func TestAdvanceMatchesMapReference(t *testing.T) {
	// names that are prefixes of one another: Rule must not confuse them
	names := []string{"a", "a1", "ab", "b", "none"}
	rules := make([]*core.NGD, 4)
	for i := range rules {
		rules[i] = &core.NGD{Name: names[i]}
	}
	rng := rand.New(rand.NewSource(15))
	randVio := func(shard int) core.Violation {
		m := make(core.Match, 1+rng.Intn(3))
		for i := range m {
			m[i] = graph.NodeID(shard<<nodeShardBits + rng.Intn(12)) // few ids: long postings, repeated nodes
		}
		return core.Violation{Rule: rules[rng.Intn(len(rules))], Match: m}
	}

	s := &Session{g: graph.New(), snap: newSnapshot(nil, 0, 0),
		added: map[string]core.Violation{}, removed: map[string]core.Violation{}}
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
		if s.remove(v.Key(), v) != had {
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
		if !slices.Equal(keysOf(ev.Added), wantAdd) || !slices.Equal(keysOf(ev.Removed), wantDel) {
			t.Fatalf("epoch %d event +%v −%v, want +%v −%v", ev.Epoch, keysOf(ev.Added), keysOf(ev.Removed), wantAdd, wantDel)
		}
		if len(wantAdd)+len(wantDel) == 0 && prev.Len() > 0 && &s.snap.all.keys[0] != &prev.all.keys[0] {
			t.Fatalf("epoch %d: an empty event copied the run", ev.Epoch)
		}
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

	// one commit empties a node shard and posts into it again under another id
	v5 := core.Violation{Rule: rules[0], Match: core.Match{5}}
	v7 := core.Violation{Rule: rules[0], Match: core.Match{7}}
	commit(func() { add(v5) })
	commit(func() { remove(v5); add(v7) })
	commit(func() { remove(v7) }) // the store, and the shard, are empty
	commit(func() { add(v5) })

	for step := 0; step < 120; step++ {
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
			case 2: // empty one whole shard, then add into it
				for k, v := range ref {
					if v.Match[0]>>nodeShardBits == 1 {
						remove(ref[k])
					}
				}
				add(randVio(1))
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
