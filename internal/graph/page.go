package graph

import (
	"slices"
	"sync/atomic"
)

// A graph keeps its per-node state — labels with attribute tuples,
// out-lists, in-lists — in three tables of pages of pageSize consecutive
// node slots. Clone copies the tables, not the pages, so afterwards both
// graphs hold every page. A page held by more than one graph is frozen:
// whichever graph writes to it first copies it (the slots, not the lists
// they point at) and installs the copy in its own table. The copy's lists
// are still shared with the original page, so a list is copied as well
// before it is changed in place, once per slot; own records the slots whose
// list a page may change in place. Release drops a graph's holds, and the
// graph that holds a page alone again writes in place.
//
// Copying a page's lists along with its slots would need no own marks, but
// it copies every list of each page a write touches: a 16-op commit beside
// a fork of 8,000 nodes allocated 288 KB where this allocates 206 KB, and
// holding each fork of 64,000 nodes for 3 commits cost a checkpoint 0.9 MB
// where this costs 0.6 MB (EXPERIMENTS.md, "Checkpoints fork the graph").

const (
	pageBits = 8
	pageSize = 1 << pageBits
)

type page[T any] struct {
	// slot holds the page's node slots: pageSize of them, or fewer on the
	// last page, which grows as nodes arrive (so that a small graph costs
	// small pages).
	slot []T
	refs atomic.Int32 // the tables holding this page
	// copied is set when a copy was taken of the page: the copy shares its
	// lists, so the page's own marks are void once it is sole again.
	copied atomic.Bool
	own    [pageSize / 64]uint64
}

// pages is one table: page i holds the slots of nodes i·pageSize onwards.
type pages[T any] []*page[T]

// newPage returns a page of the given slots held by one table, owning the
// lists of its slots.
func newPage[T any](slot []T) *page[T] {
	p := &page[T]{slot: slot}
	p.refs.Store(1)
	for i := range p.own {
		p.own[i] = ^uint64(0)
	}
	return p
}

// newPages returns a table of fresh pages with n slots in all, cut from
// one backing array: a fresh process faults in a fraction of the memory
// that as many separate pages would cost it. A page copied away leaves its
// stretch behind, and the array lives while any of its pages does.
func newPages[T any](n int) pages[T] {
	t := make(pages[T], (n+pageSize-1)>>pageBits)
	slab := make([]T, n)
	for i := range t {
		hi := min(n, (i+1)<<pageBits)
		t[i] = newPage(slab[i<<pageBits : hi : hi])
	}
	return t
}

// at returns node v's slot for reading.
func (t pages[T]) at(v NodeID) *T { return &t[v>>pageBits].slot[v&(pageSize-1)] }

// writable returns page i ready for writes, copying it first if another
// table holds it too.
func (t pages[T]) writable(i NodeID) *page[T] {
	p := t[i]
	if p.refs.Load() > 1 {
		c := &page[T]{slot: slices.Clone(p.slot)}
		c.refs.Store(1)
		p.copied.Store(true)
		p.refs.Add(-1)
		t[i] = c
		return c
	}
	if p.copied.Load() {
		p.copied.Store(false)
		p.own = [pageSize / 64]uint64{}
	}
	return p
}

// mut returns node v's slot for writing. own reports whether the slot's
// list is the page's to change in place; either way the caller's write
// makes it so — a caller that changes a list it does not own changes a
// copy.
func (t pages[T]) mut(v NodeID) (s *T, own bool) {
	p := t.writable(v >> pageBits)
	j := v & (pageSize - 1)
	w, b := j>>6, uint64(1)<<(j&63)
	own = p.own[w]&b != 0
	p.own[w] |= b
	return &p.slot[j], own
}

// push adds the zero slot of node v, the table's next node.
func (t *pages[T]) push(v NodeID) *T {
	if v&(pageSize-1) == 0 {
		*t = append(*t, newPage[T](nil))
	}
	p := t.writable(v >> pageBits)
	p.slot = append(p.slot, *new(T))
	return &p.slot[len(p.slot)-1]
}

// fork returns a copy of the table holding the same pages.
func (t pages[T]) fork() pages[T] {
	for _, p := range t {
		p.refs.Add(1)
	}
	return slices.Clone(t)
}

// release drops the table's holds on its pages.
func (t pages[T]) release() {
	for _, p := range t {
		p.refs.Add(-1)
	}
}

// The attribute indexes, the edge-value indexes and the statistics follow
// the pages' rule, whole: Clone hands the clone its parent's objects, an
// object more than one graph holds is frozen, and whichever graph writes it
// first copies it. The copy keeps every index exact on both sides, so a
// clone prunes like a fresh build of its graph, and the writer's updates
// never reach a checkpoint's fork. Release drops the holds.

// shared is the hold count of such an object: the graphs beyond the first
// that hold it, so a new object is held by the graph that built it.
type shared struct{ others atomic.Int32 }

func (s *shared) drop()        { s.others.Add(-1) }
func (s *shared) frozen() bool { return s.others.Load() > 0 }

type sharable[T any] interface {
	frozen() bool
	drop()
	copy() T
}

// unshare returns x ready for writes by a graph holding it: x itself when no
// other graph holds it, else a copy the caller alone holds.
func unshare[T sharable[T]](x T) T {
	if !x.frozen() {
		return x
	}
	c := x.copy()
	x.drop()
	return c
}

// insertAt inserts x at position i of l. A list its page does not own is
// shared with another page, so it is copied instead of shifted in place.
func insertAt[E any](l []E, i int, x E, own bool) []E {
	if !own {
		l = l[:len(l):len(l)] // the append below must reallocate
	}
	l = append(l, x)
	copy(l[i+1:], l[i:])
	l[i] = x
	return l
}

// deleteAt removes position i of l, copying a list its page does not own
// (with room for one insert, the other half of a moved edge).
func deleteAt[E any](l []E, i int, own bool) []E {
	if !own {
		return append(append(make([]E, 0, len(l)), l[:i]...), l[i+1:]...)
	}
	copy(l[i:], l[i+1:])
	return l[:len(l)-1]
}
