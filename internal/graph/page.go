package graph

import (
	"slices"
	"sync/atomic"
)

// A graph keeps its per-node state — labels with attribute tuples,
// out-lists, in-lists — in three tables of pages of pageSize consecutive
// node slots. A page keeps its slots' lists in one arena, a slot being a
// span of it, so an adjacency page holds no pointer but to its arrays. A
// list grows in place within its span, else moves to the arena's tail; an
// arena out of room, or whose holes and slack outgrow its lists twice, is
// laid out afresh in a new array, so a slice cut from the old one is never
// rewritten.
//
// Clone copies the tables, not the pages, so afterwards both graphs hold
// every page. A page held by more than one graph is frozen: whichever
// graph writes to it first lays its slots and arena out afresh in a copy
// and installs that in its own table. Release drops a graph's holds, and
// the graph that holds a page alone again writes in place.

const (
	pageBits = 8
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// span is one slot's list: arena[off : off+n], with room to grow in place
// up to off+cap.
type span struct{ off, n, cap uint32 }

type page[E any] struct {
	// span holds the page's node slots: pageSize of them, or fewer on the
	// last page, which grows as nodes arrive (so that a small graph costs
	// small pages).
	span []span
	// label holds the slots' node labels, on node pages only.
	label []LabelID
	arena []E
	live  int          // Σ span.n: arena entries that are no hole or slack
	refs  atomic.Int32 // the tables holding this page
}

// pages is one table: page i holds the slots of nodes i·pageSize onwards.
type pages[E any] []*page[E]

// room is the headroom an arena of n entries gets past its lists.
func room(n int) int { return n/8 + 4 }

// compactMin is the fewest dead entries worth laying an arena out afresh
// for; below it a page keeps its holes even where they outnumber its lists.
const compactMin = 16

func newPage[E any]() *page[E] {
	p := &page[E]{}
	p.refs.Store(1)
	return p
}

// cutPages returns a table of len(lens) slots whose arenas are cut from one
// array: a fresh process faults in a fraction of the memory that as many
// separate arenas would cost it. On entry lens[v] is the length of v's
// list, on return its offset in the array, which is returned for the
// caller to fill. Each page's lists lie back to back, their lengths their
// capacities, followed by the page's room. A page laid out afresh leaves
// its stretch behind, and the array lives while any of its pages does.
func cutPages[E any](lens []int) (pages[E], []E) {
	n := len(lens)
	t := make(pages[E], (n+pageMask)>>pageBits)
	slab := make([]span, n)
	total := 0
	for i := range t {
		lo, hi := i<<pageBits, min(n, (i+1)<<pageBits)
		p := newPage[E]()
		p.span = slab[lo:hi:hi]
		for v := lo; v < hi; v++ {
			k := lens[v]
			p.span[v-lo] = span{off: uint32(p.live), n: uint32(k), cap: uint32(k)}
			lens[v] = total + p.live
			p.live += k
		}
		total += p.live + room(p.live)
		t[i] = p
	}
	arena := make([]E, total)
	for i, p := range t {
		lo := lens[i<<pageBits]
		p.arena = arena[lo : lo+p.live : lo+p.live+room(p.live)]
	}
	return t, arena
}

// list returns slot j's list, its capacity clipped so that no reader can
// append into the arena.
func (p *page[E]) list(j NodeID) []E {
	s := p.span[j]
	return p.arena[s.off : s.off+s.n : s.off+s.n]
}

// at returns node v's list for reading.
func (t pages[E]) at(v NodeID) []E { return t[v>>pageBits].list(v & pageMask) }

// relayout lays p's lists out afresh in a new arena, recording their spans
// in dst (p itself, or p's copy), and leaves p's old arena as it was. A
// copy or a compaction (j < 0) gives each list its length as capacity;
// growth keeps every list's capacity but slot j's, which becomes c, so
// that the lists which moved before need not move again.
func (p *page[E]) relayout(dst *page[E], j int, c uint32) {
	used := 0
	for k, s := range p.span {
		switch {
		case k == j:
			used += int(c)
		case j >= 0:
			used += int(s.cap)
		default:
			used += int(s.n)
		}
	}
	arena := make([]E, used, used+room(used))
	at := uint32(0)
	for k, s := range p.span {
		copy(arena[at:], p.arena[s.off:s.off+s.n])
		s.off = at
		if k == j {
			s.cap = c
		} else if j < 0 {
			s.cap = s.n
		}
		dst.span[k] = s
		at += s.cap
	}
	dst.arena, dst.live = arena, p.live
}

// writable returns page i ready for writes, laying out a copy first if
// another table holds it too.
func (t pages[E]) writable(i NodeID) *page[E] {
	p := t[i]
	if p.refs.Load() > 1 {
		c := &page[E]{span: make([]span, len(p.span)), label: slices.Clone(p.label)}
		c.refs.Store(1)
		p.relayout(c, -1, 0)
		p.refs.Add(-1)
		t[i] = c
		return c
	}
	return p
}

// mut returns node v's list for writing in place.
func (t pages[E]) mut(v NodeID) []E { return t.writable(v >> pageBits).list(v & pageMask) }

// insert puts x at position i of node v's list. A full list moves to the
// arena's tail with half as much room again, or, past the arena, the
// page is laid out afresh.
func (t pages[E]) insert(v NodeID, i int, x E) {
	p, j := t.writable(v>>pageBits), v&pageMask
	if s := p.span[j]; s.n == s.cap {
		c := s.n + s.n/2 + 1
		if end := len(p.arena) + int(c); end <= cap(p.arena) {
			copy(p.arena[len(p.arena):end], p.list(j))
			p.span[j] = span{off: uint32(len(p.arena)), n: s.n, cap: c}
			p.arena = p.arena[:end]
		} else {
			p.relayout(p, int(j), c)
		}
	}
	s := &p.span[j]
	l := p.arena[s.off : s.off+s.n+1]
	copy(l[i+1:], l[i:])
	l[i] = x
	s.n++
	p.live++
}

// remove deletes position i of node v's list. It reports whether that left
// twice as many dead entries as live ones in the page's arena, which is
// then laid out afresh; the margin spares lists that shrink and grow back.
func (t pages[E]) remove(v NodeID, i int) (compacted bool) {
	p := t.writable(v >> pageBits)
	s := &p.span[v&pageMask]
	l := p.arena[s.off : s.off+s.n]
	copy(l[i:], l[i+1:])
	s.n--
	p.live--
	if dead := len(p.arena) - p.live; dead >= max(compactMin, 2*p.live+1) {
		p.relayout(p, -1, 0)
		return true
	}
	return false
}

// push adds node v, the table's next, with an empty list, and returns its
// page.
func (t *pages[E]) push(v NodeID) *page[E] {
	if v&pageMask == 0 {
		*t = append(*t, newPage[E]())
	}
	p := t.writable(v >> pageBits)
	p.span = append(p.span, span{})
	return p
}

// fork returns a copy of the table holding the same pages.
func (t pages[E]) fork() pages[E] {
	for _, p := range t {
		p.refs.Add(1)
	}
	return slices.Clone(t)
}

// release drops the table's holds on its pages.
func (t pages[E]) release() {
	for _, p := range t {
		p.refs.Add(-1)
	}
}

// The statistics follow the pages' rule, whole: Clone hands the clone its
// parent's LiveStats, whichever graph writes a shared one first copies it
// (unshare), and Release drops the holds.
