// Package sorted is the one sorted container: a persistent two-level run of
// distinct entries, which the violation store, the attribute indexes and the
// edge-value indexes each are. Apply never changes a chunk, so a Run is a
// value: a copy of its header shares every chunk, a write costs the chunks
// it falls into plus the top level, and readers never see a later write.
package sorted

import (
	"iter"
	"slices"
	"sort"
	"sync/atomic"
)

// Entry is an entry type ordered by its Cmp method: negative, zero or
// positive as e sorts before, with or after o. Entries that compare equal
// are the same entry; a run holds each at most once.
type Entry[T any] interface{ Cmp(o T) int }

// Bound is the most entries one chunk holds: the unit of a write's copying.
const Bound = 512

// Copied counts the entries merges have written into new chunks, over the
// process: the work the writes did, which the benchmarks report.
var Copied atomic.Int64

// Run is a sorted sequence of distinct entries: non-empty chunks of at most
// Bound entries, with each chunk's starting position beside them for the
// binary searches. The zero Run is empty.
type Run[T Entry[T]] struct {
	chunks [][]T
	offs   []int // offs[i] entries precede chunk i; offs[len(chunks)] is Len
}

// Of cuts a sorted slice of distinct entries into a run. The chunks share
// s's array, so s must not change afterwards.
func Of[T Entry[T]](s []T) Run[T] { return Run[T]{}.Apply(s, nil) }

// Len reports the number of entries.
func (r Run[T]) Len() int {
	if len(r.offs) == 0 {
		return 0
	}
	return r.offs[len(r.chunks)]
}

// Chunks returns the run's chunks in order, read-only.
func (r Run[T]) Chunks() [][]T { return r.chunks }

// Search returns the position of the first entry for which ge holds (Len
// if none); ge must be false on a prefix of the run and true on the rest.
func (r Run[T]) Search(ge func(T) bool) int {
	ci := sort.Search(len(r.chunks), func(i int) bool {
		ch := r.chunks[i]
		return ge(ch[len(ch)-1])
	})
	if ci == len(r.chunks) {
		return r.Len()
	}
	ch := r.chunks[ci]
	return r.offs[ci] + sort.Search(len(ch), func(j int) bool { return ge(ch[j]) })
}

// At returns the entry at position i.
func (r Run[T]) At(i int) T {
	ci := sort.SearchInts(r.offs, i+1) - 1 // the last chunk starting at or below i
	return r.chunks[ci][i-r.offs[ci]]
}

// Seq yields the entries at positions [lo, hi) in order, chunk by chunk.
func (r Run[T]) Seq(lo, hi int) iter.Seq[T] {
	return func(yield func(T) bool) {
		if lo >= hi {
			return
		}
		ci := sort.SearchInts(r.offs, lo+1) - 1
		for at := lo; at < hi; ci++ {
			ch, off := r.chunks[ci], r.offs[ci]
			for _, e := range ch[at-off : min(len(ch), hi-off)] {
				if !yield(e) {
					return
				}
			}
			at = r.offs[ci+1]
		}
	}
}

// Batch collects one write's entries, in any order and not yet netted.
type Batch[T Entry[T]] struct{ add, del []T }

// Put records entry e entering the run (in) or leaving it.
func (b *Batch[T]) Put(e T, in bool) {
	if in {
		b.add = append(b.add, e)
	} else {
		b.del = append(b.del, e)
	}
}

// Len reports how many entries b recorded.
func (b *Batch[T]) Len() int { return len(b.add) + len(b.del) }

// Write returns r with the batch applied: both sides sorted, an entry the
// batch both inserts and deletes (or deletes and inserts again) dropped one
// for one, and the rest merged by one Apply. It consumes b.
func (r Run[T]) Write(b *Batch[T]) Run[T] {
	cmp := func(x, y T) int { return x.Cmp(y) }
	slices.SortFunc(b.add, cmp)
	slices.SortFunc(b.del, cmp)
	add, del := b.add[:0], b.del[:0]
	for a, d := 0, 0; a < len(b.add) || d < len(b.del); {
		switch {
		case d == len(b.del) || a < len(b.add) && b.add[a].Cmp(b.del[d]) < 0:
			add = append(add, b.add[a])
			a++
		case a == len(b.add) || b.add[a].Cmp(b.del[d]) > 0:
			del = append(del, b.del[d])
			d++
		default:
			a++
			d++
		}
	}
	return r.Apply(add, del)
}

// seek returns the position in s of the first entry ≥ x.
func seek[T Entry[T]](s []T, x T) int {
	return sort.Search(len(s), func(i int) bool { return s[i].Cmp(x) >= 0 })
}

// merge returns s ∖ del ∪ add as a fresh slice, leaving s untouched. All
// three are sorted; one pass over the changes, block-copying the stretches
// of s between them. A del entry s does not hold is ignored; an add entry
// must not be in s ∖ del. Merging into an empty s returns add itself.
func merge[T Entry[T]](s, add, del []T) []T {
	if len(s) == 0 {
		return add
	}
	out := make([]T, 0, len(s)+len(add))
	i := 0 // next unread entry of s
	copyTo := func(j int) {
		out = append(out, s[i:j]...)
		i = j
	}
	for a, d := 0, 0; a < len(add) || d < len(del); {
		if d == len(del) || a < len(add) && add[a].Cmp(del[d]) < 0 {
			copyTo(i + seek(s[i:], add[a]))
			out = append(out, add[a])
			a++
		} else {
			copyTo(i + seek(s[i:], del[d]))
			if i < len(s) && s[i].Cmp(del[d]) == 0 {
				i++
			}
			d++
		}
	}
	copyTo(len(s))
	Copied.Add(int64(len(out)))
	return out
}

// home returns the chunk whose stretch of the order holds x: the last one
// that starts at or below it, -1 when x sorts before the whole run.
func (r Run[T]) home(x T) int {
	return sort.Search(len(r.chunks), func(i int) bool { return r.chunks[i][0].Cmp(x) > 0 }) - 1
}

// Apply returns r ∖ del ∪ add without touching r, under merge's contract,
// in one walk: a chunk no change falls into is shared with r, the others
// are re-merged, then dropped when emptied, cut into even pieces over the
// bound, and joined with a neighbour under a quarter of it (else a
// delete-heavy stream leaves one-entry chunks behind).
func (r Run[T]) Apply(add, del []T) Run[T] {
	if len(add)+len(del) == 0 {
		return r
	}
	out := make([][]T, 0, len(r.chunks)+1+len(add)/Bound)
	put := func(m []T) {
		if n := len(out); n > 0 && 0 < len(m) && len(m) < Bound/4 {
			m = merge(out[n-1], m, nil) // every entry of m is past the neighbour's
			out = out[:n-1]
		}
		for pieces := (len(m) + Bound - 1) / Bound; pieces > 0; pieces-- {
			n := len(m) / pieces
			out = append(out, m[:n:n])
			m = m[n:]
		}
	}
	if len(r.chunks) == 0 {
		put(add) // a fresh run, or one the last write emptied: del ⊆ r is empty
	}
	i := 0 // next unread chunk of r
	for a, d := 0, 0; len(r.chunks) > 0 && (a < len(add) || d < len(del)); {
		// the chunk the next change falls into, and the changes it shares it
		// with: those below the following chunk's first entry
		var x T
		if d == len(del) || a < len(add) && add[a].Cmp(del[d]) < 0 {
			x = add[a]
		} else {
			x = del[d]
		}
		ci := max(i, r.home(x))
		a2, d2 := len(add), len(del)
		if ci+1 < len(r.chunks) {
			first := r.chunks[ci+1][0]
			a2 = a + seek(add[a:], first)
			d2 = d + seek(del[d:], first)
		}
		out = append(out, r.chunks[i:ci]...)
		m := merge(r.chunks[ci], add[a:a2:a2], del[d:d2:d2])
		a, d, i = a2, d2, ci+1
		if len(out) == 0 && 0 < len(m) && len(m) < Bound/4 && i < len(r.chunks) {
			// no left neighbour to join: its entries ride into the right one
			add, a = merge(m, add[a:], nil), 0
			continue
		}
		put(m)
	}
	out = append(out, r.chunks[i:]...)

	next := Run[T]{out, make([]int, len(out)+1)}
	for i, ch := range out {
		next.offs[i+1] = next.offs[i] + len(ch)
	}
	return next
}
