package sorted

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

type num int

func (a num) Cmp(b num) int { return cmp.Compare(a, b) }

// check holds r to want, a sorted slice: the chunk bounds, no runt beside a
// neighbour, and Len, At, Search and Seq in step with the chunks.
func check(t *testing.T, r Run[num], want []num) {
	t.Helper()
	var flat []num
	for i, ch := range r.Chunks() {
		if len(ch) == 0 || len(ch) > Bound || len(r.Chunks()) > 1 && len(ch) < Bound/4 {
			t.Fatalf("chunk %d of %d holds %d entries", i, len(r.Chunks()), len(ch))
		}
		flat = append(flat, ch...)
	}
	if !slices.Equal(flat, want) || r.Len() != len(want) {
		t.Fatalf("run holds %d entries (Len %d), want %d", len(flat), r.Len(), len(want))
	}
	for _, i := range []int{0, len(want) / 3, len(want) - 1} {
		if i < 0 || i >= len(want) {
			continue
		}
		if r.At(i) != want[i] || r.Search(func(x num) bool { return x >= want[i] }) != i {
			t.Fatalf("At(%d) = %d, want %d", i, r.At(i), want[i])
		}
		if got := slices.Collect(r.Seq(i, len(want))); !slices.Equal(got, want[i:]) {
			t.Fatalf("Seq(%d, %d) yields %d entries, want %d", i, len(want), len(got), len(want)-i)
		}
	}
}

// TestWriteMatchesSetReference drives random batches — inserts, deletes,
// entries a batch both inserts and deletes, or deletes and inserts again —
// through Write, and holds every version, the new one and each earlier one
// again, to a set reference.
func TestWriteMatchesSetReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	set := map[num]bool{}
	var r Run[num]
	type version struct {
		r    Run[num]
		want []num
	}
	var versions []version
	for step := range 200 {
		var b Batch[num]
		for range rng.Intn(3 * Bound) {
			x := num(rng.Intn(8 * Bound))
			switch {
			case step%50 == 49: // a delete-heavy batch
				if set[x] {
					b.Put(x, false)
					delete(set, x)
				}
			case set[x] && rng.Intn(4) == 0: // deleted and inserted again
				b.Put(x, false)
				b.Put(x, true)
			case set[x]:
				b.Put(x, false)
				delete(set, x)
			case rng.Intn(4) == 0: // inserted and deleted again
				b.Put(x, true)
				b.Put(x, false)
			default:
				b.Put(x, true)
				set[x] = true
			}
		}
		r = r.Write(&b)
		want := make([]num, 0, len(set))
		for x := range set {
			want = append(want, x)
		}
		slices.Sort(want)
		versions = append(versions, version{r, want})
		check(t, r, want)
		if step%20 == 19 {
			for _, v := range versions {
				check(t, v.r, v.want)
			}
		}
	}
}

// TestApplySharesUntouchedChunks: a one-entry delete copies the chunk it
// falls into and shares every other with the run it was applied to.
func TestApplySharesUntouchedChunks(t *testing.T) {
	s := make([]num, 8*Bound)
	for i := range s {
		s[i] = num(2 * i)
	}
	r := Of(s)
	next := r.Apply(nil, []num{2*Bound + 2})
	before, after := r.Chunks(), next.Chunks()
	if len(before) != len(after) {
		t.Fatalf("%d chunks, then %d", len(before), len(after))
	}
	for i := range after {
		if shared := &after[i][0] == &before[i][0]; shared == (i == 1) {
			t.Fatalf("chunk %d shared = %v", i, shared)
		}
	}
}
