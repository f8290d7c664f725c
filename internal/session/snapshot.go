package session

import (
	"iter"
	"slices"
	"strings"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/sorted"
)

// Snapshot is an immutable, consistent view of a session at one commit
// epoch, and the only representation of the violation set the session
// keeps: one *core.Keyed record per violation of Vio(Σ, G), listed in key
// order in a sorted.Run and posted under every node the violation binds.
// Epoch e is derived from epoch e−1 by advance, inside the commit, from the
// commit's reconciled ΔVio⁺/ΔVio⁻ (the paper's Vio(Σ, G⊕ΔG) = Vio(Σ, G) ∪
// ΔVio⁺ ∖ ΔVio⁻), copying only the chunks and posting pages the delta falls
// into; published epochs are never touched, so any number of concurrent
// readers can serve from a Snapshot while the session commits.
type Snapshot struct {
	// Epoch is the commit count at capture (0 = the seeded store).
	Epoch int
	// Nodes and Edges are |V| and |E| as of the commit that produced the
	// epoch: a node added to the graph after that commit is counted by the
	// epoch that absorbs it, not before.
	Nodes, Edges int

	all sorted.Run[*core.Keyed]
	// byNode posts every violation under each distinct node of its match:
	// a posting is the node's records in key order, the very records all's
	// chunks hold. Postings sit in pages of pageSize consecutive node ids,
	// nil where no node of the page has one; a commit copies this table and
	// the pages it touches.
	byNode []*page
}

// page holds the postings of pageSize consecutive node ids.
type page [pageSize][]*core.Keyed

const (
	pageBits = 8
	pageSize = 1 << pageBits
)

// Len reports |Vio(Σ, G)| at the snapshot's epoch.
func (sn *Snapshot) Len() int { return sn.all.Len() }

// All is the whole store in key order.
func (sn *Snapshot) All() Range { return Range{sn.all, 0, sn.all.Len()} }

// Violations returns the snapshot's violations sorted by canonical key, a
// copy: O(|Vio|), so page through All for anything but a full listing.
func (sn *Snapshot) Violations() []core.Violation {
	if sn.Len() == 0 {
		return nil
	}
	out := make([]core.Violation, 0, sn.Len())
	for k := range sn.All().Records() {
		out = append(out, k.Violation)
	}
	return out
}

// Get looks up a violation by its canonical key: one binary search for the
// chunk, one inside it.
func (sn *Snapshot) Get(key string) (core.Violation, bool) {
	if k := sn.record(key); k != nil {
		return k.Violation, true
	}
	return core.Violation{}, false
}

// record is the stored record keyed key, nil when there is none.
func (sn *Snapshot) record(key string) *core.Keyed {
	if i := seek(sn.all, key); i < sn.all.Len() {
		if k := sn.all.At(i); k.Key == key {
			return k
		}
	}
	return nil
}

// seek returns the position in r of the first key ≥ key.
func seek(r sorted.Run[*core.Keyed], key string) int {
	return r.Search(func(k *core.Keyed) bool { return k.Key >= key })
}

// Has reports whether the snapshot holds a violation with the given key.
func (sn *Snapshot) Has(key string) bool { return sn.record(key) != nil }

// Posting returns the records of the violations whose match binds node n,
// in key order: the snapshot's own slice, no copy, read-only. This is the
// posting as inc.Store reads it.
func (sn *Snapshot) Posting(n graph.NodeID) []*core.Keyed {
	if i := uint32(n) >> pageBits; i < uint32(len(sn.byNode)) && sn.byNode[i] != nil {
		return sn.byNode[i][n&(pageSize-1)]
	}
	return nil
}

// Node returns the violations whose match binds node n, in key order: a
// copy, O(posting).
func (sn *Snapshot) Node(n graph.NodeID) []core.Violation { return violationsOf(sn.Posting(n)) }

// Posted is Node as a Range, for paging and for narrowing to one rule. It
// pages the posting in place: O(1).
func (sn *Snapshot) Posted(n graph.NodeID) Range {
	p := sn.Posting(n)
	if len(p) == 0 {
		return Range{}
	}
	return Range{sorted.Of(p), 0, len(p)}
}

// violationsOf copies the records' violations out.
func violationsOf(recs []*core.Keyed) []core.Violation {
	if len(recs) == 0 {
		return nil
	}
	out := make([]core.Violation, len(recs))
	for i, k := range recs {
		out[i] = k.Violation
	}
	return out
}

// Range is a stretch of one epoch's key-sorted violations — the whole
// store, a node's posting, or one rule's share of either — by position, so
// narrowing and paging cost binary searches, not copies.
type Range struct {
	c      sorted.Run[*core.Keyed]
	lo, hi int
}

func (r Range) Len() int { return r.hi - r.lo }

// from is the position of the first key ≥ key, kept inside the range.
func (r Range) from(key string) int { return min(max(seek(r.c, key), r.lo), r.hi) }

// Rule narrows r to the violations of the named rule: the keys that start
// with "<name>:". Rule names never contain ':' (core.New rejects it), so
// the stretch holds that rule's violations only.
func (r Range) Rule(name string) Range {
	if strings.Contains(name, ":") {
		return Range{}
	}
	// ';' is ':'+1: the first key past the prefix
	return Range{r.c, r.from(name + ":"), r.from(name + ";")}
}

// After narrows r to the keys strictly greater than key (a keyset cursor).
func (r Range) After(key string) Range {
	r.lo = r.from(key + "\x00")
	return r
}

// Page narrows r to its first limit entries, or leaves it whole when
// limit < 0.
func (r Range) Page(limit int) Range {
	if limit >= 0 && limit < r.Len() {
		r.hi = r.lo + limit
	}
	return r
}

// Last is the record at the end of r, nil when r is empty.
func (r Range) Last() *core.Keyed {
	if r.Len() == 0 {
		return nil
	}
	return r.c.At(r.hi - 1)
}

// Records yields the records of r in key order, reading the snapshot's
// storage in place.
func (r Range) Records() iter.Seq[*core.Keyed] { return r.c.Seq(r.lo, r.hi) }

// run is a list of records in ascending key order: a node's posting, or one
// side of a commit's Δ.
type run []*core.Keyed

// newSnapshot builds epoch 0 from an unordered violation list (a seeding
// detection run, or a persisted store) in linear passes around the one
// whole-store sort the session ever pays: a record per violation, the sort
// by key, the chunks cut from the sorted run, and the postings.
func newSnapshot(vios []core.Violation, nodes, edges int) *Snapshot {
	recs := make(run, len(vios))
	for i, v := range vios {
		recs[i] = &core.Keyed{Key: v.Key(), Violation: v}
	}
	slices.SortFunc(recs, (*core.Keyed).Cmp)
	// the keyed store holds one violation per key
	recs = slices.CompactFunc(recs, func(a, b *core.Keyed) bool { return a.Key == b.Key })
	return &Snapshot{Nodes: nodes, Edges: edges, all: sorted.Of(recs), byNode: postAll(recs)}
}

// postAll builds the postings of a key-sorted run: count each node's
// records, then fill every posting in key order into one backing array.
// That array lives as long as any posting cut from it does.
func postAll(recs run) []*page {
	top := -1
	for _, k := range recs {
		for _, id := range k.Match {
			top = max(top, int(id))
		}
	}
	if top < 0 {
		return nil
	}
	at := make([]int, top+1) // a node's count, then where its posting starts, then ends
	eachNode(recs, func(id graph.NodeID, _ int) { at[id]++ })
	sum := 0
	for v, n := range at {
		at[v], sum = sum, sum+n
	}
	backing := make([]*core.Keyed, sum)
	eachNode(recs, func(id graph.NodeID, i int) {
		backing[at[id]] = recs[i]
		at[id]++
	})
	pages := make([]*page, top>>pageBits+1)
	lo := 0
	for v, hi := range at {
		if hi > lo {
			if pages[v>>pageBits] == nil {
				pages[v>>pageBits] = new(page)
			}
			pages[v>>pageBits][v&(pageSize-1)] = backing[lo:hi:hi]
		}
		lo = hi
	}
	return pages
}

// eachNode calls fn with every distinct node of every record's match (a
// homomorphism may bind one node twice) and the record's index.
func eachNode(recs run, fn func(id graph.NodeID, i int)) {
	for i, k := range recs {
		for j, id := range k.Match {
			if !slices.Contains(k.Match[:j], id) {
				fn(id, i)
			}
		}
	}
}

// advance derives the next epoch from sn and one commit's net violation
// delta — del ⊆ sn, add disjoint from sn, both key-sorted runs of records —
// without touching sn. Only the chunks the delta falls into and the
// posting pages of the nodes it binds are copied (no map of changes, no
// search), everything else is shared with sn, and an empty delta shares all
// of it. The records of add are stored as they are: the chunks and every
// posting that lists a violation hold its one record until a later commit
// deletes it.
func (sn *Snapshot) advance(add, del run, nodes, edges int) *Snapshot {
	next := &Snapshot{Epoch: sn.Epoch + 1, Nodes: nodes, Edges: edges, all: sn.all, byNode: sn.byNode}
	if len(add)+len(del) == 0 {
		return next
	}
	next.all = sn.all.Apply(add, del)

	// every (distinct match node, side, index) as one change, node<<32 |
	// side<<31 | i, side 0 for add and 1 for del: sorted, a node's changes
	// lie together, its adds before its deletes and each in key order
	changes := make([]uint64, 0, 2*(len(add)+len(del)))
	for side, r := range [2]run{add, del} {
		eachNode(r, func(id graph.NodeID, i int) {
			changes = append(changes, uint64(id)<<32|uint64(side)<<31|uint64(i))
		})
	}
	slices.Sort(changes)

	top := int(changes[len(changes)-1]>>32) >> pageBits
	next.byNode = make([]*page, max(len(sn.byNode), top+1))
	copy(next.byNode, sn.byNode)
	var pg *page // this epoch's copy of the page the changes are in
	for cur := -1; len(changes) > 0; {
		id := graph.NodeID(changes[0] >> 32)
		n, a := 0, 0 // the node's changes, and its adds among them
		for n < len(changes) && changes[n]>>32 == changes[0]>>32 {
			if changes[n]&delSide == 0 {
				a++
			}
			n++
		}
		adds, dels := changes[:a], changes[a:n]
		changes = changes[n:]

		if int(id>>pageBits) != cur {
			cur, pg = int(id>>pageBits), new(page)
			if old := next.byNode[cur]; old != nil {
				*pg = *old
			}
			next.byNode[cur] = pg
		}
		old := pg[id&(pageSize-1)]
		size := len(old) + len(adds) - len(dels)
		if size == 0 {
			pg[id&(pageSize-1)] = nil
			continue
		}
		// one pass over the old posting: drop what dels names (every one is
		// in it, in the same order), interleave adds
		p := make([]*core.Keyed, 0, size)
		for i, k := range old {
			if len(adds)+len(dels) == 0 {
				p = append(p, old[i:]...)
				break
			}
			if len(dels) > 0 && k.Key == del[uint32(dels[0])&^delSide].Key {
				dels = dels[1:]
				continue
			}
			for len(adds) > 0 && add[uint32(adds[0])].Key < k.Key {
				p = append(p, add[uint32(adds[0])])
				adds = adds[1:]
			}
			p = append(p, k)
		}
		for _, a := range adds {
			p = append(p, add[uint32(a)])
		}
		pg[id&(pageSize-1)] = p
	}
	return next
}

// delSide is the side bit of a packed change in advance: set for a delete.
const delSide = 1 << 31
