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
// ΔVio⁺ ∖ ΔVio⁻), copying only the chunks, directories and leaves the delta
// falls into; published epochs are never touched, so any number of concurrent
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
	// chunks hold. Postings sit in a two-level radix over node ids, a top
	// table of directories of leaves, nil wherever no node below has one;
	// a commit copies the top table and the directories and leaves its
	// changes fall into.
	byNode []*dir
}

// A leaf holds the postings of leafSize consecutive node ids, a dir the
// leaves of dirSize consecutive leaves.
type (
	leaf [leafSize][]*core.Keyed
	dir  [dirSize]*leaf
)

const (
	leafBits = 4
	leafSize = 1 << leafBits
	dirBits  = 6
	dirSize  = 1 << dirBits
	// dirShift turns a node id into its directory's index in the top table
	dirShift = leafBits + dirBits
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
	if i := uint32(n) >> dirShift; i < uint32(len(sn.byNode)) && sn.byNode[i] != nil {
		if l := sn.byNode[i][n>>leafBits&(dirSize-1)]; l != nil {
			return l[n&(leafSize-1)]
		}
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
// records, then fill every posting in key order into one backing array and
// cut the leaves and directories that hold one from one slab each. Those
// arrays live as long as any posting, leaf or directory cut from them does.
func postAll(recs run) []*dir {
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
	sum, leaves, dirs, lastLeaf, lastDir := 0, 0, 0, -1, -1
	for v, n := range at {
		if n > 0 && v>>leafBits != lastLeaf {
			leaves, lastLeaf = leaves+1, v>>leafBits
			if v>>dirShift != lastDir {
				dirs, lastDir = dirs+1, v>>dirShift
			}
		}
		at[v], sum = sum, sum+n
	}
	backing := make([]*core.Keyed, sum)
	eachNode(recs, func(id graph.NodeID, i int) {
		backing[at[id]] = recs[i]
		at[id]++
	})
	leafSlab, dirSlab := make([]leaf, leaves), make([]dir, dirs)
	table := make([]*dir, top>>dirShift+1)
	lo := 0
	for v, hi := range at {
		if hi > lo {
			d := table[v>>dirShift]
			if d == nil {
				d, dirSlab = &dirSlab[0], dirSlab[1:]
				table[v>>dirShift] = d
			}
			l := d[v>>leafBits&(dirSize-1)]
			if l == nil {
				l, leafSlab = &leafSlab[0], leafSlab[1:]
				d[v>>leafBits&(dirSize-1)] = l
			}
			l[v&(leafSize-1)] = backing[lo:hi:hi]
		}
		lo = hi
	}
	return table
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
// without touching sn. Only the chunks the delta falls into, the radix's
// top table, and the directories and leaves over the nodes it binds are
// copied, everything else is shared with sn, and an empty delta shares all
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
	// side<<31 | i, side 0 for add and 1 for del, listed in (side, i) order:
	// sorted stably by node, a node's changes lie together, its adds before
	// its deletes and each in key order
	most := 0
	for _, r := range [2]run{add, del} {
		for _, k := range r {
			most += len(k.Match)
		}
	}
	buf := make([]uint64, 2*most)
	changes, spare := buf[:0:most], buf[most:]
	for side, r := range [2]run{add, del} {
		eachNode(r, func(id graph.NodeID, i int) {
			changes = append(changes, uint64(id)<<32|uint64(side)<<31|uint64(i))
		})
	}
	changes = sortByNode(changes, spare[:len(changes)])

	last := int(changes[len(changes)-1]>>32) >> dirShift
	next.byNode = make([]*dir, max(len(sn.byNode), last+1))
	copy(next.byNode, sn.byNode)
	for len(changes) > 0 {
		d, n := int(changes[0]>>32)>>dirShift, alike(changes, dirShift)
		next.byNode[d] = editDir(next.byNode[d], changes[:n], add, del)
		changes = changes[n:]
	}
	return next
}

// sortByNode sorts changes stably by node, the top 32 bits: a radix sort,
// one pass for each byte of the largest node id, through spare (as long as
// changes) and back. It returns whichever of the two holds the result.
func sortByNode(changes, spare []uint64) []uint64 {
	var top uint64
	for _, c := range changes {
		top = max(top, c>>32)
	}
	for shift := 32; top>>(shift-32) > 0; shift += 8 {
		var at [256 + 1]int
		for _, c := range changes {
			at[c>>shift&0xff+1]++
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, c := range changes {
			spare[at[c>>shift&0xff]] = c
			at[c>>shift&0xff]++
		}
		changes, spare = spare, changes
	}
	return changes
}

// alike is how many of changes, from the first, name a node in the first's
// stretch of 1<<shift ids.
func alike(changes []uint64, shift int) int {
	n := 1
	for n < len(changes) && changes[n]>>(32+shift) == changes[0]>>(32+shift) {
		n++
	}
	return n
}

// editDir is a copy of d with changes, all of them under d, applied; nil
// once no leaf of it holds a posting.
func editDir(d *dir, changes []uint64, add, del run) *dir {
	next := new(dir)
	if d != nil {
		*next = *d
	}
	for len(changes) > 0 {
		l, n := int(changes[0]>>(32+leafBits))&(dirSize-1), alike(changes, leafBits)
		next[l] = editLeaf(next[l], changes[:n], add, del)
		changes = changes[n:]
	}
	if *next == (dir{}) {
		return nil
	}
	return next
}

// editLeaf is a copy of l with changes, all of them under l, applied; nil
// once none of its postings holds a record.
func editLeaf(l *leaf, changes []uint64, add, del run) *leaf {
	next := new(leaf)
	if l != nil {
		*next = *l
	}
	for len(changes) > 0 {
		n, a := alike(changes, 0), 0 // the node's changes, and its adds among them
		for a < n && changes[a]&delSide == 0 {
			a++
		}
		slot := changes[0] >> 32 & (leafSize - 1)
		next[slot] = editPosting(next[slot], changes[:a], changes[a:n], add, del)
		changes = changes[n:]
	}
	for _, p := range next {
		if p != nil {
			return next
		}
	}
	return nil
}

// editPosting is old without the records dels names (every one is in it,
// in the same order, the very record) and with those adds names, each
// placed by a binary search of what is left of old.
func editPosting(old []*core.Keyed, adds, dels []uint64, add, del run) []*core.Keyed {
	size := len(old) + len(adds) - len(dels)
	if size == 0 {
		return nil
	}
	p := make([]*core.Keyed, 0, size)
	for _, a := range adds {
		k := add[uint32(a)]
		at, hi := 0, len(old) // the first old key above k's
		for at < hi {
			if h := int(uint(at+hi) >> 1); old[h].Key < k.Key {
				at = h + 1
			} else {
				hi = h
			}
		}
		p, dels = appendKept(p, old[:at], dels, del)
		p, old = append(p, k), old[at:]
	}
	p, _ = appendKept(p, old, dels, del)
	return p
}

// appendKept appends the records of seg to p but those dels names, and
// returns the dels not met in seg.
func appendKept(p, seg []*core.Keyed, dels []uint64, del run) ([]*core.Keyed, []uint64) {
	for i, k := range seg {
		if len(dels) == 0 {
			return append(p, seg[i:]...), dels
		}
		if k == del[uint32(dels[0])&^delSide] {
			dels = dels[1:]
			continue
		}
		p = append(p, k)
	}
	return p, dels
}

// delSide is the side bit of a packed change in advance: set for a delete.
const delSide = 1 << 31
