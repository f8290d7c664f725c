package session

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"ngd/internal/core"
	"ngd/internal/graph"
)

// Snapshot is an immutable, consistent view of a session at one commit
// epoch, and the only representation of the violation set the session
// keeps: Vio(Σ, G) sorted by canonical key in chunks of at most chunkBound
// entries, plus the same violations posted under every node they bind.
// Epoch e is derived from epoch e−1 by advance, inside the commit, from the
// commit's reconciled ΔVio⁺/ΔVio⁻ (the paper's Vio(Σ, G⊕ΔG) = Vio(Σ, G) ∪
// ΔVio⁺ ∖ ΔVio⁻), copying only the chunks and postings the delta falls
// into; published epochs are never touched, so any number of concurrent
// readers can serve from a Snapshot while the session commits
// (internal/serve relies on this for snapshot-isolated reads).
type Snapshot struct {
	// Epoch is the commit count at capture (0 = the seeded store).
	Epoch int
	// Nodes and Edges are |V| and |E| as of the commit that produced the
	// epoch: a node added to the graph after that commit is counted by the
	// epoch that absorbs it, not before.
	Nodes, Edges int

	all chunked
	// byNode posts every violation under each distinct node of its match:
	// a posting is the node's records in key order, each violation one
	// *core.Keyed that every posting listing it shares. The map is sharded
	// by id (id >> nodeShardBits) so the per-commit copy-on-write is
	// O(|V|/shard size + touched shards), not O(distinct violating nodes).
	byNode map[graph.NodeID]nodeShard
}

// nodeShard holds the postings of one contiguous id range; cloned
// wholesale when a commit touches any of its nodes.
type nodeShard map[graph.NodeID][]*core.Keyed

const nodeShardBits = 8

// Len reports |Vio(Σ, G)| at the snapshot's epoch.
func (sn *Snapshot) Len() int { return sn.all.Len() }

// All is the whole store in key order.
func (sn *Snapshot) All() Range { return Range{sn.all, 0, sn.all.Len()} }

// Violations returns the snapshot's violations sorted by canonical key,
// materialised: O(|Vio|) for a store of more than one chunk, so page
// through All for anything but a full listing. Read-only, like every slice
// a Snapshot returns.
func (sn *Snapshot) Violations() []core.Violation {
	_, vios := sn.All().Page(-1)
	return vios
}

// Get looks up a violation by its canonical key: one binary search for the
// chunk, one inside it.
func (sn *Snapshot) Get(key string) (core.Violation, bool) {
	if ci := sn.all.home(key); ci >= 0 {
		ch := sn.all.chunks[ci]
		if i := ch.seek(key); i < ch.Len() && ch.keys[i] == key {
			return ch.vios[i], true
		}
	}
	return core.Violation{}, false
}

// Has reports whether the snapshot holds a violation with the given key.
func (sn *Snapshot) Has(key string) bool {
	_, ok := sn.Get(key)
	return ok
}

// Posting returns the records of the violations whose match binds node n,
// in key order: the snapshot's own slice, no copy, read-only. This is the
// posting as inc.Store reads it.
func (sn *Snapshot) Posting(n graph.NodeID) []*core.Keyed { return sn.byNode[n>>nodeShardBits][n] }

// Node returns the violations whose match binds node n, in key order: a
// copy, O(posting).
func (sn *Snapshot) Node(n graph.NodeID) []core.Violation {
	_, vios := sn.Posted(n).Page(-1)
	return vios
}

// Posted is Node as a Range, for paging and for narrowing to one rule. The
// run it pages is built from the posting, O(posting).
func (sn *Snapshot) Posted(n graph.NodeID) Range {
	p := sn.Posting(n)
	if len(p) == 0 {
		return Range{}
	}
	r := run{make([]string, len(p)), make([]core.Violation, len(p))}
	for i, k := range p {
		r.keys[i], r.vios[i] = k.Key, k.Violation
	}
	return Range{chunked{[]run{r}, r.keys[:1], []int{0, r.Len()}}, 0, r.Len()}
}

// Range is a stretch of one epoch's key-sorted violations — the whole
// store, a node's posting, or one rule's share of either — by position, so
// narrowing and paging cost binary searches, not copies.
type Range struct {
	c      chunked
	lo, hi int
}

func (r Range) Len() int { return r.hi - r.lo }

// from is the position of the first key ≥ key, kept inside the range.
func (r Range) from(key string) int { return min(max(r.c.seek(key), r.lo), r.hi) }

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

// Page returns the first limit entries of r, or all of them when limit < 0,
// each key beside its violation. A page that lies inside one chunk aliases
// the snapshot's storage; one that crosses a boundary is a copy.
func (r Range) Page(limit int) ([]string, []core.Violation) {
	n := r.Len()
	if limit >= 0 && limit < n {
		n = limit
	}
	if n == 0 {
		return nil, nil
	}
	ci := sort.SearchInts(r.c.offs, r.lo+1) - 1
	i := r.lo - r.c.offs[ci]
	if ch := r.c.chunks[ci]; i+n <= ch.Len() {
		return ch.keys[i : i+n : i+n], ch.vios[i : i+n : i+n]
	}
	out := run{make([]string, 0, n), make([]core.Violation, 0, n)}
	for ; out.Len() < n; ci, i = ci+1, 0 {
		ch := r.c.chunks[ci]
		j := min(ch.Len(), i+n-out.Len())
		out.keys = append(out.keys, ch.keys[i:j]...)
		out.vios = append(out.vios, ch.vios[i:j]...)
	}
	return out.keys, out.vios
}

// run is a list of violations in ascending canonical-key order, each key
// held beside its violation so lookups and merges compare strings instead
// of re-deriving Key(). It implements sort.Interface for the two places a
// run is put in order: the boot path (whole store) and a commit's Δ.
type run struct {
	keys []string
	vios []core.Violation
}

func (r run) Len() int           { return len(r.keys) }
func (r run) Less(i, j int) bool { return r.keys[i] < r.keys[j] }
func (r run) Swap(i, j int) {
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
	r.vios[i], r.vios[j] = r.vios[j], r.vios[i]
}

func (r *run) push(k string, v core.Violation) {
	r.keys = append(r.keys, k)
	r.vios = append(r.vios, v)
}

// seek returns the position of the first key ≥ key.
func (r run) seek(key string) int { return sort.SearchStrings(r.keys, key) }

// slice is r[i:j], capped so that nothing can append over its neighbours.
func (r run) slice(i, j int) run { return run{r.keys[i:j:j], r.vios[i:j:j]} }

// merge returns r ∖ del ∪ add as a fresh run, leaving r untouched (it is
// shared with published epochs). All three are key-sorted; one pass over
// the changes, block-copying the stretches of r between them. A del key r
// does not hold is ignored; an add key must not be in r ∖ del. Merging into
// an empty run returns add itself (at boot, or into a store the last commit
// emptied; apply then cuts it into chunks).
func (r run) merge(add, del run) run {
	if len(r.keys) == 0 {
		return add
	}
	n := len(r.keys) + len(add.keys)
	out := run{make([]string, 0, n), make([]core.Violation, 0, n)}
	i := 0 // next unread entry of r
	copyTo := func(j int) {
		out.keys = append(out.keys, r.keys[i:j]...)
		out.vios = append(out.vios, r.vios[i:j]...)
		i = j
	}
	for a, d := 0, 0; a < len(add.keys) || d < len(del.keys); {
		if d == len(del.keys) || a < len(add.keys) && add.keys[a] < del.keys[d] {
			copyTo(i + sort.SearchStrings(r.keys[i:], add.keys[a]))
			out.push(add.keys[a], add.vios[a])
			a++
		} else {
			copyTo(i + sort.SearchStrings(r.keys[i:], del.keys[d]))
			if i < len(r.keys) && r.keys[i] == del.keys[d] {
				i++
			}
			d++
		}
	}
	copyTo(len(r.keys))
	return out
}

// chunkBound is the most entries one chunk of the store holds; a commit
// copies the chunks its delta falls into, so it is also the unit of a
// commit's copying.
const chunkBound = 512

// chunked is the store's two-level sorted array: non-empty runs of at most
// chunkBound entries in ascending key order, with each chunk's first key
// and starting position held beside them for the binary searches. The
// chunks of one epoch are shared with the next unless a change falls into
// them; the top level is copied per commit (|Vio|/chunkBound entries).
type chunked struct {
	chunks []run
	first  []string // first[i] == chunks[i].keys[0]
	offs   []int    // offs[i] entries precede chunk i; offs[len(chunks)] is Len
}

func (c chunked) Len() int {
	if len(c.offs) == 0 {
		return 0
	}
	return c.offs[len(c.chunks)]
}

// home returns the chunk whose stretch of the key space holds key: the last
// one that starts at or below it, -1 when key sorts before the whole store.
func (c chunked) home(key string) int {
	return sort.Search(len(c.first), func(i int) bool { return c.first[i] > key }) - 1
}

// seek returns the position in the whole store of the first key ≥ key.
func (c chunked) seek(key string) int {
	ci := c.home(key)
	if ci < 0 {
		return 0
	}
	return c.offs[ci] + c.chunks[ci].seek(key)
}

// apply returns c ∖ del ∪ add without touching c, under run.merge's
// contract. It walks the changes once: a chunk no change falls into is
// shared with c, the others are re-merged, then dropped when emptied, cut
// into even pieces when over the bound, and joined with a neighbour when
// under a quarter of it — without that a delete-heavy stream leaves
// one-entry chunks behind and the top level creeps back toward |Vio|.
func (c chunked) apply(add, del run) chunked {
	if add.Len()+del.Len() == 0 {
		return c
	}
	if len(c.chunks) == 0 {
		c.chunks = []run{{}} // boot, or a store the last commit emptied: one empty chunk to merge into
	}
	out := make([]run, 0, len(c.chunks)+1+add.Len()/chunkBound)
	put := func(m run) {
		if n := len(out); n > 0 && 0 < m.Len() && m.Len() < chunkBound/4 {
			m = out[n-1].merge(m, run{}) // every key of m is past the neighbour's
			out = out[:n-1]
		}
		for pieces := (m.Len() + chunkBound - 1) / chunkBound; pieces > 0; pieces-- {
			n := m.Len() / pieces
			out = append(out, m.slice(0, n))
			m = m.slice(n, m.Len())
		}
	}
	i := 0 // next unread chunk of c
	for a, d := 0, 0; a < add.Len() || d < del.Len(); {
		// the chunk the next change falls into, and the changes it shares it
		// with: those below the following chunk's first key
		var k string
		if d == del.Len() || a < add.Len() && add.keys[a] < del.keys[d] {
			k = add.keys[a]
		} else {
			k = del.keys[d]
		}
		ci := max(i, c.home(k))
		a2, d2 := add.Len(), del.Len()
		if ci+1 < len(c.chunks) {
			a2 = a + sort.SearchStrings(add.keys[a:], c.first[ci+1])
			d2 = d + sort.SearchStrings(del.keys[d:], c.first[ci+1])
		}
		out = append(out, c.chunks[i:ci]...)
		m := c.chunks[ci].merge(add.slice(a, a2), del.slice(d, d2))
		a, d, i = a2, d2, ci+1
		if len(out) == 0 && 0 < m.Len() && m.Len() < chunkBound/4 && i < len(c.chunks) {
			// no left neighbour to join: its entries ride into the right one
			add, a = m.merge(add.slice(a, add.Len()), run{}), 0
			continue
		}
		put(m)
	}
	out = append(out, c.chunks[i:]...)

	next := chunked{out, make([]string, len(out)), make([]int, len(out)+1)}
	for i, ch := range out {
		next.first[i] = ch.keys[0]
		next.offs[i+1] = next.offs[i] + ch.Len()
	}
	return next
}

// newSnapshot builds epoch 0 from an unordered violation list (a seeding
// detection run, or a persisted store): the one whole-store sort the
// session ever pays, then the same advance every later epoch goes through.
func newSnapshot(vios []core.Violation, nodes, edges int) *Snapshot {
	all := run{make([]string, len(vios)), slices.Clone(vios)}
	for i, v := range vios {
		all.keys[i] = v.Key()
	}
	sort.Sort(all)
	// the keyed store holds one violation per key
	w := 0
	for i, k := range all.keys {
		if i == 0 || k != all.keys[w-1] {
			all.keys[w], all.vios[w] = k, all.vios[i]
			w++
		}
	}
	return (&Snapshot{Epoch: -1}).advance(run{all.keys[:w], all.vios[:w]}, run{}, nodes, edges)
}

// advance derives the next epoch from sn and one commit's net violation
// delta — del ⊆ sn, add disjoint from sn, both key-sorted — without
// touching sn. Only the chunks the delta falls into and the postings of the
// nodes it binds are rebuilt (no map of changes, no search), everything
// else is shared with sn, and an empty delta shares all of it. Each added
// violation becomes one record, which every posting that lists it shares
// until a later commit deletes it.
func (sn *Snapshot) advance(add, del run, nodes, edges int) *Snapshot {
	next := &Snapshot{Epoch: sn.Epoch + 1, Nodes: nodes, Edges: edges, all: sn.all, byNode: sn.byNode}
	if add.Len()+del.Len() == 0 {
		return next
	}
	next.all = sn.all.apply(add, del)

	recs := make([]*core.Keyed, add.Len())
	for i, k := range add.keys {
		recs[i] = &core.Keyed{Key: k, Violation: add.vios[i]}
	}
	// every (distinct match node, side, index) as one change, node<<32 |
	// side<<31 | i, side 0 for add and 1 for del: sorted, a node's changes
	// lie together, its adds before its deletes and each in key order
	changes := make([]uint64, 0, 2*(add.Len()+del.Len()))
	for side, r := range [2]run{add, del} {
		for i, v := range r.vios {
			for j, id := range v.Match {
				if slices.Contains(v.Match[:j], id) {
					continue // a homomorphism may bind one node twice
				}
				changes = append(changes, uint64(id)<<32|uint64(side)<<31|uint64(i))
			}
		}
	}
	slices.Sort(changes)

	next.byNode = make(map[graph.NodeID]nodeShard, len(sn.byNode))
	maps.Copy(next.byNode, sn.byNode)
	cloned := make(map[graph.NodeID]bool)
	for len(changes) > 0 {
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

		s := id >> nodeShardBits
		if !cloned[s] {
			cloned[s] = true
			sh := make(nodeShard, len(next.byNode[s])+1)
			maps.Copy(sh, next.byNode[s])
			next.byNode[s] = sh
		}
		// a shard the commit empties stays, empty: at most |V|/shard size
		sh := next.byNode[s]
		old := sh[id]
		size := len(old) + len(adds) - len(dels)
		if size == 0 {
			delete(sh, id)
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
			if len(dels) > 0 && k.Key == del.keys[uint32(dels[0])&^delSide] {
				dels = dels[1:]
				continue
			}
			for len(adds) > 0 && recs[uint32(adds[0])].Key < k.Key {
				p = append(p, recs[uint32(adds[0])])
				adds = adds[1:]
			}
			p = append(p, k)
		}
		for _, a := range adds {
			p = append(p, recs[uint32(a)])
		}
		sh[id] = p
	}
	return next
}

// delSide is the side bit of a packed change in advance: set for a delete.
const delSide = 1 << 31
