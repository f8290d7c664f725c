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
// keeps: Vio(Σ, G) as one run sorted by canonical key, plus the same
// violations posted under every node they bind. Epoch e is derived from
// epoch e−1 by advance, inside the commit, from the commit's reconciled
// ΔVio⁺/ΔVio⁻ (the paper's Vio(Σ, G⊕ΔG) = Vio(Σ, G) ∪ ΔVio⁺ ∖ ΔVio⁻);
// published epochs are never touched, so any number of concurrent readers
// can serve from a Snapshot while the session commits (internal/serve
// relies on this for snapshot-isolated reads).
type Snapshot struct {
	// Epoch is the commit count at capture (0 = the seeded store).
	Epoch int
	// Nodes and Edges are |V| and |E| as of the commit that produced the
	// epoch: a node added to the graph after that commit is counted by the
	// epoch that absorbs it, not before.
	Nodes, Edges int

	all run
	// byNode posts every violation under each distinct node of its match.
	// The map is sharded by id (id >> nodeShardBits) so the per-commit
	// copy-on-write is O(|V|/shard size + touched shards), not O(distinct
	// violating nodes).
	byNode map[graph.NodeID]nodeShard
}

// nodeShard holds the posting runs of one contiguous id range; cloned
// wholesale when a commit touches any of its nodes.
type nodeShard map[graph.NodeID]run

const nodeShardBits = 8

// Len reports |Vio(Σ, G)| at the snapshot's epoch.
func (sn *Snapshot) Len() int { return sn.all.Len() }

// Violations returns the snapshot's violations sorted by canonical key.
// The slice is shared and must be treated as read-only, like every slice a
// Snapshot returns.
func (sn *Snapshot) Violations() []core.Violation { return sn.all.vios }

// Get looks up a violation by its canonical key.
func (sn *Snapshot) Get(key string) (core.Violation, bool) {
	i := sn.all.seek(key)
	if i == len(sn.all.keys) || sn.all.keys[i] != key {
		return core.Violation{}, false
	}
	return sn.all.vios[i], true
}

// Has reports whether the snapshot holds a violation with the given key.
func (sn *Snapshot) Has(key string) bool {
	_, ok := sn.Get(key)
	return ok
}

// Rule returns the violations of the named rule in key order: the range of
// the run whose keys start with "<name>:". Rule names never contain ':'
// (core.New rejects it), so the range holds that rule's violations only.
func (sn *Snapshot) Rule(name string) []core.Violation {
	if strings.Contains(name, ":") {
		return nil
	}
	// ';' is ':'+1: the first key past the prefix
	return sn.all.vios[sn.all.seek(name+":"):sn.all.seek(name+";")]
}

// Node returns the violations whose match binds node n, in key order.
func (sn *Snapshot) Node(n graph.NodeID) []core.Violation { return sn.node(n).vios }

func (sn *Snapshot) node(n graph.NodeID) run { return sn.byNode[n>>nodeShardBits][n] }

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

// merge returns r ∖ del ∪ add as a fresh run, leaving r untouched (it is
// shared with published epochs). All three are key-sorted; one pass over
// the changes, block-copying the stretches of r between them. A del key r
// does not hold is ignored; an add key must not be in r ∖ del. Merging into
// an empty run returns add itself (every posting at boot, every first
// posting of a node).
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
// touching sn. The run is merged in one pass (no sort, no map), only the
// postings of nodes the delta binds are edited, with the same merge, and an
// empty delta shares all of the predecessor's storage.
func (sn *Snapshot) advance(add, del run, nodes, edges int) *Snapshot {
	next := &Snapshot{Epoch: sn.Epoch + 1, Nodes: nodes, Edges: edges, all: sn.all, byNode: sn.byNode}
	if add.Len()+del.Len() == 0 {
		return next
	}
	next.all = sn.all.merge(add, del)

	// each node's share of add ([0]) and del ([1]): sub-runs, so sorted
	changes := make(map[graph.NodeID]*[2]run, add.Len()+del.Len())
	for side, r := range [2]run{add, del} {
		for i, v := range r.vios {
			for j, id := range v.Match {
				if slices.Contains(v.Match[:j], id) {
					continue // a homomorphism may bind one node twice
				}
				c := changes[id]
				if c == nil {
					c = new([2]run)
					changes[id] = c
				}
				c[side].push(r.keys[i], v)
			}
		}
	}

	next.byNode = make(map[graph.NodeID]nodeShard, len(sn.byNode))
	maps.Copy(next.byNode, sn.byNode)
	cloned := make(map[graph.NodeID]bool)
	for id, c := range changes {
		s := id >> nodeShardBits
		if !cloned[s] {
			cloned[s] = true
			sh := make(nodeShard, len(next.byNode[s])+1)
			maps.Copy(sh, next.byNode[s])
			next.byNode[s] = sh
		}
		// a shard the commit empties stays, empty: at most |V|/shard size
		sh := next.byNode[s]
		if p := sh[id].merge(c[0], c[1]); p.Len() > 0 {
			sh[id] = p
		} else {
			delete(sh, id)
		}
	}
	return next
}
