// Package partition fragments a graph across p workers by edge-cut
// (paper §6.3: PIncDect works on a graph partitioned via edge-cut or
// vertex-cut; the paper's experiments use METIS). Two partitioners are
// provided:
//
//   - Hash: stateless modulo assignment (baseline).
//   - Greedy: a single-pass streaming partitioner in the spirit of
//     Fennel/LDG — each node goes to the fragment holding most of its
//     already-placed neighbors, penalized by fragment load — which, like
//     METIS, keeps fragments balanced while reducing crossing edges.
//
// Fragmentation drives worker ownership of update pivots and the
// communication-cost accounting of the parallel engine: an edge whose
// endpoints live in different fragments is a crossing edge.
package partition

import (
	"ngd/internal/graph"
)

// Partition assigns every node to one of p fragments.
type Partition struct {
	P    int
	Frag []int32 // Frag[v] = fragment of node v
	load []int   // node count per fragment
}

// Owner returns the fragment owning node v. Nodes added to the graph after
// the partition was built fall back to modulo placement, so Owner never
// indexes out of range or goes negative.
func (pt *Partition) Owner(v graph.NodeID) int {
	if int(v) >= len(pt.Frag) {
		return int(v) % pt.P
	}
	return int(pt.Frag[v])
}

// Worker maps node v's fragment onto one of p shard workers. When the
// partition has more fragments than the run has workers, consecutive
// fragments fold onto workers modulo p; with p ≥ P the mapping is the
// fragment itself. This keeps pivot placement fragment-local — the locality
// the paper's Figure 3 lines 1–2 assume — without requiring the partition
// and the run to agree on a size.
func (pt *Partition) Worker(v graph.NodeID, p int) int {
	if p < 1 {
		p = 1
	}
	return pt.Owner(v) % p
}

// newPartition allocates a partition for n placed nodes.
func newPartition(p, n int) *Partition {
	if p < 1 {
		p = 1
	}
	return &Partition{P: p, Frag: make([]int32, n), load: make([]int, p)}
}

// Hash partitions nodes round-robin by id.
func Hash(g *graph.Graph, p int) *Partition {
	pt := newPartition(p, g.NumNodes())
	for v := range pt.Frag {
		f := v % pt.P
		pt.Frag[v] = int32(f)
		pt.load[f]++
	}
	return pt
}

// capacity is the hard per-fragment bound for n placed nodes: 10% slack
// over perfect balance, plus one.
func (pt *Partition) capacity(n int) int {
	return (n*11)/(10*pt.P) + 1
}

// neighborScores tallies, per fragment, how many of v's already-placed
// neighbors (id < len(Frag), self-loops excluded) live there — Greedy's
// affinity objective.
func (pt *Partition) neighborScores(g *graph.Graph, v graph.NodeID, scores []int) {
	for i := range scores {
		scores[i] = 0
	}
	for _, h := range g.Out(v) {
		if int(h.To) < len(pt.Frag) && h.To != v {
			scores[pt.Frag[h.To]]++
		}
	}
	for _, h := range g.In(v) {
		if int(h.To) < len(pt.Frag) && h.To != v {
			scores[pt.Frag[h.To]]++
		}
	}
}

// place greedily assigns node v: the fragment with the highest neighbor
// affinity minus a linear load penalty, under the capacity bound. n is the
// total node count the load penalty is normalized against.
func (pt *Partition) place(g *graph.Graph, v graph.NodeID, scores []int, capacity, n int) int {
	pt.neighborScores(g, v, scores)
	best, bestScore := -1, -1<<30
	for i := 0; i < pt.P; i++ {
		if pt.load[i] >= capacity {
			continue
		}
		// neighbor affinity minus a linear load penalty, scaled so the
		// penalty matters once fragments diverge by >2% of |V|/p
		s := scores[i]*50*pt.P - pt.load[i]*pt.P*50/(n+1)
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	if best < 0 {
		best = int(v) % pt.P // all at capacity (can't happen with slack > 1)
	}
	return best
}

// Greedy streams nodes in id order, placing each on the fragment with the
// highest score: (#neighbors already there) − load_penalty. Balance is
// enforced with a hard capacity of ⌈1.1·|V|/p⌉ per fragment.
func Greedy(g *graph.Graph, p int) *Partition {
	n := g.NumNodes()
	pt := newPartition(p, 0)
	capacity := pt.capacity(n)
	scores := make([]int, pt.P)
	for v := 0; v < n; v++ {
		best := pt.place(g, graph.NodeID(v), scores, capacity, n)
		pt.Frag = append(pt.Frag, int32(best))
		pt.load[best]++
	}
	return pt
}

// CrossingEdges counts edges whose endpoints are in different fragments
// (the edge-cut objective). Unplaced nodes count at their Owner fallback.
func (pt *Partition) CrossingEdges(g *graph.Graph) int {
	cut := 0
	for v := 0; v < g.NumNodes(); v++ {
		fv := pt.Owner(graph.NodeID(v))
		for _, h := range g.Out(graph.NodeID(v)) {
			if fv != pt.Owner(h.To) {
				cut++
			}
		}
	}
	return cut
}

// Loads returns the node count per fragment (placed nodes only).
func (pt *Partition) Loads() []int {
	return append([]int(nil), pt.load...)
}
