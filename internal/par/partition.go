package par

import "ngd/internal/graph"

// partition assigns every node to one of p fragments by edge-cut (paper
// §6.3: PIncDect works on a graph partitioned via edge-cut or vertex-cut;
// the paper's experiments use METIS). PIncDect owns each update pivot by
// its source node's fragment, which is what skews the per-worker load the
// hybrid strategy then rebalances.
type partition struct {
	p    int
	frag []int32 // frag[v] = fragment of node v
	load []int   // node count per fragment
}

// owner returns the fragment owning node v. Nodes added to the graph after
// the partition was built fall back to modulo placement, so owner never
// indexes out of range or goes negative.
func (pt *partition) owner(v graph.NodeID) int {
	if int(v) >= len(pt.frag) {
		return int(v) % pt.p
	}
	return int(pt.frag[v])
}

// worker maps node v's fragment onto one of p shard workers. When the
// partition has more fragments than the run has workers, consecutive
// fragments fold onto workers modulo p; with p ≥ the fragment count the
// mapping is the fragment itself. This keeps pivot placement
// fragment-local — the locality the paper's Figure 3 lines 1–2 assume —
// without requiring the partition and the run to agree on a size.
func (pt *partition) worker(v graph.NodeID, p int) int {
	if p < 1 {
		p = 1
	}
	return pt.owner(v) % p
}

// newPartition allocates a partition for n placed nodes.
func newPartition(p, n int) *partition {
	if p < 1 {
		p = 1
	}
	return &partition{p: p, frag: make([]int32, n), load: make([]int, p)}
}

// greedy streams nodes in id order, placing each on the fragment with the
// highest score: (#neighbors already there) − load_penalty, in the spirit of
// Fennel/LDG. Like METIS it keeps fragments balanced — a hard capacity of
// ⌈1.1·|V|/p⌉ per fragment — while cutting few edges.
func greedy(g *graph.Graph, p int) *partition {
	n := g.NumNodes()
	pt := newPartition(p, 0)
	capacity := (n*11)/(10*pt.p) + 1
	scores := make([]int, pt.p)
	for v := 0; v < n; v++ {
		best := pt.place(g, graph.NodeID(v), scores, capacity, n)
		pt.frag = append(pt.frag, int32(best))
		pt.load[best]++
	}
	return pt
}

// place greedily assigns node v: the fragment with the highest neighbor
// affinity minus a linear load penalty, under the capacity bound. n is the
// total node count the load penalty is normalized against.
func (pt *partition) place(g *graph.Graph, v graph.NodeID, scores []int, capacity, n int) int {
	// affinity: how many of v's already-placed neighbors (id < len(frag),
	// self-loops excluded) live in each fragment
	clear(scores)
	for _, list := range [2][]graph.Half{g.Out(v), g.In(v)} {
		for _, h := range list {
			if int(h.To) < len(pt.frag) && h.To != v {
				scores[pt.frag[h.To]]++
			}
		}
	}
	best, bestScore := -1, -1<<30
	for i := 0; i < pt.p; i++ {
		if pt.load[i] >= capacity {
			continue
		}
		// neighbor affinity minus a linear load penalty, scaled so the
		// penalty matters once fragments diverge by >2% of |V|/p
		s := scores[i]*50*pt.p - pt.load[i]*pt.p*50/(n+1)
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	if best < 0 {
		best = int(v) % pt.p // all at capacity (can't happen with slack > 1)
	}
	return best
}
