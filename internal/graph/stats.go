package graph

// This file implements LiveStats: the maintained statistics the cost-based
// planner (internal/plan) scores matching orders with, kept current under
// mutation:
//
//   - label cardinalities (delegated to the byLabel buckets, which the graph
//     maintains anyway);
//   - per-(node label, edge label) half-edge totals, so the expected fan-out
//     of following an edge label from a node of a given label is one map
//     lookup plus a division;
//   - a monotone churn counter ticking on every structural or attribute
//     mutation, which the plan cache uses for drift-threshold invalidation.
//
// The structure is built lazily on first use (one O(|E|) scan of the current
// adjacency, counted per node-label bucket) and maintained incrementally by
// AddNodeL / AddEdgeL / DeleteEdgeL / SetAttrA afterwards — (*Graph).Apply
// goes through those, so batch commits keep the stats current for free.
// Clone drops the stats (the clone rebuilds on demand), keeping copies
// independent.

// degKey indexes the fan-out aggregates: half-edges with edge label `edge`
// incident to nodes carrying node label `node`.
type degKey struct {
	node LabelID
	edge LabelID
}

// LiveStats holds maintained planning statistics for one graph. Reads are
// safe concurrently with other reads; mutation follows the owning graph's
// single-writer discipline.
type LiveStats struct {
	outRuns map[degKey]int // Σ over v with label(v)=node of |run(out(v), edge)|
	inRuns  map[degKey]int // same for in-adjacency
	outTot  map[LabelID]int
	inTot   map[LabelID]int
	churn   uint64
}

// LiveStatted is implemented by views that expose maintained statistics:
// *Graph natively, *Overlay by delegating to its base (ΔG is small relative
// to G, so base stats are the right estimate for planning over G ⊕ ΔG).
type LiveStatted interface {
	LiveStats() *LiveStats
}

var (
	_ LiveStatted = (*Graph)(nil)
	_ LiveStatted = (*Overlay)(nil)
)

// LiveStats returns the maintained statistics, building them on first use
// with one scan of the current graph: each node label's bucket counts its
// half-edges into dense rows indexed by edge label (every label a graph
// carries is interned in its symbol table), and the rows are folded into
// the maps once per bucket — one map write per (node label, edge label)
// pair instead of four per edge.
func (g *Graph) LiveStats() *LiveStats {
	if g.stats != nil {
		return g.stats
	}
	st := &LiveStats{
		outRuns: make(map[degKey]int),
		inRuns:  make(map[degKey]int),
		outTot:  make(map[LabelID]int),
		inTot:   make(map[LabelID]int),
	}
	nl := g.syms.NumLabels()
	outRow, inRow := make([]int, nl), make([]int, nl)
	outTot, inTot := make([]int, nl), make([]int, nl)
	var touched []LabelID // the edge labels the current bucket counted
	for l, bucket := range g.byLabel {
		for _, v := range bucket {
			for _, h := range g.Out(v) {
				if outRow[h.Label]+inRow[h.Label] == 0 {
					touched = append(touched, h.Label)
				}
				outRow[h.Label]++
			}
			for _, h := range g.In(v) {
				if outRow[h.Label]+inRow[h.Label] == 0 {
					touched = append(touched, h.Label)
				}
				inRow[h.Label]++
			}
		}
		for _, el := range touched {
			if n := outRow[el]; n > 0 {
				st.outRuns[degKey{l, el}] = n
				outTot[el] += n
			}
			if n := inRow[el]; n > 0 {
				st.inRuns[degKey{l, el}] = n
				inTot[el] += n
			}
			outRow[el], inRow[el] = 0, 0
		}
		touched = touched[:0]
	}
	for el := range nl {
		if n := outTot[el]; n > 0 {
			st.outTot[LabelID(el)] = n
		}
		if n := inTot[el]; n > 0 {
			st.inTot[LabelID(el)] = n
		}
	}
	g.stats = st
	return st
}

// LiveStats delegates to the base graph (overlays never drift far from it).
func (o *Overlay) LiveStats() *LiveStats { return o.base.LiveStats() }

// noteEdge maintains the aggregates for one edge (u -label-> v) appearing
// (d=+1) or disappearing (d=-1).
func (g *Graph) noteEdge(u, v NodeID, label LabelID, d int) {
	st := g.stats
	if st == nil {
		return
	}
	st.bump(st.outRuns, degKey{g.Label(u), label}, d)
	st.bump(st.inRuns, degKey{g.Label(v), label}, d)
	st.bumpTot(st.outTot, label, d)
	st.bumpTot(st.inTot, label, d)
	st.churn++
}

// noteChurn ticks the churn counter for mutations that shift planning inputs
// without moving edge aggregates (node arrivals, attribute writes).
func (g *Graph) noteChurn() {
	if g.stats != nil {
		g.stats.churn++
	}
}

func (st *LiveStats) bump(m map[degKey]int, k degKey, d int) {
	if n := m[k] + d; n > 0 {
		m[k] = n
	} else {
		delete(m, k)
	}
}

func (st *LiveStats) bumpTot(m map[LabelID]int, k LabelID, d int) {
	if n := m[k] + d; n > 0 {
		m[k] = n
	} else {
		delete(m, k)
	}
}

// Churn reports the total number of mutations observed since the stats were
// built. Monotone; the plan cache compares deltas against a threshold to
// decide when cached matching orders are stale enough to rebuild.
func (st *LiveStats) Churn() uint64 { return st.churn }

// OutFan estimates the mean number of out half-edges carrying edge label el
// on a node of label l (Wildcard: the global mean over all nodes). Zero when
// no such half-edge exists — the planner reads that as "this extension
// cannot produce candidates". v supplies the label cardinalities (pass the
// view being planned over; overlays delegate to the same base counts).
func (st *LiveStats) OutFan(v View, l, el LabelID) float64 {
	return fan(st.outRuns, st.outTot, v, l, el)
}

// InFan is OutFan for the in-adjacency.
func (st *LiveStats) InFan(v View, l, el LabelID) float64 {
	return fan(st.inRuns, st.inTot, v, l, el)
}

func fan(runs map[degKey]int, tot map[LabelID]int, v View, l, el LabelID) float64 {
	if el == NoLabel {
		return 0
	}
	if l == Wildcard {
		n := v.NumNodes()
		if n == 0 {
			return 0
		}
		return float64(tot[el]) / float64(n)
	}
	c := v.CountLabel(l)
	if c == 0 {
		return 0
	}
	return float64(runs[degKey{l, el}]) / float64(c)
}

// HalfEdges reports the total number of half-edges with edge label el
// incident (outgoing for out=true) to nodes of label l — the exact size of
// the candidate population an anchored scan over that (label, edge) pair
// can ever touch.
func (st *LiveStats) HalfEdges(l, el LabelID, out bool) int {
	m := st.inRuns
	if out {
		m = st.outRuns
	}
	return m[degKey{l, el}]
}
