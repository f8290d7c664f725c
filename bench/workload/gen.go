// Package workload generates the benchmark's inputs from a seed: a
// yago2-shaped attributed graph in the text graph format, rule sets in the
// rule DSL, a ΔG update file, and sliding-window update request streams in
// the daemon's wire format.
//
// It is the benchmark's own generator on purpose. It imports the standard
// library and the ngd facade only, so edits to internal/gen cannot change
// what the benchmark measures, and a golden test pins the sha256 of every
// generated input. The program under test receives only the generated
// files and requests.
//
// Shape (the statistics detection cost depends on, after the paper's
// YAGO2 figures): 13 entity types, 36 relation labels, 2.1 relation edges
// per entity between score-adjacent entities, a "next"/"peer" backbone, a
// few hubs attracting "follows" edges, and a star of seven integer
// property nodes per entity obeying
//
//	p3 = p1 + p2,  p4 ≥ p5,  flag = 1 ⇒ p2 = 7,  |Δp0| ≤ 500 across edges.
//
// Entity e is node 8e and its property p is node 8e+1+p, so node ids are a
// pure function of the entity index. Everything that decides how much work
// a run does is a fixed count, not a coin flip per entity (corrupted
// entities, fault kinds, hub fan-in), so two seeds give two inputs of the
// same weight.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
)

// Shape constants of the generated graph family.
const (
	EntityTypes = 13
	RelLabels   = 36
	ValueRange  = 100000
	MaxDrift    = 500

	edgesPerEntity = 2.1
	hubFrac        = 0.004
	hubFanIn       = 0.25
	propsPerEntity = 7
	nodesPerEntity = 1 + propsPerEntity
)

// Edge labels are small integers inside the generator; LabelName renders
// them. 0..6 are the property labels p0..p5 and flag.
const (
	labelFlag    = 6
	labelNext    = 7
	labelPeer    = 8
	labelFollows = 9
	labelRel0    = 10
)

// LabelName renders a generator edge label.
func LabelName(l uint8) string {
	switch {
	case l < labelFlag:
		return "p" + strconv.Itoa(int(l))
	case l == labelFlag:
		return "flag"
	case l == labelNext:
		return "next"
	case l == labelPeer:
		return "peer"
	case l == labelFollows:
		return "follows"
	}
	return "R" + strconv.Itoa(int(l)-labelRel0)
}

// Edge is one edge of the generator's model, over node ids.
type Edge struct {
	Src, Dst int32
	Label    uint8
}

// Config sizes one generated graph.
type Config struct {
	Entities  int
	ErrorRate float64 // share of entities corrupted
	Faults    int     // invariants broken per corrupted entity, 1..4
	Seed      int64
}

// Dataset is a generated graph: entity attributes plus the relation,
// backbone and hub edges. Property edges are implicit (every entity has
// all seven).
type Dataset struct {
	Type  []uint8                 // entity type index
	Props [][propsPerEntity]int64 // stored property values, p0..p5 then flag
	Bad   []int32                 // corrupted entities, in corruption order
	Hubs  []int32                 // hub entities
	Edges []Edge                  // non-property edges, in creation order

	score []int64 // true scores: the topology relation edges follow
	order []int   // entities by ascending true score
	rank  []int   // rank[e] is e's position in order
}

// neighbour returns an entity up to eight ranks from e in score order whose
// true score is within the drift bound of e's, or -1 when that rank is off
// the end or across a score gap. An edge between the two keeps the drift
// invariant unless one of the stored scores is corrupted.
func (d *Dataset) neighbour(e int, rng *rand.Rand) int {
	w := 1 + rng.Intn(8)
	if rng.Intn(2) == 0 {
		w = -w
	}
	r := d.rank[e] + w
	if r < 0 || r >= len(d.order) {
		return -1
	}
	if gap := d.score[e] - d.score[d.order[r]]; gap > MaxDrift || gap < -MaxDrift {
		return -1
	}
	return d.order[r]
}

// EntityNode is the node id of entity e.
func EntityNode(e int) int32 { return int32(e * nodesPerEntity) }

// PropNode is the node id of property p of entity e.
func PropNode(e, p int) int32 { return int32(e*nodesPerEntity + 1 + p) }

// EntityOf maps a node id of the generated graph back to its entity; ok is
// false for a property node.
func EntityOf(v int32) (e int, ok bool) { return int(v) / nodesPerEntity, v%nodesPerEntity == 0 }

// NumNodes is |V| of the generated graph.
func (d *Dataset) NumNodes() int { return len(d.Type) * nodesPerEntity }

// NumEdges is |E| of the generated graph.
func (d *Dataset) NumEdges() int { return len(d.Type)*propsPerEntity + len(d.Edges) }

// relLabel is the relation label between two entity types.
func relLabel(ti, tj uint8) uint8 {
	return labelRel0 + uint8((int(ti)*7+int(tj)*13)%RelLabels)
}

// Generate builds a dataset deterministically from cfg.
func Generate(cfg Config) *Dataset {
	n := cfg.Entities
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Dataset{Type: make([]uint8, n), Props: make([][propsPerEntity]int64, n),
		score: make([]int64, n), order: make([]int, n), rank: make([]int, n)}
	score := d.score
	for e := 0; e < n; e++ {
		d.Type[e] = uint8(rng.Intn(EntityTypes))
		score[e] = rng.Int63n(ValueRange)
		p1 := rng.Int63n(ValueRange)
		p2 := rng.Int63n(ValueRange)
		if rng.Intn(10) < 3 {
			p2 = 7
		}
		p5 := rng.Int63n(ValueRange)
		flag := int64(0)
		if p2 == 7 && rng.Intn(2) == 0 {
			flag = 1
		}
		d.Props[e] = [propsPerEntity]int64{score[e], p1, p2, p1 + p2, p5 + rng.Int63n(100), p5, flag}
	}

	// exactly round(rate·n) corrupted entities, fault kinds dealt round-robin
	bad := int(cfg.ErrorRate*float64(n) + 0.5)
	for j, e := range rng.Perm(n)[:bad] {
		d.Bad = append(d.Bad, int32(e))
		p := &d.Props[e]
		for k := 0; k < cfg.Faults; k++ {
			switch (j + k) % 4 {
			case 0: // stored score drifts; topology keeps the true score
				p[0] = score[e] + ValueRange + MaxDrift*10
			case 1:
				p[3] += 1 + rng.Int63n(50)
			case 2:
				p[4] = p[5] - 1 - rng.Int63n(100)
			case 3:
				p[6] = 1
				delta := 8 + rng.Int63n(100) - p[2]
				p[2] += delta
				p[3] += delta // the sum invariant moves with p2
			}
		}
	}

	// relation edges connect entities with nearby true scores, so the drift
	// invariant holds on every edge except around a corrupted score
	for i := range d.order {
		d.order[i] = i
	}
	sort.Slice(d.order, func(a, b int) bool {
		if score[d.order[a]] != score[d.order[b]] {
			return score[d.order[a]] < score[d.order[b]]
		}
		return d.order[a] < d.order[b]
	})
	for r, e := range d.order {
		d.rank[e] = r
	}
	seen := make(map[Edge]struct{})
	add := func(src, dst int, l uint8) {
		e := Edge{EntityNode(src), EntityNode(dst), l}
		if _, dup := seen[e]; dup || src == dst {
			return
		}
		seen[e] = struct{}{}
		d.Edges = append(d.Edges, e)
	}
	for k := int(float64(n) * edgesPerEntity); k > 0; k-- {
		i := rng.Intn(n)
		if j := d.neighbour(i, rng); j >= 0 {
			add(i, j, relLabel(d.Type[i], d.Type[j]))
		}
	}
	for r := 0; r+1 < n; r++ {
		i, j := d.order[r], d.order[r+1]
		if score[j]-score[i] > MaxDrift {
			continue
		}
		if rng.Intn(10) < 8 {
			add(i, j, labelNext)
		}
		if rng.Intn(10) == 0 {
			add(i, j, labelPeer)
			add(j, i, labelPeer)
		}
	}

	// hubs: hub h draws half the follows edges hub h-1 drew, a fixed skew
	hubs := int(float64(n) * hubFrac)
	if hubs < 1 {
		hubs = 1
	}
	for _, e := range rng.Perm(n)[:hubs] {
		d.Hubs = append(d.Hubs, int32(e))
	}
	share := int(float64(n) * hubFanIn / 2)
	for _, hub := range d.Hubs {
		for _, src := range rng.Perm(n)[:share] {
			add(src, int(hub), labelFollows)
		}
		if share > 1 {
			share /= 2
		}
	}
	return d
}

// WriteGraph renders the dataset in the text graph format. Nodes come
// first, in id order, so the loader assigns node id k to "n<k>".
func (d *Dataset) WriteGraph(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for e := range d.Type {
		fmt.Fprintf(bw, "node n%d T%d\n", EntityNode(e), d.Type[e])
		for p, v := range d.Props[e] {
			fmt.Fprintf(bw, "node n%d integer val=%d\n", PropNode(e, p), v)
		}
	}
	for e := range d.Type {
		for p := 0; p < propsPerEntity; p++ {
			fmt.Fprintf(bw, "edge n%d %s n%d\n", EntityNode(e), LabelName(uint8(p)), PropNode(e, p))
		}
	}
	for _, e := range d.Edges {
		fmt.Fprintf(bw, "edge n%d %s n%d\n", e.Src, LabelName(e.Label), e.Dst)
	}
	return bw.Flush()
}

// WriteDelta renders a ΔG update file of frac·|E| unit updates. Half delete
// edges the graph has: every (2/frac)-th edge from a seeded offset, so each
// kind of edge, and each hub's fan-in, loses its exact share whatever the
// seed (one deleted hub edge costs as much as hundreds of others). Half
// insert "next" and relation edges, between score neighbours except for one
// in sixteen that joins a random pair and breaks the drift invariant.
func (d *Dataset) WriteDelta(w io.Writer, frac float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	n := len(d.Type)
	bw := bufio.NewWriter(w)
	half := int(frac * float64(d.NumEdges()) / 2)
	stride := float64(d.NumEdges()) / float64(half)
	at := rng.Float64() * stride
	seen := make(map[Edge]struct{}, len(d.Edges)+half)
	for _, e := range d.Edges {
		seen[e] = struct{}{}
	}
	for k := 0; k < half; k++ {
		e := Edge{}
		if i := int(at + float64(k)*stride); i < len(d.Edges) {
			e = d.Edges[i]
		} else {
			ent, p := (i-len(d.Edges))/propsPerEntity, (i-len(d.Edges))%propsPerEntity
			e = Edge{EntityNode(ent), PropNode(ent, p), uint8(p)}
		}
		fmt.Fprintf(bw, "delete n%d %s n%d\n", e.Src, LabelName(e.Label), e.Dst)

		i, j := rng.Intn(n), rng.Intn(n)
		if rng.Intn(16) != 0 {
			if j = d.neighbour(i, rng); j < 0 {
				continue
			}
		}
		e = Edge{EntityNode(i), EntityNode(j), labelNext}
		if rng.Intn(2) == 0 {
			e.Label = relLabel(d.Type[i], d.Type[j])
		}
		if _, dup := seen[e]; dup || i == j {
			continue
		}
		seen[e] = struct{}{}
		fmt.Fprintf(bw, "insert n%d %s n%d\n", e.Src, LabelName(e.Label), e.Dst)
	}
	return bw.Flush()
}
