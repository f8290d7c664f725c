// Package gen generates the evaluation workloads of the paper (§7):
// synthetic attributed graphs with controllable size and label alphabets,
// plus profile generators that mimic the statistics of the three real-life
// graphs (DBpedia, YAGO2, Pokec) the paper uses — label-type counts, edge
// density and numeric-attribute structure — at a configurable scale.
//
// Substitution note (see DESIGN.md): the original datasets are large dumps
// we do not ship; the profiles reproduce the properties detection cost
// depends on (label selectivity, degree distribution, neighborhood size,
// numeric invariants with seeded error injection) so the paper's relative
// measurements remain reproducible.
//
// Every entity carries a star of numeric property nodes obeying invariants
// the companion rule generator (rules.go) turns into NGDs:
//
//	p0 = "score"; relation edges connect entities with |Δscore| ≤ MaxDrift
//	p3 = p1 + p2                (sum invariant, φ2-style)
//	p4 ≥ p5                     (order invariant)
//	flag = 1 ⇒ p2 = 7           (conditional constant, CFD/GFD-style)
//
// A fraction ErrorRate of entities is corrupted, breaking one invariant
// each; the generator returns the injected-error log as ground truth for
// the Exp-5 effectiveness study.
//
// Workloads (workloads.go) is the differential table: the rows every suite
// that checks a fast path against internal/ref iterates, with the Σ
// transforms (Unprunable, NodeRule, LitPathRules) and the seeded batch
// stream each row runs.
package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"ngd/internal/graph"
)

// Profile parameterizes a generated graph family.
type Profile struct {
	Name         string
	EntityTypes  int     // number of entity labels T0..T{k-1}
	RelLabels    int     // number of relation labels R0..R{m-1}
	EdgesPerNode float64 // average relation out-edges per entity
	ValueRange   int64   // scores/values drawn from [0, ValueRange)
	MaxDrift     int64   // max |score(x)−score(y)| across a relation edge
	ErrorRate    float64 // fraction of entities corrupted
	// HubFrac of the entities are hubs that attract "follows" edges
	// (HubFanIn per entity on average) — the skewed degree distribution of
	// real graphs that makes workload balancing matter (§6.3).
	HubFrac  float64
	HubFanIn float64
}

// The paper's three real-life graphs, scaled: label-type counts match §7
// (DBpedia: 200 node/160 edge types; YAGO2: 13/36; Pokec: 269/11) and
// edges-per-node ratios match the reported |E|/|V|.
var (
	DBpedia = Profile{Name: "dbpedia", EntityTypes: 200, RelLabels: 160,
		EdgesPerNode: 1.2, ValueRange: 100000, MaxDrift: 500, ErrorRate: 0.02,
		HubFrac: 0.004, HubFanIn: 0.2}
	YAGO2 = Profile{Name: "yago2", EntityTypes: 13, RelLabels: 36,
		EdgesPerNode: 2.1, ValueRange: 100000, MaxDrift: 500, ErrorRate: 0.02,
		HubFrac: 0.004, HubFanIn: 0.25}
	Pokec = Profile{Name: "pokec", EntityTypes: 269, RelLabels: 11,
		EdgesPerNode: 12.0, ValueRange: 100000, MaxDrift: 500, ErrorRate: 0.02,
		HubFrac: 0.006, HubFanIn: 0.6}
	// Synthetic follows §7: labels drawn from an alphabet of 500 symbols,
	// attribute values from 2000 integers.
	Synthetic = Profile{Name: "synthetic", EntityTypes: 400, RelLabels: 100,
		EdgesPerNode: 1.5, ValueRange: 2000, MaxDrift: 200, ErrorRate: 0.02,
		HubFrac: 0.004, HubFanIn: 0.3}
)

// ProfileByName resolves one of the four built-in profiles.
func ProfileByName(name string) (Profile, bool) {
	switch name {
	case "dbpedia":
		return DBpedia, true
	case "yago2":
		return YAGO2, true
	case "pokec":
		return Pokec, true
	case "synthetic":
		return Synthetic, true
	}
	return Profile{}, false
}

// ErrorKind classifies an injected inconsistency.
type ErrorKind uint8

// Injected error kinds, one per invariant.
const (
	ErrScore ErrorKind = iota // corrupted score (breaks drift rules)
	ErrSum                    // p3 ≠ p1 + p2
	ErrOrder                  // p4 < p5
	ErrFlag                   // flag=1 but p2 ≠ 7
)

func (k ErrorKind) String() string {
	switch k {
	case ErrScore:
		return "score-drift"
	case ErrSum:
		return "sum"
	case ErrOrder:
		return "order"
	default:
		return "flag-const"
	}
}

// InjectedError records a seeded inconsistency (ground truth for Exp-5).
type InjectedError struct {
	Entity graph.NodeID
	Kind   ErrorKind
}

// Dataset is a generated graph plus its provenance.
type Dataset struct {
	G        *graph.Graph
	Profile  Profile
	Entities []graph.NodeID // entity nodes, in creation order
	Hubs     []graph.NodeID // high-in-degree entities ("follows" targets)
	// ScoreOrder lists entity indices sorted by true score — the graph's
	// topological layout (backbone and relation edges connect
	// score-adjacent entities), used to pick topologically-local regions.
	ScoreOrder []int
	Errors     []InjectedError
	// PropNode[i][p] is the property-p value node of entity i
	// (indices 0..5 = p0..p5, 6 = flag).
	PropNode [][7]graph.NodeID
}

// PropLabels are the property edge labels in PropNode order.
var PropLabels = [7]string{"p0", "p1", "p2", "p3", "p4", "p5", "flag"}

// Generate builds a graph with n entities under the profile,
// deterministically from seed.
func Generate(p Profile, n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	ds := &Dataset{G: g, Profile: p}
	if n <= 0 {
		return ds
	}

	valAttr := g.Symbols().Attr("val")
	intLabel := g.Symbols().Label("integer")
	trueScore := make([]int64, n) // used for topology
	types := make([]int, n)

	addProp := func(ent graph.NodeID, label string, v int64) graph.NodeID {
		pn := g.AddNodeL(intLabel)
		g.SetAttrA(pn, valAttr, graph.Int(v))
		g.AddEdge(ent, pn, label)
		return pn
	}

	for i := 0; i < n; i++ {
		t := rng.Intn(p.EntityTypes)
		types[i] = t
		ent := g.AddNode(fmt.Sprintf("T%d", t))
		ds.Entities = append(ds.Entities, ent)

		score := rng.Int63n(p.ValueRange)
		trueScore[i] = score
		stored := score
		p1 := rng.Int63n(p.ValueRange)
		p2 := rng.Int63n(p.ValueRange)
		if rng.Float64() < 0.3 {
			p2 = 7 // make the flag-constant invariant commonly exercised
		}
		p3 := p1 + p2
		p5 := rng.Int63n(p.ValueRange)
		p4 := p5 + rng.Int63n(100)
		flag := int64(0)
		if p2 == 7 && rng.Float64() < 0.5 {
			flag = 1
		}

		// error injection: corrupt exactly one invariant per bad entity
		if rng.Float64() < p.ErrorRate {
			switch k := ErrorKind(rng.Intn(4)); k {
			case ErrScore:
				// topology still uses the true score; the stored value
				// drifts, so this entity's relation edges violate the
				// drift rules.
				stored = score + p.ValueRange + p.MaxDrift*10
				ds.Errors = append(ds.Errors, InjectedError{ent, ErrScore})
			case ErrSum:
				p3 += 1 + rng.Int63n(50)
				ds.Errors = append(ds.Errors, InjectedError{ent, ErrSum})
			case ErrOrder:
				p4 = p5 - 1 - rng.Int63n(100)
				ds.Errors = append(ds.Errors, InjectedError{ent, ErrOrder})
			case ErrFlag:
				flag = 1
				p2 = 8 + rng.Int63n(100)
				p3 = p1 + p2 // keep the sum invariant intact: single fault
				ds.Errors = append(ds.Errors, InjectedError{ent, ErrFlag})
			}
		}

		var props [7]graph.NodeID
		props[0] = addProp(ent, "p0", stored)
		props[1] = addProp(ent, "p1", p1)
		props[2] = addProp(ent, "p2", p2)
		props[3] = addProp(ent, "p3", p3)
		props[4] = addProp(ent, "p4", p4)
		props[5] = addProp(ent, "p5", p5)
		props[6] = addProp(ent, "flag", flag)
		ds.PropNode = append(ds.PropNode, props)
	}

	// Relation edges: connect entities with nearby true scores so the
	// drift invariant |Δp0| ≤ MaxDrift holds on every edge by construction
	// — except around entities whose stored score was corrupted, whose
	// incident edges become the violations the drift rules catch.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if trueScore[order[a]] != trueScore[order[b]] {
			return trueScore[order[a]] < trueScore[order[b]]
		}
		return order[a] < order[b]
	})
	rank := make([]int, n)
	for r, i := range order {
		rank[i] = r
	}
	ds.ScoreOrder = append([]int(nil), order...)
	totalEdges := int(float64(n) * p.EdgesPerNode)
	for e := 0; e < totalEdges; e++ {
		i := rng.Intn(n)
		w := 1 + rng.Intn(8)
		r := rank[i] + w
		if rng.Intn(2) == 0 {
			r = rank[i] - w
		}
		if r < 0 || r >= n {
			continue
		}
		j := order[r]
		if j == i || abs64(trueScore[i]-trueScore[j]) > p.MaxDrift {
			continue // score gap too large (sparse score regions)
		}
		g.AddEdge(ds.Entities[i], ds.Entities[j], relLabel(p, types[i], types[j]))
	}

	// Backbone "next" edges chain score-adjacent entities, giving the rule
	// generator guaranteed-match path patterns of any length (diameter
	// sweeps up to dΣ = 6); "peer" edges are reciprocal pairs for cyclic
	// patterns. Both respect the drift bound.
	for r := 0; r+1 < n; r++ {
		i, j := order[r], order[r+1]
		if abs64(trueScore[i]-trueScore[j]) > p.MaxDrift {
			continue
		}
		if rng.Float64() < 0.8 {
			g.AddEdge(ds.Entities[i], ds.Entities[j], "next")
		}
		if rng.Float64() < 0.1 {
			g.AddEdge(ds.Entities[i], ds.Entities[j], "peer")
			g.AddEdge(ds.Entities[j], ds.Entities[i], "peer")
		}
	}

	// Hubs: a small set of entities attracts "follows" edges from across
	// the graph, giving the skewed (power-law-ish) in-degree distribution
	// of real social/knowledge graphs. Expanding a pattern through a hub's
	// adjacency is exactly the straggler work unit the paper's hybrid
	// balancing strategy targets.
	nHubs := int(float64(n) * p.HubFrac)
	if p.HubFanIn > 0 && nHubs < 1 {
		nHubs = 1
	}
	for h := 0; h < nHubs; h++ {
		ds.Hubs = append(ds.Hubs, ds.Entities[rng.Intn(n)])
	}
	if nHubs > 0 {
		followEdges := int(float64(n) * p.HubFanIn)
		for e := 0; e < followEdges; e++ {
			src := ds.Entities[rng.Intn(n)]
			// Zipf-ish hub choice: hub 0 twice as popular as hub 1, etc.
			hi := 0
			for hi < nHubs-1 && rng.Intn(2) == 1 {
				hi++
			}
			dst := ds.Hubs[hi]
			if src != dst {
				g.AddEdge(src, dst, "follows")
			}
		}
	}
	return ds
}

// RelForTypes exposes the deterministic type-pair → relation-label mapping,
// so a caller can add the relation edge the generator would have added.
func RelForTypes(p Profile, ti, tj int) string { return relLabel(p, ti, tj) }

func relLabel(p Profile, ti, tj int) string {
	return fmt.Sprintf("R%d", (ti*7+tj*13)%p.RelLabels)
}

// EntityType parses the type index of an entity node label "T<k>".
func EntityType(g *graph.Graph, v graph.NodeID) int {
	var t int
	fmt.Sscanf(g.LabelName(v), "T%d", &t)
	return t
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
