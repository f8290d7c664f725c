package gen

// Batch updates ΔG for the incremental-detection experiments (paper §7: ΔG
// is random, controlled by |ΔG| and the ratio γ of edge insertions to
// deletions, γ = 1 unless stated otherwise).
//
// Deletions remove random existing edges (links only; nodes stay, matching
// the paper's unit-update semantics). Insertions are a mix of new relation
// edges between existing entities (random pairs often break the drift
// invariant, producing ΔVio⁺) and entirely new entities arriving with their
// property stars (new nodes + edges, the paper's "insertions possibly
// introduce new nodes").

import (
	"fmt"
	"math/rand"

	"ngd/internal/graph"
)

// DeltaConfig controls ΔG generation.
type DeltaConfig struct {
	Size  int     // number of unit updates |ΔG|
	Gamma float64 // insertions : deletions ratio (γ); 1 keeps |G| steady
	Seed  int64
	// Hotspot is the fraction of updates concentrated in a contiguous
	// HotRegion-sized window of the entity space, modelling the bursty,
	// regional update streams of real graphs (a crawl refreshing one
	// domain, one community going viral). Regional updates are what skews
	// per-fragment pivot counts and makes workload balancing matter.
	// Defaults: Hotspot 0.55, HotRegion 0.04 (a burst window comfortably
	// inside one fragment at p ≤ 20). Set Hotspot to -1 for fully uniform
	// updates.
	Hotspot   float64
	HotRegion float64
	// Sevens gives an arriving entity's seventh property the value 7 (else
	// 0), which NodeRule forbids: the arrival's violation reaches the
	// store through per-node absorption alone.
	Sevens bool
}

// DeltaSize converts a fraction of |E| into a unit-update count (the paper
// varies |ΔG| as 5%–40% of |G|).
func DeltaSize(g *graph.Graph, frac float64) int {
	return int(frac * float64(g.NumEdges()))
}

// RandomDelta generates ΔG against the dataset's graph. New entities are added
// to the graph's node set immediately (isolated until their edges apply);
// edge ops go into the returned delta. The delta may contain duplicates and
// ops that are no-ops against G — the consuming paths all coalesce it:
// session.Commit normalizes once before pivot generation (and absorbs the
// new nodes), while IncDect/PIncDect normalize internally when driven
// directly.
func RandomDelta(ds *Dataset, cfg DeltaConfig) *graph.Delta {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &graph.Delta{}
	if cfg.Size <= 0 {
		return d
	}
	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = 1
	}
	hotspot := cfg.Hotspot
	if hotspot == 0 {
		hotspot = 0.55
	}
	if hotspot < 0 {
		hotspot = 0
	}
	region := cfg.HotRegion
	if region <= 0 {
		region = 0.04
	}
	nEnt := len(ds.Entities)
	hotLo := 0
	if w := int(float64(nEnt) * region); w < nEnt {
		hotLo = rng.Intn(nEnt - w)
	}
	hotW := int(float64(nEnt) * region)
	if hotW < 1 {
		hotW = 1
	}
	pickEntity := func() int {
		if rng.Float64() < hotspot && len(ds.ScoreOrder) == nEnt {
			// a topologically-contiguous region: a window in score order
			return ds.ScoreOrder[hotLo+rng.Intn(hotW)]
		}
		return rng.Intn(nEnt)
	}

	inserts := int(float64(cfg.Size) * gamma / (1 + gamma))
	deletes := cfg.Size - inserts

	genDeletes(ds, rng, deletes, d, pickEntity)
	seventh := int64(0)
	if cfg.Sevens {
		seventh = 7
	}
	genInserts(ds, rng, inserts, seventh, d, pickEntity)
	return d
}

func genDeletes(ds *Dataset, rng *rand.Rand, n int, d *graph.Delta, pickEntity func() int) {
	g := ds.G
	if g.NumNodes() == 0 || len(ds.Entities) == 0 {
		return
	}
	attempts := 0
	for done := 0; done < n && attempts < n*20; attempts++ {
		// delete an edge in the 1-hop vicinity of a (possibly hot-region)
		// entity: either one of its own edges or a property edge
		u := ds.Entities[pickEntity()]
		out := g.Out(u)
		if len(out) == 0 {
			continue
		}
		h := out[rng.Intn(len(out))]
		d.Delete(u, h.To, h.Label)
		done++
	}
}

func genInserts(ds *Dataset, rng *rand.Rand, n int, seventh int64, d *graph.Delta, pickEntity func() int) {
	g := ds.G
	nEnt := len(ds.Entities)
	if nEnt < 2 {
		return
	}
	syms := g.Symbols()
	valAttr := syms.Attr("val")
	intLabel := syms.Label("integer")
	nextLabel := syms.Label("next")
	peerLabel := syms.Label("peer")

	followsLabel := syms.Label("follows")

	budget := n
	for budget > 0 {
		switch r := rng.Float64(); {
		case r < 0.1 && len(ds.Hubs) > 0:
			// follow a hub: the pivot lands on a skewed adjacency list
			i := pickEntity()
			hub := ds.Hubs[rng.Intn(len(ds.Hubs))]
			if ds.Entities[i] == hub {
				continue
			}
			d.Insert(ds.Entities[i], hub, followsLabel)
			budget--
		case r < 0.5:
			// relation edge between random existing entities
			i, j := pickEntity(), rng.Intn(nEnt)
			if i == j {
				continue
			}
			ti := EntityType(g, ds.Entities[i])
			tj := EntityType(g, ds.Entities[j])
			lbl := syms.Label(relLabel(ds.Profile, ti, tj))
			d.Insert(ds.Entities[i], ds.Entities[j], lbl)
			budget--
		case r < 0.7:
			i, j := pickEntity(), rng.Intn(nEnt)
			if i == j {
				continue
			}
			d.Insert(ds.Entities[i], ds.Entities[j], nextLabel)
			budget--
		case r < 0.8:
			i, j := pickEntity(), rng.Intn(nEnt)
			if i == j || budget < 2 {
				continue
			}
			d.Insert(ds.Entities[i], ds.Entities[j], peerLabel)
			d.Insert(ds.Entities[j], ds.Entities[i], peerLabel)
			budget -= 2
		default:
			// a new entity arriving with its property star
			if budget < 8 {
				i, j := pickEntity(), rng.Intn(nEnt)
				if i == j {
					continue
				}
				d.Insert(ds.Entities[i], ds.Entities[j], nextLabel)
				budget--
				continue
			}
			t := rng.Intn(ds.Profile.EntityTypes)
			ent := g.AddNode(fmt.Sprintf("T%d", t))
			p1 := rng.Int63n(ds.Profile.ValueRange)
			p2 := rng.Int63n(ds.Profile.ValueRange)
			p5 := rng.Int63n(ds.Profile.ValueRange)
			vals := [7]int64{rng.Int63n(ds.Profile.ValueRange), p1, p2, p1 + p2, p5 + rng.Int63n(100), p5, seventh}
			if rng.Float64() < ds.Profile.ErrorRate*4 {
				vals[3] += 1 + rng.Int63n(50) // fresh dirty data: broken sum
			}
			for k := 0; k < 7; k++ {
				pn := g.AddNodeL(intLabel)
				g.SetAttrA(pn, valAttr, graph.Int(vals[k]))
				d.Insert(ent, pn, syms.Label(PropLabels[k]))
			}
			// link it near a random entity
			j := pickEntity()
			d.Insert(ds.Entities[j], ent, nextLabel)
			budget -= 8
		}
	}
}
