package graph_test

// Regression coverage for the bitset seen-sets that replaced the throwaway
// map[NodeID]struct{} in the Neighborhood BFS: on the fuzz-workload graphs
// the results must match a map-based reference BFS exactly (membership and
// discovery order), on the graph and on a fork of it, including across
// pooled-set reuse where a stale bit would surface as a missing node.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ngd/internal/gen"
	"ngd/internal/graph"
)

// refNeighborhood is the map-based reference BFS NeighborhoodOf replaced.
func refNeighborhood(g *graph.Graph, seeds []graph.NodeID, d int) []graph.NodeID {
	seen := make(map[graph.NodeID]struct{}, len(seeds))
	var frontier, result []graph.NodeID
	for _, s := range seeds {
		if _, ok := seen[s]; ok {
			continue
		}
		seen[s] = struct{}{}
		frontier = append(frontier, s)
		result = append(result, s)
	}
	for hop := 0; hop < d && len(frontier) > 0; hop++ {
		var next []graph.NodeID
		for _, u := range frontier {
			visit := func(v graph.NodeID) {
				if _, ok := seen[v]; ok {
					return
				}
				seen[v] = struct{}{}
				next = append(next, v)
				result = append(result, v)
			}
			for _, h := range g.Out(u) {
				visit(h.To)
			}
			for _, h := range g.In(u) {
				visit(h.To)
			}
		}
		frontier = next
	}
	return result
}

func TestNeighborhoodMatchesMapReference(t *testing.T) {
	for _, p := range []gen.Profile{gen.DBpedia, gen.YAGO2, gen.Pokec, gen.Synthetic} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", p.Name, seed), func(t *testing.T) {
				t.Parallel()
				ds := gen.Generate(p, 120, seed)
				g := ds.G
				delta := gen.RandomDelta(ds, gen.DeltaConfig{Size: gen.DeltaSize(g, 0.2), Gamma: 1, Seed: seed}).Normalize(g)
				applied := g.Clone()
				delta.Apply(applied)
				// the fork row: G ⊕ ΔG, whose untouched pages are G's
				for _, row := range []struct {
					name string
					g    *graph.Graph
				}{{"graph", g}, {"fork", applied}} {
					rnd := rand.New(rand.NewSource(seed * 97))
					// single- and multi-seed queries at every relevant radius;
					// repeated calls reuse pooled bitsets, so a stale bit from
					// an earlier (larger) query would show up here
					for trial := 0; trial < 40; trial++ {
						k := 1 + rnd.Intn(4)
						seeds := make([]graph.NodeID, 0, k+1)
						for i := 0; i < k; i++ {
							seeds = append(seeds, graph.NodeID(rnd.Intn(g.NumNodes())))
						}
						if trial%3 == 0 {
							seeds = append(seeds, seeds[0]) // duplicate seed
						}
						d := rnd.Intn(6)
						got := graph.NeighborhoodOf(row.g, seeds, d)
						want := refNeighborhood(row.g, seeds, d)
						if !slices.Equal(got, want) {
							t.Fatalf("%s trial %d (seeds %v, d=%d): %v, want %v",
								row.name, trial, seeds, d, got, want)
						}
					}
				}
			})
		}
	}
}
