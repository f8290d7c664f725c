// Command ngdgen emits synthetic workloads — graph, rule and update files —
// in the formats cmd/ngdcheck consumes, using the paper-profile generators
// (DBpedia/YAGO2/Pokec statistics or the §7 synthetic settings).
//
// Usage:
//
//	ngdgen -profile pokec -n 2000 -rules 50 -delta 0.15 -out dir
package main

import (
	"flag"
	"log"
	"os"
	"path/filepath"

	"ngd/internal/dsl"
	"ngd/internal/gen"
)

var (
	profile   = flag.String("profile", "synthetic", "dbpedia|yago2|pokec|synthetic")
	n         = flag.Int("n", 1000, "entities")
	rules     = flag.Int("rules", 50, "rules in Σ")
	maxDiam   = flag.Int("diameter", 5, "max pattern diameter dΣ")
	deltaFrac = flag.Float64("delta", 0, "also emit an update file of this fraction of |E|")
	seed      = flag.Int64("seed", 1, "RNG seed")
	outDir    = flag.String("out", ".", "output directory")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ngdgen: ")
	flag.Parse()

	p, ok := gen.ProfileByName(*profile)
	if !ok {
		log.Fatalf("unknown profile %q", *profile)
	}
	ds := gen.Generate(p, *n, *seed)
	rs := gen.Rules(p, gen.RuleConfig{Count: *rules, MaxDiameter: *maxDiam, Seed: *seed})

	// The delta must be generated before writing the graph: it may add new
	// nodes, which the graph file must contain.
	var deltaOps = 0
	var deltaOut string
	if *deltaFrac > 0 {
		d := gen.RandomDelta(ds, gen.DeltaConfig{
			Size:  gen.DeltaSize(ds.G, *deltaFrac),
			Gamma: 1,
			Seed:  *seed * 31,
		})
		deltaOut = filepath.Join(*outDir, "delta.txt")
		f, err := os.Create(deltaOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := dsl.WriteDelta(f, ds.G, d); err != nil {
			log.Fatal(err)
		}
		f.Close()
		deltaOps = d.Len()
	}

	gPath := filepath.Join(*outDir, "graph.txt")
	f, err := os.Create(gPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := dsl.WriteGraph(f, ds.G); err != nil {
		log.Fatal(err)
	}
	f.Close()

	rPath := filepath.Join(*outDir, "rules.ngd")
	if err := os.WriteFile(rPath, []byte(dsl.FormatRules(rs)), 0o644); err != nil {
		log.Fatal(err)
	}

	st := ds.G.ComputeStats()
	log.Printf("wrote %s (%d nodes, %d edges), %s (%d rules, dΣ=%d), %d injected errors",
		gPath, st.Nodes, st.Edges, rPath, rs.Len(), rs.Diameter(), len(ds.Errors))
	if deltaOut != "" {
		log.Printf("wrote %s (%d unit updates)", deltaOut, deltaOps)
	}
}
