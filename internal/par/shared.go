package par

// Batch seeding for PDect: Σ's prefix forest (plan.Share) is executed as
// shard work units instead of one sequential depth-first walk, so a shared
// prefix's candidate scan and edge checks are paid once per shard rather
// than once per rule (see engine.expand). Correctness mirrors
// detect.Searcher: for each rule the forest walk restricted to its path
// enumerates exactly the candidates its own plan would, with the literal
// schedule firing at the same levels with the same bindings — so the emitted
// set equals the per-rule search, merely partitioned across shards. The
// differential suites enforce this against Dect on every fuzz workload.

// seedBatch builds the initial units of batch forest f: chunks of each root
// child's seed scan, with every rule's level-0 literal gate evaluated once.
func (e *engine) seedBatch(f *forest) []*unit {
	sh := f.share
	y0 := make([]int, len(sh.Rules))
	alive := make([]bool, len(sh.Rules))
	for ri := range sh.Rules {
		prune, _, y := f.les[ri].EvalLevel(0, e.local(0, f, ri).partial, 0)
		alive[ri] = !prune
		y0[ri] = y
	}
	var units []*unit
	root := &f.nodes[0]
	for k := range root.kids {
		ch := &root.kids[k]
		ySatR := make([]int, len(ch.sn.Rules))
		live := false
		for i, ri := range ch.sn.Rules {
			if alive[ri] {
				ySatR[i] = y0[ri]
				live = true
			} else {
				ySatR[i] = -1
			}
		}
		if !live {
			continue
		}
		rep := e.local(0, f, ch.sn.Rep)
		cnt := rep.m.CandidateCount(0, rep.partial)
		if cnt == 0 {
			continue
		}
		chunk := cnt / (e.opts.P * 4)
		if chunk < 1 {
			chunk = 1
		}
		for lo := 0; lo < cnt; lo += chunk {
			hi := lo + chunk
			if hi > cnt {
				hi = cnt
			}
			units = append(units, &unit{
				nd: ch, pivotRank: -1, pivotSlot: -1,
				ySatR: append([]int(nil), ySatR...),
				lo:    lo, hi: hi,
			})
		}
	}
	return units
}
