package gen

import "testing"

func TestDeltaSizeAndGamma(t *testing.T) {
	ds := Generate(YAGO2, 300, 1)
	for _, gamma := range []float64{0.5, 1, 3} {
		d := RandomDelta(ds, DeltaConfig{Size: 200, Gamma: gamma, Seed: 2})
		ins, del := len(d.Insertions()), len(d.Deletions())
		if ins+del < 190 || ins+del > 210 {
			t.Errorf("γ=%v: |ΔG| = %d, want ≈200", gamma, ins+del)
		}
		ratio := float64(ins) / float64(del)
		if ratio < gamma*0.7 || ratio > gamma*1.4 {
			t.Errorf("γ=%v: measured ratio %v", gamma, ratio)
		}
	}
}

func TestDeltaSize(t *testing.T) {
	ds := Generate(YAGO2, 100, 1)
	if got := DeltaSize(ds.G, 0.1); got != ds.G.NumEdges()/10 {
		t.Errorf("DeltaSize = %d, want %d", got, ds.G.NumEdges()/10)
	}
}

func TestDeltaDeterministic(t *testing.T) {
	mk := func() int {
		ds := Generate(Pokec, 200, 5)
		d := RandomDelta(ds, DeltaConfig{Size: 100, Gamma: 1, Seed: 9})
		return d.Len()
	}
	if mk() != mk() {
		t.Error("update generation not deterministic")
	}
}

func TestDeltaDeletionsExist(t *testing.T) {
	ds := Generate(YAGO2, 200, 3)
	d := RandomDelta(ds, DeltaConfig{Size: 100, Gamma: 1, Seed: 4})
	for _, op := range d.Deletions() {
		if !ds.G.HasEdgeL(op.Src, op.Dst, op.Label) {
			t.Fatalf("deletion of non-existent edge %v", op)
		}
	}
}

func TestDeltaNewEntityInsertions(t *testing.T) {
	ds := Generate(YAGO2, 200, 3)
	before := ds.G.NumNodes()
	d := RandomDelta(ds, DeltaConfig{Size: 400, Gamma: 4, Seed: 4})
	if ds.G.NumNodes() <= before {
		t.Error("large insert-heavy ΔG should add new entity nodes")
	}
	// all inserted edges reference valid nodes
	for _, op := range d.Insertions() {
		if int(op.Src) >= ds.G.NumNodes() || int(op.Dst) >= ds.G.NumNodes() {
			t.Fatalf("insertion references missing node: %v", op)
		}
	}
}

func TestDeltaHotspotConcentration(t *testing.T) {
	ds := Generate(Pokec, 500, 7)
	hot := RandomDelta(ds, DeltaConfig{Size: 300, Gamma: 1, Seed: 8, Hotspot: 0.9, HotRegion: 0.05})
	uniform := RandomDelta(ds, DeltaConfig{Size: 300, Gamma: 1, Seed: 8, Hotspot: -1})

	// measure source-entity spread: hot deltas touch fewer distinct sources
	hotSrcs := map[int32]bool{}
	for _, op := range hot.Ops {
		hotSrcs[int32(op.Src)] = true
	}
	uniSrcs := map[int32]bool{}
	for _, op := range uniform.Ops {
		uniSrcs[int32(op.Src)] = true
	}
	if len(hotSrcs) >= len(uniSrcs) {
		t.Errorf("hotspot updates touch %d sources, uniform %d — expected concentration",
			len(hotSrcs), len(uniSrcs))
	}
}

func TestDeltaZeroSize(t *testing.T) {
	ds := Generate(YAGO2, 50, 1)
	if d := RandomDelta(ds, DeltaConfig{Size: 0, Gamma: 1, Seed: 1}); d.Len() != 0 {
		t.Error("size 0 should produce empty delta")
	}
}
