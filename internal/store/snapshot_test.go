package store

// The snapshot decoder builds its graph through graph.Builder; these tests
// hold it to the one-at-a-time mutators at the byte level (the structural
// half of that oracle is internal/graph's TestBuilderMatchesMutators), and
// to its promise about hostile input: counts are read before the CRC is
// checked, so no count may size an allocation.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ngd/internal/gen"
	"ngd/internal/graph"
)

// TestBuilderSnapshotBytesMatchMutators: a graph the decoder lays out in
// bulk encodes to the bytes of the graph the mutators built — for every
// generator profile, and for a hand-encoded file that lists attributes and
// edges the way no writer would (unsorted, repeated, self-loops).
func TestBuilderSnapshotBytesMatchMutators(t *testing.T) {
	for _, p := range []gen.Profile{gen.DBpedia, gen.YAGO2, gen.Pokec, gen.Synthetic} {
		orig := snapshotBytes(t, gen.Generate(p, 150, 11).G)
		sd, err := readSnapshot(bytes.NewReader(orig))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !bytes.Equal(snapshotBytes(t, sd.G), orig) {
			t.Errorf("%s: decoded graph encodes to different bytes", p.Name)
		}
	}

	g := graph.New()
	person, place := g.Symbols().Label("person"), g.Symbols().Label("place")
	knows := g.Symbols().Label("knows")
	age, name := g.Symbols().Attr("age"), g.Symbols().Attr("name")
	a, b, c := g.AddNodeL(person), g.AddNodeL(place), g.AddNodeL(person)
	g.SetAttrA(a, name, graph.Str("a"))
	g.SetAttrA(a, age, graph.Int(2))
	g.SetAttrA(c, age, graph.Int(5))
	for _, e := range [][2]graph.NodeID{{a, c}, {a, a}, {a, b}, {c, a}, {c, b}} {
		g.AddEdgeL(e[0], e[1], knows)
	}
	g.AddEdgeL(a, b, place)

	var buf bytes.Buffer
	w := newCWriter(&buf)
	w.write([]byte(snapMagic))
	w.u32(codecVer)
	w.u64(0)
	w.uvarint(3)
	for _, s := range []string{"person", "place", "knows"} {
		w.str(s)
	}
	w.uvarint(2)
	w.str("age")
	w.str("name")
	w.uvarint(3) // nodes
	w.uvarint(uint64(person))
	w.uvarint(3) // name, then age twice: last wins, tuple sorted by id
	w.uvarint(uint64(name))
	w.value(graph.Str("a"))
	w.uvarint(uint64(age))
	w.value(graph.Int(1))
	w.uvarint(uint64(age))
	w.value(graph.Int(2))
	w.uvarint(uint64(place))
	w.uvarint(0)
	w.uvarint(uint64(person))
	w.uvarint(1)
	w.uvarint(uint64(age))
	w.value(graph.Int(5))
	half := func(l graph.LabelID, to graph.NodeID) { w.uvarint(uint64(l)); w.uvarint(uint64(to)) }
	w.uvarint(5) // out(a): label order reversed, a duplicate, a self-loop
	half(place, b)
	half(knows, c)
	half(knows, a)
	half(knows, c)
	half(knows, b)
	w.uvarint(0)
	w.uvarint(2) // out(c) descending
	half(knows, b)
	half(knows, a)
	w.uvarint(0) // names
	w.str("")    // rules
	w.uvarint(0) // violations
	w.rawU32(w.sum32())
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	sd, err := readSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(sd.G), fingerprint(g); got != want {
		t.Fatalf("decoded:\n%s\nwant:\n%s", got, want)
	}
	if !bytes.Equal(snapshotBytes(t, sd.G), snapshotBytes(t, g)) {
		t.Error("non-canonical file decodes to a graph with different canonical bytes")
	}
}

// writeImage encodes sd with its Names map and its Violations, as a store
// encodes one.
func writeImage(w io.Writer, sd *snapshotData) error {
	vios := vioSeq{len(sd.Violations), func(yield func(string, []graph.NodeID) bool) {
		for _, vr := range sd.Violations {
			if !yield(vr.Rule, vr.Match) {
				return
			}
		}
	}}
	return writeSnapshot(w, sd, byNode(sd.Names, sd.G.NumNodes()), vios)
}

// snapshotPrefix is a valid snapshot of an empty graph up to the names
// count, followed by the given counts.
func snapshotPrefix(counts ...uint64) []byte {
	var buf bytes.Buffer
	w := newCWriter(&buf)
	w.write([]byte(snapMagic))
	w.u32(codecVer)
	w.u64(0)
	for _, n := range counts {
		w.uvarint(n)
	}
	_ = w.flush()
	return buf.Bytes()
}

// allocatedBy reports the bytes fn allocated (this goroutine's and anyone
// else's meanwhile: an upper bound).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadSnapshotHostileCounts: a few dozen bytes claiming 2^28 … 2^50
// labels, nodes, attributes, edges, names, violations, match entries or
// string bytes fail with the reader's EOF, at once and without allocating
// for the claim. Before the cap, the names case sized a map from the count
// and kept a 16 GB host busy for minutes.
func TestReadSnapshotHostileCounts(t *testing.T) {
	cases := map[string][]byte{
		"labels":       snapshotPrefix(1 << 40),
		"attrs":        snapshotPrefix(0, 1<<40),
		"nodes":        snapshotPrefix(0, 0, 1<<31),
		"node attrs":   append(snapshotPrefix(1), append([]byte{1, 'l'}, 0, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f)...),
		"out-degree":   append(snapshotPrefix(1), append([]byte{1, 'l'}, 0, 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f)...),
		"names 2^28":   snapshotPrefix(0, 0, 0, 1<<28),
		"names 2^34":   snapshotPrefix(0, 0, 0, 1<<34),
		"violations":   snapshotPrefix(0, 0, 0, 0, 0, 1<<50),
		"match":        snapshotPrefix(0, 0, 0, 0, 0, 1, 0, 1<<40),
		"string bytes": snapshotPrefix(0, 0, 0, 0, maxString),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var err error
			start := time.Now()
			got := allocatedBy(func() { _, err = readSnapshot(bytes.NewReader(data)) })
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v, want the reader's EOF", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("%d hostile bytes took %v", len(data), d)
			}
			if got > allocBudget(len(data)) {
				t.Errorf("%d hostile bytes allocated %d bytes, budget %d", len(data), got, allocBudget(len(data)))
			}
		})
	}
}

// allocBudget bounds what decoding n input bytes may allocate: the capped
// presizes and the read buffer, then a constant per byte (every decoded
// element is at least one byte of input and a bounded number of bytes of
// graph, with append's amortized growth on top).
func allocBudget(n int) uint64 { return 2<<20 + 512*uint64(n) }

// reseal replaces the CRC trailer with the one the body demands, so that
// mutated bodies reach the decoder's success path.
func reseal(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	body := data[:len(data)-4]
	sum := crc32.ChecksumIEEE(body)
	return append(bytes.Clone(body), byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

func fuzzSnapshotSeeds(tb testing.TB) [][]byte {
	g := graph.New()
	a, b := g.AddNode("person"), g.AddNode("place")
	g.SetAttr(a, "age", graph.Int(-3))
	g.SetAttr(a, "name", graph.Str("x y"))
	g.SetAttr(b, "ok", graph.Bool(true))
	g.SetAttr(b, "w", graph.Int(-1<<63))
	g.AddEdge(a, b, "born_in")
	g.AddEdge(a, a, "knows")
	var full, empty bytes.Buffer
	if err := writeImage(&full, &snapshotData{Seq: 7, G: g, Names: map[string]graph.NodeID{"alice": a},
		RulesText: "# none\n", Violations: []vioRec{{Rule: "r", Match: []graph.NodeID{a, b}}}}); err != nil {
		tb.Fatal(err)
	}
	if err := writeImage(&empty, &snapshotData{G: graph.New()}); err != nil {
		tb.Fatal(err)
	}
	return [][]byte{full.Bytes(), empty.Bytes()}
}

// FuzzReadSnapshot: the decoder never panics, never allocates beyond a
// budget linear in the input, and whatever it accepts round-trips exactly:
// re-encoding the decoded image and decoding that yields the same image,
// and the same bytes. Besides the seeds built here, testdata/fuzz
// holds two hostile headers and a version-1 snapshot written while the
// float kind existed, which now fails on its attribute w = 1.5.
func FuzzReadSnapshot(f *testing.F) {
	for _, s := range fuzzSnapshotSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			var sd *snapshotData
			var err error
			if got := allocatedBy(func() { sd, err = readSnapshot(bytes.NewReader(in)) }); got > allocBudget(len(in)) {
				t.Fatalf("%d input bytes allocated %d, budget %d", len(in), got, allocBudget(len(in)))
			}
			if err != nil {
				continue
			}
			var enc bytes.Buffer
			if err := writeImage(&enc, sd); err != nil {
				t.Fatal(err)
			}
			sd2, err := readSnapshot(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatalf("re-encoded snapshot does not decode: %v", err)
			}
			if sd2.Seq != sd.Seq || sd2.RulesText != sd.RulesText || !maps.Equal(sd2.Names, sd.Names) ||
				!reflect.DeepEqual(sd2.Violations, sd.Violations) {
				t.Fatalf("round trip changed the image: %+v vs %+v", sd2, sd)
			}
			var e1, e2 bytes.Buffer
			if writeImage(&e1, sd) != nil || writeImage(&e2, sd2) != nil || !bytes.Equal(e1.Bytes(), e2.Bytes()) {
				t.Fatal("round trip changed the encoded bytes")
			}
		}
	})
}

// BenchmarkReadSnapshot is the decode half of recovery at roughly
// cold-batch size (yago2 n = 6000: 48k nodes, names map included), and at
// ten times that, which says whether a durable boot's load stays linear.
func BenchmarkReadSnapshot(b *testing.B) {
	for _, n := range []int{6000, 60000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := gen.Generate(gen.YAGO2, n, 1).G
			names := make(map[string]graph.NodeID, g.NumNodes())
			for v := 0; v < g.NumNodes(); v++ {
				names[fmt.Sprintf("n%d", v)] = graph.NodeID(v)
			}
			var buf bytes.Buffer
			if err := writeImage(&buf, &snapshotData{G: g, Names: names}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := readSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
