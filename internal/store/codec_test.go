package store

// The block codec: the writer folds whole blocks into the CRC as it writes
// them, the reader folds what it has consumed when it refills or is asked
// for the sum, and the trailer is in neither. These tests pin both halves
// at the block boundary and under every single-byte corruption.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"ngd/internal/graph"
)

// TestLegacyFloatKind: snapshots and WAL records written before the float
// kind was retired hold kind 4, a float64's bits. Both decoders read an
// integral one in int64 range as that int, and refuse any other, naming
// the node and the attribute, so a restart never changes the violation set
// silently.
func TestLegacyFloatKind(t *testing.T) {
	// the bytes of a string value marker, spliced out for a kind-4 float
	const marker = "\x00legacy\x00"
	str := append([]byte{byte(graph.KindString), byte(len(marker))}, marker...)
	legacy := func(enc []byte, f float64) []byte {
		if bytes.Count(enc, str) != 1 {
			t.Fatalf("marker found %d times in %x", bytes.Count(enc, str), enc)
		}
		flt := binary.LittleEndian.AppendUint64([]byte{legacyFloat}, math.Float64bits(f))
		return bytes.Replace(enc, str, flt, 1)
	}
	g := graph.New()
	g.AddNode("person")
	g.SetAttr(g.AddNode("person"), "rate", graph.Str(marker))
	var snap bytes.Buffer
	if err := writeImage(&snap, &snapshotData{G: g}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.ngdw")
	records := []*walRecord{
		{Seq: 1, Nodes: []nodeRec{{Node: 1, ExtID: "b", Label: "person", Attrs: []nodeAttr{{Name: "rate", Val: graph.Str(marker)}}}}},
		{Seq: 1, AttrOps: []attrRec{{Node: 1, Name: "rate", Val: graph.Str(marker)}}},
	}

	for _, c := range []struct {
		f    float64
		want int64
		ok   bool
	}{
		{3, 3, true}, {math.Copysign(0, -1), 0, true}, {-(1 << 63), math.MinInt64, true},
		{2.5, 0, false}, {1 << 63, 0, false}, {1e300, 0, false}, {math.Inf(-1), 0, false}, {math.NaN(), 0, false},
	} {
		check := func(where string, val graph.Value, err error) {
			t.Helper()
			switch {
			case c.ok && err != nil:
				t.Errorf("%s: float %v refused: %v", where, c.f, err)
			case c.ok && !val.Equal(graph.Int(c.want)):
				t.Errorf("%s: float %v read as %s %v, want int %d", where, c.f, val.Kind(), val, c.want)
			case !c.ok && (err == nil || !strings.Contains(err.Error(), `node 1 attribute "rate"`)):
				t.Errorf("%s: float %v: error %v, want a refusal naming node 1 attribute \"rate\"", where, c.f, err)
			}
		}
		sd, err := readSnapshot(bytes.NewReader(reseal(legacy(snap.Bytes(), c.f))))
		var val graph.Value
		if err == nil {
			val = sd.G.AttrByName(1, "rate")
		}
		check("snapshot", val, err)

		for _, r := range records {
			seg := append(walHeader(0), walFrame(legacy(encodeRecord(r), c.f))...)
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			var val graph.Value
			_, err := scanWAL(path, func(r *walRecord) error {
				if len(r.Nodes) > 0 {
					val = r.Nodes[0].Attrs[0].Val
				} else {
					val = r.AttrOps[0].Val
				}
				return nil
			})
			check(fmt.Sprintf("wal record with %d node(s)", len(r.Nodes)), val, err)
		}
	}
}

// TestSnapshotEveryByteFlipFails: changing any one byte of a small
// snapshot, its trailer included, fails the load.
func TestSnapshotEveryByteFlipFails(t *testing.T) {
	for _, raw := range fuzzSnapshotSeeds(t) {
		for off := range raw {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				bad := bytes.Clone(raw)
				bad[off] ^= mask
				if _, err := readSnapshot(bytes.NewReader(bad)); err == nil {
					t.Fatalf("%d-byte snapshot: byte %d ^ %#x loads", len(raw), off, mask)
				}
			}
		}
	}
}

// TestSnapshotBlockBoundaries: snapshots whose file, or whose checksummed
// body, ends one byte below a block boundary, on it, or one byte above it
// round-trip — read whole, one byte at a time and in halves — and a flip of
// the last body byte or of the trailer's last byte fails the load, as do
// bytes appended after the trailer. The CRC
// then covers the last partial block and leaves the trailer out.
func TestSnapshotBlockBoundaries(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("person"), g.AddNode("place")
	g.SetAttr(a, "age", graph.Int(41))
	g.AddEdge(a, b, "born_in")
	encode := func(sd *snapshotData) []byte {
		var buf bytes.Buffer
		if err := writeImage(&buf, sd); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := len(encode(&snapshotData{G: g, RulesText: strings.Repeat("#", 1<<15)})) - 1<<15
	for _, size := range []int{blockSize - 1, blockSize, blockSize + 1, blockSize + 3, blockSize + 4, blockSize + 5, 2*blockSize + 4} {
		sd := &snapshotData{Seq: 9, G: g, Names: map[string]graph.NodeID{"b": b, "a": a},
			RulesText:  strings.Repeat("#", size-base),
			Violations: []vioRec{{Rule: "r", Match: []graph.NodeID{a, b}}}}
		sd.RulesText = sd.RulesText[:len(sd.RulesText)-(len(encode(sd))-size)]
		raw := encode(sd)
		if len(raw) != size {
			t.Fatalf("aimed at %d bytes, wrote %d", size, len(raw))
		}
		for name, r := range map[string]io.Reader{
			"whole":    bytes.NewReader(raw),
			"one byte": iotest.OneByteReader(bytes.NewReader(raw)),
			"halves":   iotest.HalfReader(bytes.NewReader(raw)),
		} {
			got, err := readSnapshot(r)
			if err != nil {
				t.Fatalf("%d bytes read %s: %v", size, name, err)
			}
			if got.Seq != sd.Seq || got.RulesText != sd.RulesText || !maps.Equal(got.Names, sd.Names) ||
				!reflect.DeepEqual(got.Violations, sd.Violations) || fingerprint(got.G) != fingerprint(g) {
				t.Fatalf("%d bytes read %s: the image changed", size, name)
			}
			if !bytes.Equal(encode(got), raw) {
				t.Fatalf("%d bytes read %s: re-encodes to other bytes", size, name)
			}
		}
		for _, off := range []int{size - 5, size - 1} {
			bad := bytes.Clone(raw)
			bad[off] ^= 0x01
			if _, err := readSnapshot(bytes.NewReader(bad)); err == nil {
				t.Fatalf("%d bytes: a flip at %d loads", size, off)
			}
		}
		// bytes after the trailer fail the load, whether the block holds
		// them or only a further read of the reader finds them
		tail := append(bytes.Clone(raw), "junk"...)
		for name, r := range map[string]io.Reader{
			"whole":    bytes.NewReader(tail),
			"one byte": iotest.OneByteReader(bytes.NewReader(tail)),
		} {
			if _, err := readSnapshot(r); err == nil || !strings.Contains(err.Error(), "after the snapshot trailer") {
				t.Fatalf("%d bytes and a tail read %s: err = %v", size, name, err)
			}
		}
	}
}

// TestWALEveryByteFlipFails: changing any one byte of a segment fails its
// load. A damaged header is an error, or a start that differs from the one
// the segment's name carries (recovery refuses it); a damaged record is a
// torn tail at that record, and every record returned before it is intact.
func TestWALEveryByteFlipFails(t *testing.T) {
	const start = 5
	recs := testRecords()
	path := filepath.Join(t.TempDir(), walName(start))
	writeSegment(t, path, start, recs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := range raw {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			bad := bytes.Clone(raw)
			bad[off] ^= mask
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			n := 0
			res, err := scanWAL(path, func(r *walRecord) error {
				if !bytes.Equal(encodeRecord(r), encodeRecord(recs[n])) {
					t.Fatalf("byte %d ^ %#x: record %d replays as %+v", off, mask, n, r)
				}
				n++
				return nil
			})
			if err == nil && !res.Truncated && res.Start == start {
				t.Fatalf("byte %d ^ %#x: the segment loads whole (%d records)", off, mask, n)
			}
			if err == nil && res.Truncated && n == len(recs) {
				t.Fatalf("byte %d ^ %#x: torn tail after every record", off, mask)
			}
		}
	}
}

// TestSnapshotNamesInNodeOrder: the external-id map is written in node
// order, the ids of one node in string order, so two images with equal maps
// encode to equal bytes however the maps were built.
func TestSnapshotNamesInNodeOrder(t *testing.T) {
	g := graph.New()
	for range 3 {
		g.AddNode("n")
	}
	pairs := [][2]any{{"z", 0}, {"y", 2}, {"x", 0}, {"w", 1}, {"v", 2}, {"u", 0}}
	var first []byte
	for round := range 20 {
		names := map[string]graph.NodeID{}
		for i := range pairs {
			p := pairs[(i+round)%len(pairs)]
			names[p[0].(string)] = graph.NodeID(p[1].(int))
		}
		var buf bytes.Buffer
		if err := writeImage(&buf, &snapshotData{G: g, Names: names}); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
			// count 6, then (len, id, node) in node order
			want := []byte("\x06\x01u\x00\x01x\x00\x01z\x00\x01w\x01\x01v\x02\x01y\x02")
			if !bytes.Contains(first, want) {
				t.Fatalf("names section not in node order: % x", first)
			}
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("round %d: the same map encodes to other bytes", round)
		}
	}
}

// TestNodeNamesOnlyAppend: the name layout binds ids to arriving nodes by
// appending, so a copy taken earlier (a checkpoint's capture) still encodes
// the names it had. A node already laid out refuses an id, and an id bound
// again to a newer node decodes to the newer one.
func TestNodeNamesOnlyAppend(t *testing.T) {
	g := graph.New()
	for range 5 {
		g.AddNode("n")
	}
	nn := byNode(map[string]graph.NodeID{"a": 0, "b": 1}, 2)
	captured := nn
	for _, b := range []struct {
		id   string
		v    graph.NodeID
		want bool
	}{{"c", 2, true}, {"late", 1, false}, {"e", 4, true}, {"also-e", 4, false}, {"a", 5, true}} {
		if got := nn.add(b.id, b.v); got != b.want {
			t.Fatalf("add(%q, %d) = %v, want %v", b.id, b.v, got, b.want)
		}
	}
	g.AddNode("n")
	decode := func(nn nodeNames) string {
		var buf bytes.Buffer
		if err := writeSnapshot(&buf, &snapshotData{G: g}, nn, vioSeq{all: func(func(string, []graph.NodeID) bool) {}}); err != nil {
			t.Fatal(err)
		}
		sd, err := readSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(sd.Names)
	}
	if got := decode(nn); got != "map[a:5 b:1 c:2 e:4]" {
		t.Fatalf("names decode to %s", got)
	}
	if got := decode(captured); got != "map[a:0 b:1]" {
		t.Fatalf("the copy taken before the bindings decodes to %s", got)
	}
}

// TestDecodersRefuseFlagBytesPastOne: an op's kind and a bool value are
// written as one 0/1 byte. A checksummed WAL record or snapshot holding any
// other byte there fails to decode rather than replaying as a delete or
// loading as true, and scanWAL returns such a record as an error, not as a
// torn tail.
func TestDecodersRefuseFlagBytesPastOne(t *testing.T) {
	kind := encodeRecord(&walRecord{Seq: 1, Ops: []opRec{{Src: 1, Dst: 2, Label: "e"}}})
	kind[8+1+1] = 2 // after the seq and the node and op counts
	boolean := encodeRecord(&walRecord{Seq: 1, AttrOps: []attrRec{{Node: 1, Name: "ok", Val: graph.Bool(true)}}})
	boolean[len(boolean)-1] = 7
	path := filepath.Join(t.TempDir(), walName(0))
	for name, p := range map[string][]byte{"kind": kind, "bool": boolean} {
		if r, err := decodePayload(p); err == nil {
			t.Errorf("%s byte: the payload decodes to %+v", name, r)
		}
		if err := os.WriteFile(path, append(walHeader(0), walFrame(p)...), 0o644); err != nil {
			t.Fatal(err)
		}
		if res, err := scanWAL(path, nil); err == nil {
			t.Errorf("%s byte: the segment scans as %+v", name, res)
		}
	}

	// one attribute "a", one node holding it as a bool, no edges, names,
	// rules or violations, and a trailer for reseal to fill in
	snap := append(snapshotPrefix(0, 1), 1, 'a', 1, 0, 1, 0, byte(graph.KindBool), 7, 0, 0, 0, 0, 0, 0, 0, 0)
	if sd, err := readSnapshot(bytes.NewReader(reseal(snap))); err == nil {
		t.Errorf("bool byte: the snapshot loads %v", fingerprint(sd.G))
	}
	snap[len(snap)-9] = 1 // the bool byte
	if _, err := readSnapshot(bytes.NewReader(reseal(snap))); err != nil {
		t.Fatalf("the same snapshot with a 1 does not load: %v", err)
	}
}
