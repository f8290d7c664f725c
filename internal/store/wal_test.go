package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ngd/internal/graph"
)

const walHeaderLen = len(walMagic) + 4 + 8

// walHeader is a segment header starting at seq start.
func walHeader(start uint64) []byte {
	b := append([]byte(walMagic), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[len(walMagic):], codecVer)
	binary.LittleEndian.PutUint64(b[len(walMagic)+4:], start)
	return b
}

// walFrame frames a payload as walWriter.append does: length, CRC, payload.
func walFrame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

func encodeRecord(r *walRecord) []byte { return r.appendPayload(nil) }

// fuzzWALSeeds: a clean three-record segment holding every value kind, the
// same segment with its last record torn, bit-flipped in its payload and in
// its length, and a record written before the attribute section existed.
func fuzzWALSeeds() [][]byte {
	recs := append(testRecords(), &walRecord{Seq: 4,
		Ops: []opRec{{Insert: true, Src: 12, Dst: 12, Label: "knows"}},
		AttrOps: []attrRec{
			{Node: 12, Name: "ok", Val: graph.Bool(true)},
			{Node: 10, Name: "w", Val: graph.Float(-1.5)},
			{Node: 11, Name: "gone", Val: graph.Value{}},
			{Node: math.MaxInt32, Name: "n", Val: graph.Int(math.MinInt64)},
		}})
	clean := walHeader(7)
	var last int
	for _, r := range recs {
		last = len(clean)
		clean = append(clean, walFrame(encodeRecord(r))...)
	}
	torn := bytes.Clone(clean[:len(clean)-3])
	flipped := bytes.Clone(clean)
	flipped[len(flipped)-5] ^= 0x10
	lying := bytes.Clone(clean)
	lying[last] ^= 0x01
	legacy := encodeRecord(&walRecord{Seq: 1, Ops: []opRec{{Src: 1, Dst: 2, Label: "e"}}})
	legacy = append(walHeader(0), walFrame(legacy[:len(legacy)-1])...) // no attribute count
	return [][]byte{clean, torn, flipped, lying, legacy, walHeader(0)}
}

// FuzzScanWAL: scanning a segment never panics; every record it returns
// survives an encode and decode unchanged; and it agrees with an
// independent walk of the frames — the first short, overlong or
// checksum-failing frame ends the scan as a torn tail at that frame's offset
// and is never returned, a checksummed payload that does not decode is an
// error. Each input is scanned as a segment, and framed whole as the one
// payload of a segment, so that decodePayload sees arbitrary bytes behind a
// valid checksum.
func FuzzScanWAL(f *testing.F) {
	for _, s := range fuzzWALSeeds() {
		f.Add(s)
	}
	path := filepath.Join(f.TempDir(), "wal.ngdw")
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, seg := range [][]byte{data, append(walHeader(0), walFrame(data)...)} {
			checkScan(t, path, seg)
		}
	})
}

func checkScan(t *testing.T, path string, seg []byte) {
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	returned := 0
	res, err := scanWAL(path, func(r *walRecord) error {
		// decode(encode(r)) is r, compared as its encoding so that a NaN
		// attribute equals itself
		re := encodeRecord(r)
		back, err := decodePayload(re)
		if err != nil {
			t.Fatalf("record %d re-encodes to %x, which does not decode: %v", returned, re, err)
		}
		if again := encodeRecord(back); !bytes.Equal(again, re) {
			t.Fatalf("record %d: %+v round-trips to %+v", returned, r, back)
		}
		returned++
		return nil
	})
	if len(seg) < walHeaderLen || string(seg[:len(walMagic)]) != walMagic ||
		binary.LittleEndian.Uint32(seg[len(walMagic):]) != codecVer {
		if err == nil {
			t.Fatal("a segment without a valid header scanned without error")
		}
		return
	}

	pos, whole, torn, bad := walHeaderLen, 0, false, false
	for pos < len(seg) {
		if len(seg)-pos < 8 {
			torn = true
			break
		}
		plen := int(binary.LittleEndian.Uint32(seg[pos:]))
		if len(seg)-pos-8 < plen {
			torn = true
			break
		}
		payload := seg[pos+8 : pos+8+plen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(seg[pos+4:]) {
			torn = true
			break
		}
		if _, err := decodePayload(payload); err != nil {
			bad = true
			break
		}
		whole++
		pos += 8 + plen
	}
	if (err != nil) != bad || res.Truncated != torn || res.GoodSize != int64(pos) || returned != whole {
		t.Fatalf("scan = %+v, err %v, %d records; frames: %d whole, torn %v, undecodable %v, good size %d",
			res, err, returned, whole, torn, bad, pos)
	}
}

// TestDecodePayloadRefusesNodeIDPastInt32: a node id graph.NodeID cannot
// hold would turn negative on replay; the decoder refuses it.
func TestDecodePayloadRefusesNodeIDPastInt32(t *testing.T) {
	p := encodeRecord(&walRecord{Seq: 1, Ops: []opRec{{Src: -1, Dst: 2, Label: "e"}}})
	if r, err := decodePayload(p); err == nil {
		t.Errorf("decoded to %+v", r)
	}
	p = encodeRecord(&walRecord{Seq: 1, Ops: []opRec{{Src: math.MaxInt32, Dst: 2, Label: "e"}}})
	if _, err := decodePayload(p); err != nil {
		t.Fatalf("node id MaxInt32 does not decode: %v", err)
	}
}

// TestDecodePayloadHostileCounts: the twin of TestReadSnapshotHostileCounts
// for a WAL payload, which reaches the decoder only behind a valid checksum.
// Payloads claiming 2^40 nodes, node attributes, ops or attribute ops, or a
// string of maxString bytes, fail with the reader's EOF, within a second
// and without allocating for the claim: each loop over a count stops at the
// first failed read.
func TestDecodePayloadHostileCounts(t *testing.T) {
	payload := func(counts ...uint64) []byte {
		c := cwriter{}
		c.u64(1)
		for _, n := range counts {
			c.uvarint(n)
		}
		return c.buf
	}
	cases := map[string][]byte{
		"nodes":        payload(1 << 40),
		"node attrs":   payload(1, 0, 0, 0, 1<<40), // node 0, no external id, label ""
		"ops":          payload(0, 1<<40),
		"attr ops":     payload(0, 0, 1<<40),
		"string bytes": payload(1, 0, maxString),
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			var err error
			var got uint64
			done := make(chan struct{})
			go func() {
				got = allocatedBy(func() { _, err = decodePayload(p) })
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatalf("%d hostile bytes did not decode within a second", len(p))
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v, want the reader's EOF", err)
			}
			if got > allocBudget(len(p)) {
				t.Errorf("%d hostile bytes allocated %d bytes, budget %d", len(p), got, allocBudget(len(p)))
			}
		})
	}
}

// TestWALRecordCodecAllocs: a record is encoded straight into the segment's
// frame buffer and decoded from the payload slice. A warm 16-op append
// allocates nothing, and decoding its payload allocates the record and what
// it holds, not a 64 KiB read buffer (as encoding and decoding through a
// bufio buffer per record did).
func TestWALRecordCodecAllocs(t *testing.T) {
	w, err := createWAL(filepath.Join(t.TempDir(), walName(0)), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	rec := &walRecord{Seq: 1}
	for i := range 16 {
		rec.Ops = append(rec.Ops, opRec{Insert: i%2 == 0, Src: graph.NodeID(i), Dst: graph.NodeID(i + 1), Label: "knows"})
	}
	if err := w.append(rec); err != nil { // warm: the frame buffer grows once
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		rec.Seq++
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("a 16-op append allocated %.0f objects", allocs)
	}
	payload := encodeRecord(rec)
	if got := allocatedBy(func() {
		if _, err := decodePayload(payload); err != nil {
			t.Fatal(err)
		}
	}); got > 4<<10 {
		t.Errorf("decoding a %d-byte payload allocated %d bytes", len(payload), got)
	}
}
