package store

// Write-ahead log (format version 1). A WAL segment holds the normalized
// update batches committed after the snapshot whose sequence number names
// the segment:
//
//	magic   "NGDWALOG"  (8 bytes)
//	u32     format version (1)
//	u64     start seq S — the segment holds batches S+1, S+2, …
//	record*
//
// Each record is independently framed and checksummed:
//
//	u32     payload length
//	u32     CRC-32 (IEEE) of the payload
//	payload:
//	  u64     batch seq
//	  nodes   count, then per arriving node: expected NodeID, external id
//	          ("" when none), label string, attribute count, (attr name,
//	          typed value)*
//	  ops     count, then per op: kind byte (0 delete / 1 insert), src,
//	          dst, edge label string
//	  attrs   count, then per attribute op: node, attribute name, typed
//	          value (absent from records written before the section
//	          existed; see walRecord)
//
// Labels and attribute names travel as strings, not interned ids, so a
// record's meaning never depends on symbol-table state the reader might
// not share. Records are assembled in memory and written with a single
// Write; a crash can therefore only tear the final record, and recovery
// truncates the file back to the last whole one (truncate-on-torn-tail).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"ngd/internal/graph"
)

// nodeAttr is one attribute of an arriving node as logged.
type nodeAttr struct {
	Name string
	Val  graph.Value
}

// nodeRec is a node arrival as logged: the NodeID the node must decode
// back to (replay sanity check), its optional external id, label, and
// attribute tuple.
type nodeRec struct {
	Node  graph.NodeID
	ExtID string
	Label string
	Attrs []nodeAttr
}

// opRec is one normalized edge op as logged.
type opRec struct {
	Insert   bool
	Src, Dst graph.NodeID
	Label    string
}

// attrRec is one normalized attribute op as logged (attribute names travel
// as strings for the same reason node labels do).
type attrRec struct {
	Node graph.NodeID
	Name string
	Val  graph.Value
}

// walRecord is one logged batch: the node arrivals since the previous
// batch, the normalized ΔG, and the batch's normalized attribute ops.
//
// The attribute section trails the edge ops and is length-prefixed like the
// others; records written before the section existed simply end after the
// ops, which the decoder observes as a clean io.EOF at the section's count
// read and treats as "no attribute ops". New records always write the
// section (zero-count when empty), so the format needs no version bump and
// old segments keep replaying.
type walRecord struct {
	Seq     uint64
	Nodes   []nodeRec
	Ops     []opRec
	AttrOps []attrRec
}

func (r *walRecord) empty() bool {
	return len(r.Nodes) == 0 && len(r.Ops) == 0 && len(r.AttrOps) == 0
}

// appendPayload appends the record payload (everything inside the frame)
// to b, in place: the frame's CRC is taken over the finished payload.
func (r *walRecord) appendPayload(b []byte) []byte {
	c := cwriter{buf: b}
	c.u64(r.Seq)
	c.uvarint(uint64(len(r.Nodes)))
	for _, nr := range r.Nodes {
		c.uvarint(uint64(nr.Node))
		c.str(nr.ExtID)
		c.str(nr.Label)
		c.uvarint(uint64(len(nr.Attrs)))
		for _, a := range nr.Attrs {
			c.str(a.Name)
			c.value(a.Val)
		}
	}
	c.uvarint(uint64(len(r.Ops)))
	for _, op := range r.Ops {
		if op.Insert {
			c.byte(1)
		} else {
			c.byte(0)
		}
		c.uvarint(uint64(op.Src))
		c.uvarint(uint64(op.Dst))
		c.str(op.Label)
	}
	c.uvarint(uint64(len(r.AttrOps)))
	for _, a := range r.AttrOps {
		c.uvarint(uint64(a.Node))
		c.str(a.Name)
		c.value(a.Val)
	}
	return c.buf
}

// decodePayload parses one record payload in place, refusing a node id
// that graph.NodeID cannot hold and a kind or bool byte other than 0/1.
// Each record literal reads its fields in the order they are written: Go
// evaluates the calls in an expression left to right.
func decodePayload(p []byte) (*walRecord, error) {
	c := &creader{buf: p}
	r := &walRecord{Seq: c.u64()}
	for i := c.uvarint(); i > 0 && c.ok(); i-- {
		nr := nodeRec{Node: c.nodeID(), ExtID: c.str(), Label: c.str()}
		for j := c.uvarint(); j > 0 && c.ok(); j-- {
			name := c.str()
			nr.Attrs = append(nr.Attrs, nodeAttr{Name: name, Val: c.value(uint64(nr.Node), name)})
		}
		r.Nodes = append(r.Nodes, nr)
	}
	for i := c.uvarint(); i > 0 && c.ok(); i-- {
		r.Ops = append(r.Ops, opRec{Insert: c.flag(), Src: c.nodeID(), Dst: c.nodeID(), Label: c.str()})
	}
	// a record written before the attribute section existed ends here (see
	// the walRecord comment)
	if c.ok() && c.pos == len(c.buf) {
		return r, nil
	}
	for i := c.uvarint(); i > 0 && c.ok(); i-- {
		node, name := c.nodeID(), c.str()
		r.AttrOps = append(r.AttrOps, attrRec{Node: node, Name: name, Val: c.value(uint64(node), name)})
	}
	if !c.ok() {
		return nil, c.err
	}
	return r, nil
}

// walWriter appends framed records to an open segment file.
type walWriter struct {
	f     *os.File
	start uint64 // segment start seq (batches > start live here)
	sync  bool   // fsync after every append
	buf   []byte // the frame being assembled, reused across appends
	n     int64  // bytes written to the segment, including the header
}

// createWAL creates a fresh segment starting at seq (truncating any
// existing file of the same name — only ever an empty leftover).
func createWAL(path string, start uint64, sync bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := appendHeader(nil, walMagic, start)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &walWriter{f: f, start: start, sync: sync, n: int64(len(hdr))}, nil
}

// openWALForAppend reopens an existing segment, truncated to size (the last
// byte recovery verified), for further appends.
func openWALForAppend(path string, start uint64, size int64, sync bool) (*walWriter, error) {
	if err := os.Truncate(path, size); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, start: start, sync: sync, n: size}, nil
}

// append frames and writes one record. The frame is assembled in memory
// and handed to the kernel in a single Write, so a crash tears at most the
// final record of the segment.
func (w *walWriter) append(r *walRecord) error {
	w.buf = r.appendPayload(append(w.buf[:0], make([]byte, 8)...)) // frame placeholder: len + crc
	frame := w.buf
	payload := frame[8:]
	if len(payload) > int(^uint32(0)) {
		return fmt.Errorf("store: wal record too large (%d bytes)", len(payload))
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	w.n += int64(len(frame))
	if w.sync {
		return w.fsync()
	}
	return nil
}

// fsync makes every record appended so far durable.
func (w *walWriter) fsync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal sync: %w", err)
	}
	return nil
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// walScanResult reports what scanning a segment found.
type walScanResult struct {
	Start     uint64 // header start seq
	GoodSize  int64  // offset just past the last whole, checksummed record
	Truncated bool   // a torn/corrupt tail was found after GoodSize
}

// scanWAL reads a segment sequentially, invoking fn for every whole,
// checksum-verified record. Framing damage — a torn frame header, a length
// running past EOF, a checksum mismatch — ends the scan and is reported as
// a torn tail (the caller truncates at GoodSize). A payload that passes its
// checksum but fails to decode is a format error and is returned as such:
// silently dropping provably-intact data would hide real bugs.
func scanWAL(path string, fn func(*walRecord) error) (walScanResult, error) {
	var res walScanResult
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return res, err
	}
	size := fi.Size()

	// the header alone: the frames are read from f itself
	c := &creader{r: io.LimitReader(f, int64(headerLen)), buf: make([]byte, 0, headerLen)}
	if res.Start = c.header(walMagic); !c.ok() {
		return res, fmt.Errorf("store: wal header of %s: %w", path, c.err)
	}
	res.GoodSize = int64(headerLen)

	var frame [8]byte
	for {
		if _, err := io.ReadFull(f, frame[:]); err != nil {
			if err != io.EOF {
				res.Truncated = true // partial frame header: torn tail
			}
			return res, nil
		}
		plen := int64(binary.LittleEndian.Uint32(frame[0:4]))
		want := binary.LittleEndian.Uint32(frame[4:8])
		if res.GoodSize+8+plen > size {
			res.Truncated = true // length points past EOF: torn tail
			return res, nil
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(f, payload); err != nil {
			res.Truncated = true
			return res, nil
		}
		if crc32.ChecksumIEEE(payload) != want {
			res.Truncated = true // checksum mismatch: corrupt tail
			return res, nil
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return res, fmt.Errorf("store: wal record at offset %d of %s: %w", res.GoodSize, path, err)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return res, err
			}
		}
		res.GoodSize += 8 + plen
	}
}
