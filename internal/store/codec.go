package store

// This file holds the low-level binary codec shared by the snapshot format
// and the write-ahead log: a block writer and a block reader that keep a
// running CRC-32 (IEEE), plus varint/string/Value primitives. Both formats
// are little-endian, use unsigned varints for counts and ids, zigzag
// varints for integers, and length-prefixed byte strings; every byte that
// enters a snapshot's stream also enters its CRC, so torn or corrupted data
// is detected before it can be replayed. Fields are appended into one block
// of blockSize bytes, and the CRC runs once per block in both directions.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"ngd/internal/graph"
)

// maxString bounds a single decoded string (labels, attribute names/values,
// external ids, the rules DSL text). Counts and lengths are read before the
// CRC is verified, so a corrupted length must not be able to demand an
// absurd allocation.
const maxString = 64 << 20

// strChunk is how much of a string is allocated ahead of the bytes read.
const strChunk = 1 << 16

// blockSize is the unit a cwriter writes and a creader reads, and so the
// unit each of them folds into the CRC.
const blockSize = 1 << 16

// cwriter appends fields to one block. Given a sink, it folds each full
// block into the CRC and writes it out whole; without one, the block is the
// whole output and grows (a WAL record, whose frame CRC is taken over the
// finished payload). The first write error sticks and is reported by flush.
type cwriter struct {
	w      io.Writer
	buf    []byte
	folded int // buf[:folded] is in crc
	crc    uint32
	err    error
}

func newCWriter(w io.Writer) *cwriter {
	// a field starts below blockSize and no fixed field is longer than a varint
	return &cwriter{w: w, buf: make([]byte, 0, blockSize+binary.MaxVarintLen64)}
}

// spill writes the block out once it is full.
func (c *cwriter) spill() {
	if c.w == nil || len(c.buf) < blockSize {
		return
	}
	c.sum32()
	if c.err == nil {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf, c.folded = c.buf[:0], 0
}

// put appends p, a block's room at a time.
func put[S ~string | ~[]byte](c *cwriter, p S) {
	for {
		k := len(p)
		if c.w != nil {
			k = min(k, blockSize-len(c.buf))
		}
		c.buf = append(c.buf, p[:k]...)
		p = p[k:]
		c.spill()
		if len(p) == 0 {
			return
		}
	}
}

// sum32 is the CRC of everything written so far.
func (c *cwriter) sum32() uint32 {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, c.buf[c.folded:])
	c.folded = len(c.buf)
	return c.crc
}

func (c *cwriter) write(p []byte)   { put(c, p) }
func (c *cwriter) byte(b byte)      { c.buf = append(c.buf, b); c.spill() }
func (c *cwriter) u32(v uint32)     { c.buf = binary.LittleEndian.AppendUint32(c.buf, v); c.spill() }
func (c *cwriter) u64(v uint64)     { c.buf = binary.LittleEndian.AppendUint64(c.buf, v); c.spill() }
func (c *cwriter) uvarint(v uint64) { c.buf = binary.AppendUvarint(c.buf, v); c.spill() }
func (c *cwriter) svarint(v int64)  { c.buf = binary.AppendVarint(c.buf, v); c.spill() }
func (c *cwriter) str(s string)     { c.uvarint(uint64(len(s))); put(c, s) }

// rawU32 writes a u32 outside the CRC — the trailer holding the CRC itself
// cannot be part of what it checks. It is the last field written.
func (c *cwriter) rawU32(v uint32) {
	c.sum32()
	c.buf = binary.LittleEndian.AppendUint32(c.buf, v)
	c.folded = len(c.buf)
}

// flush writes the last, partial block.
func (c *cwriter) flush() error {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
		c.buf, c.folded = c.buf[:0], 0
	}
	return c.err
}

// Value encoding: one kind byte followed by the kind's payload.
func (c *cwriter) value(v graph.Value) {
	c.byte(byte(v.Kind()))
	switch v.Kind() {
	case graph.KindInt:
		i, _ := v.AsInt()
		c.svarint(i)
	case graph.KindString:
		s, _ := v.AsString()
		c.str(s)
	case graph.KindBool:
		b, _ := v.AsBool()
		if b {
			c.byte(1)
		} else {
			c.byte(0)
		}
	case graph.KindFloat:
		f, _ := v.AsFloat()
		c.u64(math.Float64bits(f))
	case graph.KindInvalid:
		// no payload: decodes back to the zero (absent) Value
	}
}

// appendHeader appends the header both formats open with: the format's
// magic, the u32 format version and a u64 seq (headerLen bytes). A
// creader's header checks it.
func appendHeader(b []byte, magic string, seq uint64) []byte {
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, codecVer)
	return binary.LittleEndian.AppendUint64(b, seq)
}

// creader mirrors cwriter: it decodes from a block of its own, refilled
// from an underlying reader, and folds the bytes it has consumed into a
// CRC-32 when the block is refilled or the sum is asked for. Without a
// reader the block is the whole input (a WAL payload, read in place).
//
// The first failure sticks, as the writer's does: every field read after
// it returns the zero value, and err is the error to report. A decoder
// therefore reads straight through, stops each loop over a count from the
// input on ok, and checks ok before it builds what it has read.
type creader struct {
	r      io.Reader
	buf    []byte
	pos    int // next unread byte of buf
	folded int // buf[:folded] is in crc
	crc    uint32
	err    error
}

func newCReader(r io.Reader) *creader {
	return &creader{r: r, buf: make([]byte, 0, blockSize)}
}

// fail keeps err unless an earlier failure is kept; a nil err changes
// nothing.
func (c *creader) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// ok reports whether no read has failed.
func (c *creader) ok() bool { return c.err == nil }

// fill makes k unread bytes, no more than the block holds, contiguous in
// the block, with io.ReadFull's errors: io.EOF when the input has ended, io.ErrUnexpectedEOF
// when it ends inside them. It folds the consumed bytes, moves the unread
// ones to the front and reads behind them.
func (c *creader) fill(k int) error {
	if c.r != nil {
		c.sum32()
		n := copy(c.buf[:cap(c.buf)], c.buf[c.pos:])
		c.buf, c.pos, c.folded = c.buf[:n], 0, 0
		for len(c.buf) < k {
			m, err := c.r.Read(c.buf[len(c.buf):cap(c.buf)])
			c.buf = c.buf[:len(c.buf)+m]
			if err == io.EOF {
				break
			} else if err != nil && len(c.buf) < k {
				return err
			}
		}
		if len(c.buf) >= k {
			return nil
		}
	}
	if c.pos == len(c.buf) {
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// zeros is what take returns after a failure (no more than it has), so
// that a fixed-width field reads as 0.
var zeros [8]byte

// take consumes the next k unread bytes and returns them in the block,
// where they stay until the next read.
func (c *creader) take(k int) []byte {
	if c.ok() && len(c.buf)-c.pos < k {
		c.fail(c.fill(k))
	}
	if !c.ok() {
		return zeros[:min(k, len(zeros))]
	}
	c.pos += k
	return c.buf[c.pos-k : c.pos]
}

// ReadByte is the io.ByteReader binary.ReadUvarint needs across a block
// edge. Its error is returned, not kept: the varint read keeps the one
// binary's decoder makes of it.
func (c *creader) ReadByte() (byte, error) {
	if c.pos == len(c.buf) {
		if err := c.fill(1); err != nil {
			return 0, err
		}
	}
	c.pos++
	return c.buf[c.pos-1], nil
}

// end reports whether the input ends here: no unread byte is left in the
// block, and one more read of the underlying reader returns io.EOF. A
// failed read is returned as it is.
func (c *creader) end() (bool, error) {
	if c.pos < len(c.buf) {
		return false, nil
	}
	if c.r == nil {
		return true, nil
	}
	var b [1]byte
	switch _, err := io.ReadFull(c.r, b[:]); err {
	case io.EOF:
		return true, nil
	case nil:
		return false, nil
	default:
		return false, err
	}
}

// sum32 is the CRC of everything consumed so far.
func (c *creader) sum32() uint32 {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, c.buf[c.folded:c.pos])
	c.folded = c.pos
	return c.crc
}

// header reads the header appendHeader wrote with magic and returns its
// seq.
func (c *creader) header(magic string) uint64 {
	if m := c.take(len(magic)); c.ok() && string(m) != magic {
		c.fail(fmt.Errorf("bad magic %q", m))
	}
	if v := c.u32(); c.ok() && v != codecVer {
		c.fail(fmt.Errorf("unsupported version %d (want %d)", v, codecVer))
	}
	return c.u64()
}

func (c *creader) byte() byte  { return c.take(1)[0] }
func (c *creader) u32() uint32 { return binary.LittleEndian.Uint32(c.take(4)) }
func (c *creader) u64() uint64 { return binary.LittleEndian.Uint64(c.take(8)) }

// flag reads a bool, written as one 0/1 byte; any other byte fails.
func (c *creader) flag() bool {
	b := c.byte()
	if c.ok() && b > 1 {
		c.fail(fmt.Errorf("store: flag byte %d is neither 0 nor 1", b))
	}
	return b == 1
}

// uvarint and svarint decode in the block; a varint the block does not
// hold whole (or a malformed one) goes byte by byte for binary's errors.
func (c *creader) uvarint() uint64 {
	if !c.ok() {
		return 0
	}
	if v, n := binary.Uvarint(c.buf[c.pos:]); n > 0 {
		c.pos += n
		return v
	}
	v, err := binary.ReadUvarint(c)
	if err != nil {
		c.fail(err)
		return 0
	}
	return v
}

func (c *creader) svarint() int64 {
	if !c.ok() {
		return 0
	}
	if v, n := binary.Varint(c.buf[c.pos:]); n > 0 {
		c.pos += n
		return v
	}
	v, err := binary.ReadVarint(c)
	if err != nil {
		c.fail(err)
		return 0
	}
	return v
}

// nodeID reads a node id, refusing one graph.NodeID cannot hold.
func (c *creader) nodeID() graph.NodeID {
	id := c.uvarint()
	if c.ok() && id > math.MaxInt32 {
		c.fail(fmt.Errorf("store: node id %d out of range", id))
		return 0
	}
	return graph.NodeID(id)
}

// str reads a length-prefixed string; one the block holds whole costs the
// one allocation it is kept in. The length is unverified, so a longer one's
// buffer grows with the bytes that actually arrive, strChunk at a time: a
// lying length fails at EOF having allocated no more than the input held.
func (c *creader) str() string {
	n := c.uvarint()
	if c.ok() && n > maxString {
		c.fail(fmt.Errorf("store: string length %d exceeds limit", n))
	}
	if !c.ok() {
		return ""
	}
	if n <= uint64(len(c.buf)-c.pos) {
		c.pos += int(n)
		return string(c.buf[c.pos-int(n) : c.pos])
	}
	b := make([]byte, 0, min(n, strChunk))
	for uint64(len(b)) < n && c.ok() {
		b = append(b, c.take(int(min(n-uint64(len(b)), strChunk)))...)
	}
	if !c.ok() {
		return ""
	}
	return string(b)
}

// rawU32 reads the trailer: a u32 that never enters the CRC.
func (c *creader) rawU32() uint32 {
	v := c.u32()
	c.folded = c.pos
	return v
}

func (c *creader) value() graph.Value {
	var v graph.Value
	switch k := c.byte(); graph.Kind(k) {
	case graph.KindInt:
		v = graph.Int(c.svarint())
	case graph.KindString:
		v = graph.Str(c.str())
	case graph.KindBool:
		v = graph.Bool(c.flag())
	case graph.KindFloat:
		v = graph.Float(math.Float64frombits(c.u64()))
	case graph.KindInvalid:
		// no payload: the zero (absent) Value
	default:
		c.fail(fmt.Errorf("store: unknown value kind %d", k))
	}
	if !c.ok() {
		return graph.Value{}
	}
	return v
}
