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

// creader mirrors cwriter: it decodes from a block of its own, refilled
// from an underlying reader, and folds the bytes it has consumed into a
// CRC-32 when the block is refilled or the sum is asked for. Without a
// reader the block is the whole input (a WAL payload, read in place). It
// implements io.ByteReader so that binary varint decoding falls back to it
// when a varint straddles two blocks.
type creader struct {
	r      io.Reader
	buf    []byte
	pos    int // next unread byte of buf
	folded int // buf[:folded] is in crc
	crc    uint32
}

func newCReader(r io.Reader) *creader {
	return &creader{r: r, buf: make([]byte, 0, blockSize)}
}

// need makes k ≤ blockSize unread bytes contiguous in the block, with
// io.ReadFull's errors: io.EOF when the input has ended, io.ErrUnexpectedEOF
// when it ends inside them.
func (c *creader) need(k int) error {
	if len(c.buf)-c.pos >= k {
		return nil
	}
	return c.fill(k)
}

// fill is need's refill: it folds the consumed bytes, moves the unread ones
// to the front and reads behind them.
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

func (c *creader) ReadByte() (byte, error) {
	if err := c.need(1); err != nil {
		return 0, err
	}
	c.pos++
	return c.buf[c.pos-1], nil
}

// read fills p, with io.ReadFull's errors.
func (c *creader) read(p []byte) error {
	for done := 0; done < len(p); {
		if err := c.need(1); err != nil {
			if done > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		n := copy(p[done:], c.buf[c.pos:])
		c.pos += n
		done += n
	}
	return nil
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

func (c *creader) u32() (uint32, error) {
	if err := c.need(4); err != nil {
		return 0, err
	}
	c.pos += 4
	return binary.LittleEndian.Uint32(c.buf[c.pos-4:]), nil
}

func (c *creader) u64() (uint64, error) {
	if err := c.need(8); err != nil {
		return 0, err
	}
	c.pos += 8
	return binary.LittleEndian.Uint64(c.buf[c.pos-8:]), nil
}

// uvarint and svarint decode in the block; a varint the block does not
// hold whole (or a malformed one) goes byte by byte for binary's errors.
func (c *creader) uvarint() (uint64, error) {
	if v, n := binary.Uvarint(c.buf[c.pos:]); n > 0 {
		c.pos += n
		return v, nil
	}
	return binary.ReadUvarint(c)
}

func (c *creader) svarint() (int64, error) {
	if v, n := binary.Varint(c.buf[c.pos:]); n > 0 {
		c.pos += n
		return v, nil
	}
	return binary.ReadVarint(c)
}

// nodeID reads a node id, refusing one graph.NodeID cannot hold.
func (c *creader) nodeID() (graph.NodeID, error) {
	id, err := c.uvarint()
	if err == nil && id > math.MaxInt32 {
		err = fmt.Errorf("store: node id %d out of range", id)
	}
	return graph.NodeID(id), err
}

// str reads a length-prefixed string; one the block holds whole costs the
// one allocation it is kept in. The length is unverified, so a longer one's
// buffer grows with the bytes that actually arrive, strChunk at a time: a
// lying length fails at EOF having allocated no more than the input held.
func (c *creader) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxString {
		return "", fmt.Errorf("store: string length %d exceeds limit", n)
	}
	if n <= uint64(len(c.buf)-c.pos) {
		c.pos += int(n)
		return string(c.buf[c.pos-int(n) : c.pos]), nil
	}
	b := make([]byte, 0, min(n, strChunk))
	for uint64(len(b)) < n {
		lo := len(b)
		b = append(b, make([]byte, min(n-uint64(lo), strChunk))...)
		if err := c.read(b[lo:]); err != nil {
			return "", err
		}
	}
	return string(b), nil
}

// rawU32 reads the trailer: a u32 that never enters the CRC.
func (c *creader) rawU32() (uint32, error) {
	v, err := c.u32()
	c.folded = c.pos
	return v, err
}

func (c *creader) value() (graph.Value, error) {
	k, err := c.ReadByte()
	if err != nil {
		return graph.Value{}, err
	}
	switch graph.Kind(k) {
	case graph.KindInt:
		i, err := c.svarint()
		if err != nil {
			return graph.Value{}, err
		}
		return graph.Int(i), nil
	case graph.KindString:
		s, err := c.str()
		if err != nil {
			return graph.Value{}, err
		}
		return graph.Str(s), nil
	case graph.KindBool:
		b, err := c.ReadByte()
		if err != nil {
			return graph.Value{}, err
		}
		return graph.Bool(b != 0), nil
	case graph.KindFloat:
		bits, err := c.u64()
		if err != nil {
			return graph.Value{}, err
		}
		return graph.Float(math.Float64frombits(bits)), nil
	case graph.KindInvalid:
		return graph.Value{}, nil
	default:
		return graph.Value{}, fmt.Errorf("store: unknown value kind %d", k)
	}
}
