package store

// This file holds the low-level binary codec shared by the snapshot format
// and the write-ahead log: CRC-tracking reader/writer wrappers plus
// varint/string/Value primitives. Both formats are little-endian, use
// unsigned varints for counts and ids, zigzag varints for integers, and
// length-prefixed byte strings; every byte that enters the stream also
// enters a running CRC-32 (IEEE) so torn or corrupted data is detected
// before it can be replayed.

import (
	"bufio"
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

// cwriter streams bytes to an underlying writer while folding them into a
// CRC-32 and counting them. Every field is rendered into (strings: copied
// through) scratch, which lives in the struct so that handing it to the
// writer does not make a fresh array escape on every call.
type cwriter struct {
	w       *bufio.Writer
	crc     uint32
	n       int64
	err     error
	scratch [64]byte
}

func newCWriter(w io.Writer) *cwriter {
	return &cwriter{w: bufio.NewWriterSize(w, 1<<16)}
}

func (c *cwriter) write(p []byte) {
	if c.err != nil {
		return
	}
	if _, err := c.w.Write(p); err != nil {
		c.err = err
		return
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	c.n += int64(len(p))
}

func (c *cwriter) byte(b byte)   { c.scratch[0] = b; c.write(c.scratch[:1]) }
func (c *cwriter) sum32() uint32 { return c.crc }
func (c *cwriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(c.scratch[:], v)
	c.write(c.scratch[:4])
}
func (c *cwriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(c.scratch[:], v)
	c.write(c.scratch[:8])
}
func (c *cwriter) uvarint(v uint64) { c.write(c.scratch[:binary.PutUvarint(c.scratch[:], v)]) }
func (c *cwriter) svarint(v int64)  { c.write(c.scratch[:binary.PutVarint(c.scratch[:], v)]) }
func (c *cwriter) str(s string) {
	c.uvarint(uint64(len(s)))
	for len(s) > 0 {
		n := copy(c.scratch[:], s)
		c.write(c.scratch[:n])
		s = s[n:]
	}
}

// rawU32 writes a u32 without folding it into the CRC — the trailer holding
// the CRC itself cannot be part of what it checks.
func (c *cwriter) rawU32(v uint32) {
	if c.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(c.scratch[:], v)
	if _, err := c.w.Write(c.scratch[:4]); err != nil {
		c.err = err
		return
	}
	c.n += 4
}

func (c *cwriter) flush() error {
	if c.err != nil {
		return c.err
	}
	return c.w.Flush()
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

// creader mirrors cwriter: it reads from an underlying reader while folding
// every byte into a CRC-32. It implements io.ByteReader so binary varint
// decoding works directly on it.
type creader struct {
	r       *bufio.Reader
	crc     uint32
	scratch [64]byte
}

func newCReader(r io.Reader) *creader {
	return &creader{r: bufio.NewReaderSize(r, 1<<16)}
}

func (c *creader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	c.scratch[0] = b
	c.crc = crc32.Update(c.crc, crc32.IEEETable, c.scratch[:1])
	return b, nil
}

func (c *creader) read(p []byte) error {
	if _, err := io.ReadFull(c.r, p); err != nil {
		return err
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return nil
}

func (c *creader) sum32() uint32 { return c.crc }

func (c *creader) u32() (uint32, error) {
	if err := c.read(c.scratch[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(c.scratch[:]), nil
}

func (c *creader) u64() (uint64, error) {
	if err := c.read(c.scratch[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(c.scratch[:]), nil
}

func (c *creader) uvarint() (uint64, error) { return binary.ReadUvarint(c) }
func (c *creader) svarint() (int64, error)  { return binary.ReadVarint(c) }

// nodeID reads a node id, refusing one graph.NodeID cannot hold.
func (c *creader) nodeID() (graph.NodeID, error) {
	id, err := c.uvarint()
	if err == nil && id > math.MaxInt32 {
		err = fmt.Errorf("store: node id %d out of range", id)
	}
	return graph.NodeID(id), err
}

// str reads a length-prefixed string; a short one (ids, labels, names) goes
// through scratch and costs the one allocation it is kept in. The length is
// unverified, so a long one's buffer grows with the bytes that actually
// arrive, strChunk at a time: a lying length fails at EOF having allocated
// no more than the input held.
func (c *creader) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxString {
		return "", fmt.Errorf("store: string length %d exceeds limit", n)
	}
	if n <= uint64(len(c.scratch)) {
		if err := c.read(c.scratch[:n]); err != nil {
			return "", err
		}
		return string(c.scratch[:n]), nil
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

// rawU32 reads a u32 bypassing the CRC (the trailer).
func (c *creader) rawU32() (uint32, error) {
	if _, err := io.ReadFull(c.r, c.scratch[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(c.scratch[:]), nil
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
