package dsl

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"ngd/internal/graph"
)

// Graph file format, line oriented ('#' comments):
//
//	node <id> <label> [attr=value ...]
//	edge <srcid> <label> <dstid>
//
// Update file format (applies against a previously loaded graph; new nodes
// may be declared inline):
//
//	node <id> <label> [attr=value ...]
//	insert <srcid> <label> <dstid>
//	delete <srcid> <label> <dstid>
//
// ids are arbitrary tokens without whitespace; string attribute values are
// Go-quoted. ids, labels and attribute names are opaque bytes: they are
// compared and stored exactly as they appear in the file, invalid UTF-8
// included.

// LoadGraph reads the graph format. It returns the graph and the id→node
// mapping (useful for later update files).
func LoadGraph(r io.Reader) (*graph.Graph, map[string]graph.NodeID, error) {
	syms := graph.NewSymbols()
	b := graph.NewBuilder(syms)
	ld := newLoader(syms, make(map[string]graph.NodeID), b.AddNodeL,
		func(_ graph.NodeID, a graph.AttrID, val graph.Value) { b.SetAttrA(a, val) })
	err := scanLines(r, func(line int, fields [][]byte) error {
		switch string(fields[0]) {
		case "node":
			return ld.node(line, fields)
		case "edge":
			if len(fields) != 4 {
				return fmt.Errorf("line %d: edge needs `edge src label dst`", line)
			}
			src, dst, l, err := ld.edge(line, fields)
			if err != nil {
				return err
			}
			b.AddEdgeL(src, dst, l)
		default:
			return fmt.Errorf("line %d: unknown directive %q", line, fields[0])
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return b.Build(), ld.ids, nil
}

// LoadDelta reads an update file against g, adding any declared new nodes
// to g and returning the edge delta.
func LoadDelta(r io.Reader, g *graph.Graph, ids map[string]graph.NodeID) (*graph.Delta, error) {
	d := &graph.Delta{}
	ld := newLoader(g.Symbols(), ids, g.AddNodeL, g.SetAttrA)
	err := scanLines(r, func(line int, fields [][]byte) error {
		switch verb := string(fields[0]); verb {
		case "node":
			return ld.node(line, fields)
		case "insert", "delete":
			if len(fields) != 4 {
				return fmt.Errorf("line %d: %s needs `src label dst`", line, verb)
			}
			src, dst, l, err := ld.edge(line, fields)
			if err != nil {
				return err
			}
			if verb == "insert" {
				d.Insert(src, dst, l)
			} else {
				d.Delete(src, dst, l)
			}
		default:
			return fmt.Errorf("line %d: unknown directive %q", line, fields[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// loader holds what LoadGraph and LoadDelta share: the external-id map,
// the node sink (a Builder for a whole graph, the graph's own mutators for
// an update file's inline nodes) and a text → id cache in front of the
// symbol table. Fields alias the scanner's buffer and die at the next line,
// so map lookups convert in place (m[string(b)] does not copy) and a string
// is made only for what is kept: a first-seen name, or a new node id, which
// is carved from the id arena.
type loader struct {
	syms    *graph.Symbols
	ids     map[string]graph.NodeID
	idText  arena
	labels  map[string]graph.LabelID
	attrs   map[string]graph.AttrID
	addNode func(graph.LabelID) graph.NodeID
	setAttr func(graph.NodeID, graph.AttrID, graph.Value)
}

// arenaChunk is the size of one id arena chunk in bytes.
const arenaChunk = 32 << 10

// arena hands out strings carved from shared chunks: each is a substring
// of its chunk's text, so a chunk costs one allocation however many ids it
// holds. A strings.Builder never rewrites bytes it has written and a chunk
// is never written past its capacity, so every string handed out stays
// as it was.
type arena struct{ chunk strings.Builder }

func (a *arena) string(b []byte) string {
	if a.chunk.Cap()-a.chunk.Len() < len(b) {
		a.chunk = strings.Builder{}
		a.chunk.Grow(max(arenaChunk, len(b)))
	}
	lo := a.chunk.Len()
	a.chunk.Write(b)
	return a.chunk.String()[lo:]
}

func newLoader(syms *graph.Symbols, ids map[string]graph.NodeID,
	addNode func(graph.LabelID) graph.NodeID,
	setAttr func(graph.NodeID, graph.AttrID, graph.Value)) *loader {
	return &loader{
		syms: syms, ids: ids, addNode: addNode, setAttr: setAttr,
		labels: make(map[string]graph.LabelID),
		attrs:  make(map[string]graph.AttrID),
	}
}

func (ld *loader) label(b []byte) graph.LabelID {
	id, ok := ld.labels[string(b)]
	if !ok {
		name := string(b)
		id = ld.syms.Label(name)
		ld.labels[name] = id
	}
	return id
}

func (ld *loader) attr(b []byte) graph.AttrID {
	id, ok := ld.attrs[string(b)]
	if !ok {
		name := string(b)
		id = ld.syms.Attr(name)
		ld.attrs[name] = id
	}
	return id
}

// node handles `node <id> <label> [attr=value ...]`.
func (ld *loader) node(line int, fields [][]byte) error {
	if len(fields) < 3 {
		return fmt.Errorf("line %d: node needs id and label", line)
	}
	if _, dup := ld.ids[string(fields[1])]; dup {
		return fmt.Errorf("line %d: duplicate node id %q", line, fields[1])
	}
	v := ld.addNode(ld.label(fields[2]))
	ld.ids[ld.idText.string(fields[1])] = v
	for _, kv := range fields[3:] {
		i := bytes.IndexByte(kv, '=')
		if i <= 0 {
			return fmt.Errorf("line %d: bad attribute %q (want name=value)", line, kv)
		}
		val, err := parseValue(kv[i+1:])
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		ld.setAttr(v, ld.attr(kv[:i]), val)
	}
	return nil
}

// edge resolves `<verb> <src> <label> <dst>` (arity already checked). The
// label is interned only once both endpoints are known.
func (ld *loader) edge(line int, fields [][]byte) (src, dst graph.NodeID, l graph.LabelID, err error) {
	src, ok := ld.ids[string(fields[1])]
	if !ok {
		return 0, 0, 0, fmt.Errorf("line %d: %s references unknown node %q", line, fields[0], fields[1])
	}
	dst, ok = ld.ids[string(fields[3])]
	if !ok {
		return 0, 0, 0, fmt.Errorf("line %d: %s references unknown node %q", line, fields[0], fields[3])
	}
	return src, dst, ld.label(fields[2]), nil
}

// parseValue is graph.ParseValue over bytes: a decimal integer of at most
// 18 digits (it cannot overflow) is read in place, anything else takes the
// string route.
func parseValue(b []byte) (graph.Value, error) {
	digits := b
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		digits = b[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return graph.ParseValue(string(b))
	}
	var n int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return graph.ParseValue(string(b))
		}
		n = n*10 + int64(c-'0')
	}
	if b[0] == '-' {
		n = -n
	}
	return graph.Int(n), nil
}

// WriteGraph renders g in the graph format with node ids "n<index>".
func WriteGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Fprintf(bw, "node n%d %s", v, g.LabelName(graph.NodeID(v)))
		g.Attrs(graph.NodeID(v), func(a graph.AttrID, val graph.Value) {
			fmt.Fprintf(bw, " %s=%s", g.Symbols().AttrName(a), val)
		})
		fmt.Fprintln(bw)
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, h := range g.Out(graph.NodeID(v)) {
			fmt.Fprintf(bw, "edge n%d %s n%d\n", v, g.Symbols().LabelName(h.Label), h.To)
		}
	}
	return bw.Flush()
}

// WriteDelta renders d in the update format (nodes are assumed present).
func WriteDelta(w io.Writer, g *graph.Graph, d *graph.Delta) error {
	bw := bufio.NewWriter(w)
	for _, op := range d.Ops {
		verb := "delete"
		if op.Insert {
			verb = "insert"
		}
		fmt.Fprintf(bw, "%s n%d %s n%d\n", verb, op.Src, g.Symbols().LabelName(op.Label), op.Dst)
	}
	return bw.Flush()
}

// scanLines tokenizes non-empty, non-comment lines. Quoted strings in
// attribute values survive because fields are split on spaces outside
// quotes. The fields alias the scanner's buffer: fn must copy what it keeps.
// Every error — directive errors from fn and scanner failures alike —
// carries the 1-based line number it arose on.
func scanLines(r io.Reader, fn func(line int, fields [][]byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var fields [][]byte
	line := 0
	for sc.Scan() {
		line++
		s := bytes.TrimSpace(sc.Bytes())
		if len(s) == 0 || s[0] == '#' {
			continue
		}
		fields = splitQuoted(fields[:0], s)
		if err := fn(line, fields); err != nil {
			return fmt.Errorf("dsl: %w", err)
		}
	}
	if err := sc.Err(); err != nil {
		// the scanner failed on the line after the last one it delivered
		// (e.g. a line longer than the buffer cap, or a read error)
		return fmt.Errorf("dsl: line %d: %v", line+1, err)
	}
	return nil
}

// splitQuoted appends to dst the fields of s: maximal spans free of spaces
// and tabs outside double quotes (backslash escapes the next byte inside
// quotes). A field is scanned byte by byte and a quoted span inside it is
// skipped by an inner loop up to its closing quote; an unterminated quote
// runs to the end of the line. Every separator is ASCII, so multi-byte or
// invalid sequences pass through untouched; fields are subslices of s.
func splitQuoted(dst [][]byte, s []byte) [][]byte {
	for i := 0; i < len(s); {
		if c := s[i]; c == ' ' || c == '\t' {
			i++
			continue
		}
		start := i
		for i < len(s) && s[i] != ' ' && s[i] != '\t' {
			i++
			if s[i-1] != '"' {
				continue
			}
			for i < len(s) && s[i] != '"' {
				if s[i] == '\\' {
					i++
				}
				i++
			}
			i++ // the closing quote
		}
		i = min(i, len(s))
		dst = append(dst, s[start:i])
	}
	return dst
}
