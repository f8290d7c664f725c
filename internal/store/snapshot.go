package store

// Snapshot codec (format version 1). A snapshot is a complete, self-
// describing image of a serving session at one batch sequence number:
//
//	magic   "NGDSNAPS"                      (8 bytes)
//	u32     format version (1)
//	u64     seq — the batch sequence the snapshot covers
//	symbols labels beyond the wildcard, then attribute names (counted
//	        string lists; interning order is preserved so ids decode
//	        identically)
//	nodes   per node: label id, attribute count, (attr id, typed value)*
//	edges   per node: out-degree, (edge label id, head node)* — in-lists,
//	        the by-label postings and the attribute indexes are derived
//	        structures and are rebuilt on load
//	names   the external-id map: (string id, node)*, in node order (the
//	        ids of one node in string order)
//	rules   the rule set Σ rendered in the text DSL (re-parsed on load)
//	vios    the violation store: (rule name, match node list)*
//	u32     CRC-32 (IEEE) of every preceding byte
//
// The violation store rides in the snapshot so recovery can seed the
// restored session without re-running batch detection — that is what makes
// recovery cost proportional to the WAL suffix rather than to |G|·‖Σ‖.
// Snapshots are written to a temp file and atomically renamed into place;
// a torn snapshot write can therefore never shadow the previous good one.

import (
	"errors"
	"fmt"
	"io"
	"iter"
	"slices"

	"ngd/internal/graph"
	"ngd/internal/session"
)

const (
	snapMagic  = "NGDSNAPS"
	walMagic   = "NGDWALOG"
	codecVer   = 1
	headerLen  = len(snapMagic) + 4 + 8 // appendHeader's, for both formats
	snapSuffix = ".ngds"
	walSuffix  = ".ngdw"
	tmpSuffix  = ".tmp"
)

// vioRec is a violation as persisted: the rule by name, the match by node
// ids. Resolution back to *core.NGD happens after the rules text is parsed.
type vioRec struct {
	Rule  string
	Match []graph.NodeID
}

// snapshotData is the decoded (or to-be-encoded) content of one snapshot.
// Names and Violations are as decoded; the encoder takes the names laid
// out by node (nodeNames) and the violations as a vioSeq.
type snapshotData struct {
	Seq        uint64
	G          *graph.Graph
	Names      map[string]graph.NodeID
	RulesText  string
	Violations []vioRec
}

// vioSeq is a violation store as the encoder reads it: its size, then its
// records in order.
type vioSeq struct {
	n   int
	all iter.Seq2[string, []graph.NodeID]
}

// storeVios reads the records of a session snapshot in place.
func storeVios(sn *session.Snapshot) vioSeq {
	return vioSeq{sn.Len(), func(yield func(string, []graph.NodeID) bool) {
		for k := range sn.All().Records() {
			if !yield(k.Rule.Name, k.Match) {
				return
			}
		}
	}}
}

// writeSnapshot encodes sd, with names for its external-id map and vios
// for its violation store, onto w.
func writeSnapshot(w io.Writer, sd *snapshotData, names nodeNames, vios vioSeq) error {
	c := newCWriter(w)
	c.write(appendHeader(nil, snapMagic, sd.Seq))

	// symbols: labels beyond the pre-interned wildcard, then attrs
	syms := sd.G.Symbols()
	c.uvarint(uint64(syms.NumLabels() - 1))
	for l := 1; l < syms.NumLabels(); l++ {
		c.str(syms.LabelName(graph.LabelID(l)))
	}
	c.uvarint(uint64(syms.NumAttrs()))
	for a := 0; a < syms.NumAttrs(); a++ {
		c.str(syms.AttrName(graph.AttrID(a)))
	}

	// nodes: label + typed attribute tuple
	n := sd.G.NumNodes()
	c.uvarint(uint64(n))
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		c.uvarint(uint64(sd.G.Label(id)))
		c.uvarint(uint64(sd.G.NumAttrs(id)))
		sd.G.Attrs(id, func(a graph.AttrID, val graph.Value) {
			c.uvarint(uint64(a))
			c.value(val)
		})
	}

	// adjacency: out-lists only (in-lists are the mirror image)
	for v := 0; v < n; v++ {
		out := sd.G.Out(graph.NodeID(v))
		c.uvarint(uint64(len(out)))
		for _, h := range out {
			c.uvarint(uint64(h.Label))
			c.uvarint(uint64(h.To))
		}
	}

	// external-id map, in node order
	c.uvarint(uint64(len(names.ids)))
	lo := int32(0)
	for v, hi := range names.end {
		for _, id := range names.ids[lo:hi] {
			c.str(id)
			c.uvarint(uint64(v))
		}
		lo = hi
	}

	// rules + violation store
	c.str(sd.RulesText)
	c.uvarint(uint64(vios.n))
	for rule, match := range vios.all {
		c.str(rule)
		c.uvarint(uint64(len(match)))
		for _, m := range match {
			c.uvarint(uint64(m))
		}
	}

	c.rawU32(c.sum32())
	return c.flush()
}

// nodeNames is an external-id map laid out by node: the ids naming node v
// are ids[end[v-1]:end[v]] (from 0 for node 0), in string order when there
// are several, so that neither the order nor the snapshot bytes depend on
// the map's. It takes less room than a copy of the map, and a copy of the
// struct is a frozen prefix: add only appends.
type nodeNames struct {
	ids []string
	end []int32
}

// add binds id to node v, past every node laid out so far (an arriving
// node), and reports whether it did. A node already laid out is refused: a
// batch record carries the ids of its arriving nodes only, so no WAL could
// hold the binding. An id bound again to a newer node is kept twice, and
// decoding, in node order, keeps the newer binding.
func (nn *nodeNames) add(id string, v graph.NodeID) bool {
	if int(v) < len(nn.end) {
		return false
	}
	for int(v) > len(nn.end) {
		nn.end = append(nn.end, int32(len(nn.ids)))
	}
	nn.ids = append(nn.ids, id)
	nn.end = append(nn.end, int32(len(nn.ids)))
	return true
}

// byNode lays names out with one counting pass; n is a hint of the node
// count.
func byNode(names map[string]graph.NodeID, n int) nodeNames {
	if len(names) == 0 {
		return nodeNames{}
	}
	end := make([]int32, n)
	for _, v := range names {
		if int(v) >= len(end) {
			end = append(end, make([]int32, int(v)+1-len(end))...)
		}
		end[v]++
	}
	sum := int32(0)
	for v, c := range end {
		end[v], sum = sum, sum+c // where v's ids start, until the fill moves it to their end
	}
	ids := make([]string, len(names))
	for id, v := range names {
		ids[end[v]] = id
		end[v]++
	}
	lo := int32(0)
	for _, hi := range end {
		if hi-lo > 1 {
			slices.Sort(ids[lo:hi])
		}
		lo = hi
	}
	return nodeNames{ids, end}
}

// presizeCap bounds every allocation sized from a count in the file. Counts
// are read before the CRC is verified, so a 31-byte file may claim 2^34
// names; beyond the cap, append and map growth follow the bytes that
// actually arrive.
const presizeCap = 1 << 12

func presize(n uint64) int { return int(min(n, presizeCap)) }

// readSnapshot decodes a snapshot, rebuilding the graph through a
// graph.Builder (including its derived structures: in-lists and by-label
// postings; attribute indexes are rebuilt lazily by the first matching plan
// that wants them). The CRC trailer is verified before the result is
// returned, and it must end the input.
func readSnapshot(r io.Reader) (*snapshotData, error) {
	c := newCReader(r)
	sd := &snapshotData{Seq: c.header(snapMagic)}
	if !c.ok() {
		return nil, fmt.Errorf("store: snapshot header: %w", c.err)
	}

	// symbols: intern in recorded order so ids decode identically
	syms := graph.NewSymbols()
	for i := c.uvarint(); i > 0 && c.ok(); i-- {
		syms.Label(c.str())
	}
	for i := c.uvarint(); i > 0 && c.ok(); i-- {
		syms.Attr(c.str())
	}
	if !c.ok() {
		return nil, c.err
	}

	b := graph.NewBuilder(syms)
	nNodes := c.uvarint()
	for i := uint64(0); i < nNodes && c.ok(); i++ {
		lbl := c.uvarint()
		if c.ok() && lbl >= uint64(syms.NumLabels()) {
			c.fail(fmt.Errorf("store: node %d references unknown label id %d", i, lbl))
		}
		b.AddNodeL(graph.LabelID(lbl))
		for j := c.uvarint(); j > 0 && c.ok(); j-- {
			a := c.uvarint()
			if c.ok() && a >= uint64(syms.NumAttrs()) {
				c.fail(fmt.Errorf("store: node %d references unknown attr id %d", i, a))
			}
			b.SetAttrA(graph.AttrID(a), c.value(i, syms.AttrName(graph.AttrID(a))))
		}
	}
	for v := uint64(0); v < nNodes && c.ok(); v++ {
		for j := c.uvarint(); j > 0 && c.ok(); j-- {
			lbl, to := c.uvarint(), c.uvarint()
			if c.ok() && (to >= nNodes || lbl >= uint64(syms.NumLabels())) {
				c.fail(fmt.Errorf("store: edge (%d -%d-> %d) out of range", v, lbl, to))
			}
			b.AddEdgeL(graph.NodeID(v), graph.NodeID(to), graph.LabelID(lbl))
		}
	}
	if !c.ok() {
		return nil, c.err
	}
	sd.G = b.Build()

	nNames := c.uvarint()
	sd.Names = make(map[string]graph.NodeID, presize(nNames))
	for i := nNames; i > 0 && c.ok(); i-- {
		id, v := c.str(), c.uvarint()
		if c.ok() && v >= nNodes {
			c.fail(fmt.Errorf("store: external id %q references unknown node %d", id, v))
		}
		sd.Names[id] = graph.NodeID(v)
	}

	sd.RulesText = c.str()
	nVios := c.uvarint()
	sd.Violations = make([]vioRec, 0, presize(nVios))
	for i := nVios; i > 0 && c.ok(); i-- {
		name, ml := c.str(), c.uvarint()
		m := make([]graph.NodeID, 0, min(ml, 64))
		for j := ml; j > 0 && c.ok(); j-- {
			id := c.uvarint()
			if c.ok() && id >= nNodes {
				c.fail(fmt.Errorf("store: violation %q match references unknown node %d", name, id))
			}
			m = append(m, graph.NodeID(id))
		}
		sd.Violations = append(sd.Violations, vioRec{Rule: name, Match: m})
	}
	if !c.ok() {
		return nil, c.err
	}

	want := c.sum32()
	got := c.rawU32()
	if !c.ok() {
		return nil, fmt.Errorf("store: snapshot trailer: %w", c.err)
	}
	if got != want {
		return nil, fmt.Errorf("store: snapshot checksum mismatch (file %08x, computed %08x)", got, want)
	}
	if end, err := c.end(); err != nil {
		return nil, fmt.Errorf("store: snapshot trailer: %w", err)
	} else if !end {
		return nil, errors.New("store: bytes after the snapshot trailer")
	}
	return sd, nil
}
