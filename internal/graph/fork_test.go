package graph_test

// A graph and its clones share pages of node slots, indexes and statistics
// until they write to them (page.go). The sharing must not be observable:
// every side — the original and each live clone — equals a graph built
// call by call from its own stream of calls, and its indexes a fresh
// build's, whatever the other sides do; a goroutine may
// read one side while another writes a second; and a clone costs its
// page table, not a copy of the graph.

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ngd/internal/gen"
	"ngd/internal/graph"
)

// call is one mutation of a side, replayable on its reference graph.
type call struct {
	kind byte // callNode … callFlip
	u, v graph.NodeID
	l    graph.LabelID
	a    graph.AttrID
	val  graph.Value
}

const (
	callNode = iota
	callAttr
	callEdge
	callDelete
	callApply
	callFlip
)

func (c call) do(g *graph.Graph) {
	switch c.kind {
	case callNode:
		g.AddNodeL(c.l)
	case callAttr:
		g.SetAttrA(c.u, c.a, c.val)
	case callEdge:
		g.AddEdgeL(c.u, c.v, c.l)
	case callDelete:
		g.DeleteEdgeL(c.u, c.v, c.l)
	case callApply:
		// the one edge c.u has at out-position c.a goes, c.u → c.v arrives
		d := &graph.Delta{}
		if out := g.Out(c.u); len(out) > 0 {
			h := out[int(c.a)%len(out)]
			d.Delete(c.u, h.To, h.Label)
		}
		d.Insert(c.u, c.v, c.l)
		g.Apply(d)
	case callFlip:
		// one un-normalized ΔG names u → v twice: an absent edge is
		// inserted then deleted, a present one deleted then re-inserted
		d := &graph.Delta{}
		if g.HasEdgeL(c.u, c.v, c.l) {
			d.Delete(c.u, c.v, c.l)
			d.Insert(c.u, c.v, c.l)
		} else {
			d.Insert(c.u, c.v, c.l)
			d.Delete(c.u, c.v, c.l)
		}
		g.Apply(d)
	}
}

// side is one graph of a fork family and the calls made on it since the
// base recipe; ref is built from exactly those calls by the mutators.
type side struct {
	g, ref *graph.Graph
	calls  []call
}

// decodeCall reads one call for a graph of n nodes from 7 bytes: kind, two
// node ids of two bytes each, and a selector for the label, attribute or
// position.
func decodeCall(b []byte, n, nl, na int) call {
	u := graph.NodeID(int(binary.BigEndian.Uint16(b[1:])) % n)
	v := graph.NodeID(int(binary.BigEndian.Uint16(b[3:])) % n)
	x := int(b[5])
	c := call{kind: b[0] % 6, u: u, v: v, l: graph.LabelID(1 + x%(nl-1)), a: graph.AttrID(x % na)}
	switch c.kind {
	case callAttr:
		c.val = graph.Int(int64(b[6]))
		if b[6]&1 == 1 {
			c.val = graph.Str(string(rune('a' + b[6]%26)))
		}
	case callApply:
		c.a = graph.AttrID(b[6])
	}
	return c
}

// forkStream runs a stream of 8-byte ops over a family grown from base:
// byte 0 picks the side, byte 1 chooses among a call on it, a fork of it
// and its release, and bytes 1..7 are the call. After every op each live
// side must equal its reference, and its indexes and statistics a fresh
// build's.
func forkStream(t *testing.T, base recipe, data []byte) {
	root := base.viaBuilder()
	// indexes the sides share until they write them (and statistics, which
	// sameGraph builds on the first check)
	root.EnsureAttrIndex(root.Label(0), 0)
	root.EnsureEdgeValIndex(1, 0, false)
	root.EnsureEdgeValIndex(1, 0, true)
	sides := []*side{{g: root, ref: base.viaMutators()}}
	nl, na := base.syms.NumLabels(), max(base.syms.NumAttrs(), 1)
	for ; len(data) >= 8; data = data[8:] {
		i := int(data[0]) % len(sides)
		s := sides[i]
		switch op := data[1] % 8; {
		case op == 6 && len(sides) < 4:
			f := &side{g: s.g.Clone(), ref: base.viaMutators(), calls: slices.Clone(s.calls)}
			for _, c := range f.calls {
				c.do(f.ref)
			}
			sides = append(sides, f)
		case op == 7 && len(sides) > 1:
			s.g.Release()
			if s.g.NumNodes() != 0 || s.g.NumEdges() != 0 {
				t.Fatalf("a released graph holds %d nodes, %d edges", s.g.NumNodes(), s.g.NumEdges())
			}
			sides = slices.Delete(sides, i, i+1)
		default:
			c := decodeCall(data[1:8], s.g.NumNodes(), nl, na)
			c.do(s.g)
			c.do(s.ref)
			s.calls = append(s.calls, c)
		}
		for _, s := range sides {
			sameGraph(t, s.g, s.ref)
			sameIndexes(t, s.g)
		}
	}
}

// sameIndexes fails unless g's indexes and statistics are a fresh build's.
func sameIndexes(t *testing.T, g *graph.Graph) {
	t.Helper()
	if got, want := graph.IndexState(g), graph.FreshIndexState(g); got != want {
		t.Fatalf("indexes or statistics are not a fresh build's:\n%s\nfresh:\n%s", got, want)
	}
}

// forkBase is a generated graph of a little over one page, built the
// scrambled way.
func forkBase(seed int64) recipe {
	return scrambled(gen.Generate(gen.YAGO2, 40, seed).G, rand.New(rand.NewSource(seed)))
}

// op encodes one op of forkStream: side, kind, node ids and selectors.
func op(side, kind byte, u, v uint16, x, y byte) []byte {
	b := []byte{side, kind, 0, 0, 0, 0, x, y}
	binary.BigEndian.PutUint16(b[2:], u)
	binary.BigEndian.PutUint16(b[4:], v)
	return b
}

func FuzzForkIsolation(f *testing.F) {
	seed := func(ops ...[]byte) []byte { return slices.Concat(ops...) }
	// fork; the original writes every kind of list on the first page, then
	// the clone writes the same slots, then the original is released and
	// the clone writes in place again
	f.Add(int64(1), seed(
		op(0, 6, 0, 0, 0, 0),
		op(0, callEdge, 3, 4, 1, 0), op(0, callAttr, 3, 0, 0, 9), op(0, callDelete, 3, 0, 0, 0), op(0, callNode, 0, 0, 2, 0),
		op(1, callEdge, 3, 5, 1, 0), op(1, callAttr, 3, 0, 1, 8), op(1, callDelete, 3, 0, 0, 0), op(1, callApply, 4, 3, 2, 1),
		op(0, 7, 0, 0, 0, 0),
		op(0, callEdge, 3, 6, 1, 0), op(0, callAttr, 3, 0, 1, 7), op(0, callNode, 0, 0, 1, 0),
	))
	// a clone of a clone, writes across the page boundary (node 256 on),
	// and the middle generation released while both ends keep writing
	f.Add(int64(2), seed(
		op(0, 6, 0, 0, 0, 0), op(1, 6, 0, 0, 0, 0),
		op(0, callEdge, 300, 2, 3, 0), op(1, callEdge, 2, 300, 3, 0), op(2, callApply, 300, 255, 1, 0),
		op(1, 7, 0, 0, 0, 0),
		op(0, callAttr, 256, 0, 2, 4), op(1, callAttr, 256, 0, 2, 5), op(1, callDelete, 300, 0, 0, 0),
		op(0, callNode, 0, 0, 0, 0), op(1, callNode, 0, 0, 0, 0),
	))
	// forks taken and released back to back with no write between them
	f.Add(int64(3), seed(
		op(0, 6, 0, 0, 0, 0), op(1, 7, 0, 0, 0, 0), op(0, 6, 0, 0, 0, 0), op(0, 7, 0, 0, 0, 0),
		op(0, callDelete, 10, 0, 0, 0), op(0, callEdge, 10, 11, 0, 0), op(0, callAttr, 10, 0, 0, 3),
	))
	// the clone changes, in place, lists of a page the original copied
	// but left alone: the copy still shares them
	f.Add(int64(1), seed(
		op(0, 6, 0, 0, 0, 0), op(0, callAttr, 3, 0, 0, 9),
		op(1, callAttr, 5, 0, 0, 1), op(1, callAttr, 5, 0, 1, 1), op(1, callAttr, 6, 0, 0, 1), op(1, callAttr, 6, 0, 1, 1),
		op(1, callDelete, 5, 0, 0, 0), op(1, callDelete, 6, 0, 0, 0), op(1, callDelete, 7, 0, 0, 0),
	))
	// both sides add nodes of one label (other ids) after the fork, into a
	// posting with room to grow in place
	f.Add(int64(4), seed(
		op(0, callNode, 0, 0, 0, 0), op(0, callNode, 0, 0, 0, 0), op(0, callNode, 0, 0, 0, 0),
		op(0, 6, 0, 0, 0, 0), op(0, callNode, 0, 0, 1, 0), op(0, callNode, 0, 0, 0, 0), op(1, callNode, 0, 0, 0, 0),
	))
	// the indexed edge label is 1 (selector 0): one ΔG inserts then deletes
	// an edge of it beside a held fork, on each side
	f.Add(int64(1), seed(
		op(0, 6, 0, 0, 0, 0), op(0, callFlip, 3, 9, 0, 0), op(1, callFlip, 3, 9, 0, 0),
	))
	// one ΔG deletes then re-inserts an indexed edge, on each side
	f.Add(int64(2), seed(
		op(0, callEdge, 3, 9, 0, 0), op(0, 6, 0, 0, 0, 0),
		op(0, callFlip, 3, 9, 0, 0), op(1, callFlip, 3, 9, 0, 0),
	))
	// attribute writes move an indexed edge's key under both ends while a
	// fork is held, then the fork moves it too
	f.Add(int64(3), seed(
		op(0, callEdge, 3, 9, 0, 0), op(0, 6, 0, 0, 0, 0),
		op(0, callAttr, 9, 0, 0, 4), op(0, callAttr, 3, 0, 0, 8), op(1, callAttr, 9, 0, 0, 6),
	))
	// beside a held fork, on forkBase(1): side 0 grows node 256's out-list
	// past its span into the room of its copied page, then past the arena,
	// and side 1 does the same on its built pages, whose room is the
	// builder's (in-lists of nodes 100 onwards grow too)
	grow := func(side byte, u uint16) (ops [][]byte) {
		for i := range uint16(14) {
			ops = append(ops, op(side, callEdge, u, 100+i, 0, 0))
		}
		return ops
	}
	f.Add(int64(0), seed(slices.Concat([][]byte{op(0, 6, 0, 0, 0, 0)}, grow(0, 256), grow(1, 256), grow(1, 3))...))
	// beside a held fork, on forkBase(1), deletions among the 57 edges of
	// page 1 (entities 256, 264, … with labels 3–9 to the next seven
	// nodes) compact page 1: side 0's copy at the 39th of 40, and, once
	// side 0 has copied page 1, side 1's built page at the 35th of 36
	// (the built out-arena keeps the recipe's duplicate edges)
	prune := func(side byte, k uint16) (ops [][]byte) {
		for e := range k {
			u, j := 256+8*(e/7), e%7
			ops = append(ops, op(side, callDelete, u, u+1+j, byte(j+2), 0))
		}
		return ops
	}
	f.Add(int64(0), seed(slices.Concat([][]byte{op(0, 6, 0, 0, 0, 0)}, prune(0, 40))...))
	f.Add(int64(0), seed(slices.Concat([][]byte{op(0, 6, 0, 0, 0, 0), op(0, callEdge, 300, 100, 0, 0)}, prune(1, 36))...))
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) > 64*8 {
			data = data[:64*8]
		}
		forkStream(t, forkBase(1+seed&3), data)
	})
}

// digest hashes what a reader of g can observe.
func digest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	put := func(xs ...int64) {
		for _, x := range xs {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x)))
		}
	}
	put(int64(g.NumNodes()), int64(g.NumEdges()))
	for v := range graph.NodeID(g.NumNodes()) {
		put(int64(g.Label(v)))
		g.Attrs(v, func(a graph.AttrID, val graph.Value) {
			put(int64(a))
			h.Write([]byte(val.String()))
		})
		for _, l := range [][]graph.Half{g.Out(v), g.In(v)} {
			for _, e := range l {
				put(int64(e.Label), int64(e.To))
			}
		}
	}
	for l := range graph.LabelID(g.Symbols().NumLabels()) {
		for _, v := range g.NodesWithLabel(l) {
			put(int64(v))
		}
	}
	return h.Sum64()
}

// TestForkReadsBesideTheWriter: a goroutine reads a clone while the
// original changes every kind of list — tuples in place and shifted, out-
// and in-lists, by-label postings, a new page — then the clone is released
// and the original writes in place again. Run it under -race.
func TestForkReadsBesideTheWriter(t *testing.T) {
	r := scrambled(gen.Generate(gen.YAGO2, 120, 7).G, rand.New(rand.NewSource(7)))
	g, stepped := r.viaBuilder(), r.viaMutators()
	last := graph.AttrID(g.Symbols().NumAttrs() - 1)
	for round := range 3 {
		fork := g.Clone()
		want := digest(fork)
		var wg sync.WaitGroup
		got := make([]uint64, 3)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range got {
				got[i] = digest(fork)
			}
		}()
		churn(rand.New(rand.NewSource(int64(round))), g, stepped)
		for _, x := range []*graph.Graph{g, stepped} {
			for v := range graph.NodeID(x.NumNodes()) {
				if v%3 == 0 {
					x.SetAttrA(v, last, graph.Int(int64(round)))
				}
			}
			for range graph.PageSize + 1 {
				x.AddNodeL(x.Label(0))
			}
		}
		wg.Wait()
		for i, d := range got {
			if d != want {
				t.Fatalf("round %d: read %d of the clone saw the original's writes", round, i)
			}
		}
		fork.Release()
	}
	churn(rand.New(rand.NewSource(9)), g, stepped)
	sameGraph(t, g, stepped)
}

// TestForkReadsBesideArenaEvents: a goroutine walks a clone's lists and
// tuples while the original, on the same pages, edits lists and values in
// place, grows lists past their spans (into the headroom, then past the
// arena), adds attributes, and deletes until the pages compact. Run it
// under -race.
func TestForkReadsBesideArenaEvents(t *testing.T) {
	r := scrambled(gen.Generate(gen.YAGO2, 40, 5).G, rand.New(rand.NewSource(5)))
	g, stepped := r.viaBuilder(), r.viaMutators()
	fork := g.Clone()
	defer fork.Release()
	want := digest(fork)
	var (
		wg    sync.WaitGroup
		reads atomic.Int32
		stale atomic.Bool
	)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if digest(fork) != want {
				stale.Store(true)
			}
			reads.Add(1)
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	extra := g.Symbols().Attr("extra")
	stepped.Symbols().Attr("extra")
	for _, x := range []*graph.Graph{g, stepped} {
		n := graph.NodeID(x.NumNodes())
		for v := range n {
			if out := x.Out(v); len(out) > 1 && v%5 == 0 {
				x.DeleteEdgeL(v, out[0].To, out[0].Label)
			}
			if x.NumAttrs(v) > 0 && v%7 == 0 {
				x.SetAttrA(v, 0, graph.Int(-1))
			}
		}
		for _, u := range []graph.NodeID{5, graph.PageSize + 3} {
			for w := range graph.NodeID(40) {
				x.AddEdgeL(u, (u+7*w+1)%n, 1)
			}
		}
		for v := range n {
			if v%2 == 0 {
				x.SetAttrA(v, extra, graph.Int(int64(v)))
			}
		}
		for v := graph.NodeID(graph.PageSize); v < n; v++ {
			for len(x.Out(v)) > 0 {
				h := x.Out(v)[0]
				x.DeleteEdgeL(v, h.To, h.Label)
			}
		}
	}
	close(done)
	wg.Wait()
	if stale.Load() {
		t.Fatalf("a read of the clone (of %d) saw the original's writes", reads.Load())
	}
	sameGraph(t, g, stepped)
	if digest(fork) != want {
		t.Fatal("the clone changed")
	}
}

func allocated(f func()) int {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return int(m1.TotalAlloc - m0.TotalAlloc)
}

// TestForkCopiesWhatItTouches: at 64k nodes a clone allocates its page
// tables and headers (a copying clone took 9.4 MB), and a 16-op commit on
// the original while the clone is held allocates what it does without a
// clone plus a copy of each page it writes (slots and arena) and of the
// statistics. With a page of list headers and a copy per list changed,
// the same commit allocated 222,776 bytes; with arenas, 210,480.
func TestForkCopiesWhatItTouches(t *testing.T) {
	g, twin := gen.Generate(gen.YAGO2, 8000, 1).G, gen.Generate(gen.YAGO2, 8000, 1).G
	g.LiveStats()
	twin.LiveStats()
	var fork *graph.Graph
	if b := allocated(func() { fork = g.Clone() }); b > 64<<10 {
		t.Fatalf("Clone of %d nodes allocated %d bytes, budget 64 KiB", g.NumNodes(), b)
	}
	defer fork.Release()

	rnd := rand.New(rand.NewSource(4))
	n, d := g.NumNodes(), &graph.Delta{}
	for d.Len() < 16 {
		u := graph.NodeID(rnd.Intn(n))
		if out := g.Out(u); len(out) > 0 && rnd.Intn(2) == 0 {
			d.Delete(u, out[0].To, out[0].Label)
		} else {
			d.Insert(u, graph.NodeID(rnd.Intn(n)), 1)
		}
	}
	pages := map[[2]int]bool{}
	budget := allocated(func() { twin.Apply(d) }) + allocated(func() { graph.CopyStats(twin) })
	for _, op := range d.Ops {
		for i, v := range []graph.NodeID{op.Src, op.Dst} {
			if k := [2]int{i, int(v) / graph.PageSize}; !pages[k] {
				pages[k] = true
				budget += graph.PageCopyBytes(g, v, i == 0)
			}
		}
	}
	want := digest(fork)
	b := allocated(func() { g.Apply(d) })
	t.Logf("16 ops over %d pages: %d bytes (budget %d)", len(pages), b, budget)
	if b > budget {
		t.Fatalf("a 16-op commit beside a clone allocated %d bytes, budget %d", b, budget)
	}
	if digest(fork) != want {
		t.Fatal("the commit leaked into the clone")
	}
}

// TestReleasedForkLeavesWritesInPlace: once the clone is released, warm
// commits on the original allocate what they did before the clone, and
// warm delete+insert flips on a page the original copied while the clone
// was held allocate nothing: the copy owns its lists.
func TestReleasedForkLeavesWritesInPlace(t *testing.T) {
	g := gen.Generate(gen.YAGO2, 400, 2).G
	d := &graph.Delta{}
	for u := range graph.NodeID(16) {
		d.Insert(u, u+1, 1)
	}
	inv := d.Inverse()
	flip := func() { g.Apply(d); g.Apply(inv) }
	flip()
	before := testing.AllocsPerRun(20, flip)
	g.Clone().Release()
	after := testing.AllocsPerRun(20, flip)
	if after != before {
		t.Fatalf("warm commit allocates %.1f objects after a released clone, %.1f before", after, before)
	}

	// each list flipped once, on the first page of each adjacency table,
	// which the original copied while a clone was held
	fork := g.Clone()
	flip()
	fork.Release()
	var held []graph.EdgeOp
	for u := graph.NodeID(17); u < graph.PageSize; u++ {
		for _, h := range g.Out(u) {
			if h.To > 17 && h.To < graph.PageSize && len(held) < 21 {
				held = append(held, graph.EdgeOp{Src: u, Dst: h.To, Label: h.Label})
				break
			}
		}
	}
	if len(held) < 21 {
		t.Fatalf("%d edges within the first page, want 21", len(held))
	}
	next := func() {
		e := held[0]
		held = held[1:]
		g.DeleteEdgeL(e.Src, e.Dst, e.Label)
		g.AddEdgeL(e.Src, e.Dst, e.Label)
	}
	if a := testing.AllocsPerRun(20, next); a != 0 {
		t.Fatalf("a delete+insert flip on a page copied beside a released clone allocates %.1f objects, want 0", a)
	}
}
