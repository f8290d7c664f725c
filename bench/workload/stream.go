package workload

import (
	"math/rand"
	"strconv"

	"ngd"
)

// Window is the sliding-window length W: request i undoes request i-W.
const Window = 16

// reservedEvery marks every tenth entity as reserved: no stream ever uses
// one as the source of an op, so the violations of its property star keep
// their keys for a whole run and readers can look them up without racing a
// commit.
const reservedEvery = 10

// Reserved reports whether streams leave entity e's own edges alone.
func Reserved(e int) bool { return e%reservedEvery == reservedEvery-1 }

// arrival is a new entity arriving with a three-property star (p1, p2, p3)
// and one "next" edge: four "node" ops and four edge inserts.
const (
	arrivalNodes = 4
	arrivalOps   = 8
	// arrivalShare is the chance that an eight-op slot of fresh ops is an
	// arrival. It keeps "node" ops under 2 % of all ops.
	arrivalShare = 0.05
)

// Request is one POST /update body.
type Request struct {
	Ops []ngd.UpdateOp
	// Fresh counts the new ops, Inverse the ops undoing request i-W.
	Fresh, Inverse int
}

type edgeOp struct {
	insert bool
	e      Edge
}

// Stream is one writer's endless sliding-window request stream. Request i
// carries fresh ops plus the exact inverse of the fresh edge ops of request
// i-W, so |E| and |Vio| are stationary once W requests have been sent and
// ΔVio⁺ and ΔVio⁻ are exercised equally. Every op is effective by
// construction: the stream keeps its own edge model, and an edge touched
// inside the window is locked against other fresh ops until it is undone.
//
// With several writers, writer w only emits ops whose source entity is
// congruent to w, so the streams touch disjoint edges and commute: the
// final graph does not depend on how the daemon interleaved them. Only
// writer 0 sends node arrivals, which keeps the ids the daemon assigns to
// new nodes a function of that one stream.
type Stream struct {
	ds       *Dataset
	rng      *rand.Rand
	writer   int
	writers  int
	fresh    int
	owned    []int32 // entities this writer may use as op sources
	present  map[Edge]struct{}
	list     []Edge // owned non-property edges, for picking deletions
	pos      map[Edge]int32
	locked   map[Edge]struct{}
	ring     [Window][]edgeOp
	seq      int
	arrivals int
}

// NewStream starts writer's stream (0 ≤ writer < writers) of requests with
// fresh new ops each.
func NewStream(ds *Dataset, writer, writers, fresh int, seed int64) *Stream {
	s := &Stream{
		ds: ds, rng: rand.New(rand.NewSource(seed + int64(writer)*7919)),
		writer: writer, writers: writers, fresh: fresh,
		present: make(map[Edge]struct{}), pos: make(map[Edge]int32),
		locked: make(map[Edge]struct{}),
	}
	for e := range ds.Type {
		if e%writers != writer || Reserved(e) {
			continue
		}
		s.owned = append(s.owned, int32(e))
		for p := 0; p < propsPerEntity; p++ {
			s.present[Edge{EntityNode(e), PropNode(e, p), uint8(p)}] = struct{}{}
		}
	}
	for _, e := range ds.Edges {
		if ent := int(e.Src) / nodesPerEntity; ent%writers == writer && !Reserved(ent) {
			s.add(e)
		}
	}
	return s
}

func (s *Stream) add(e Edge) {
	s.present[e] = struct{}{}
	if e.Label > labelFlag {
		s.pos[e] = int32(len(s.list))
		s.list = append(s.list, e)
	}
}

func (s *Stream) remove(e Edge) {
	delete(s.present, e)
	if i, ok := s.pos[e]; ok {
		last := s.list[len(s.list)-1]
		s.list[i] = last
		s.pos[last] = i
		s.list = s.list[:len(s.list)-1]
		delete(s.pos, e)
	}
}

// NodeName is the textual id of node v: "n<v>" for a node of the generated
// graph, "a<k>" and "a<k>p<j>" for the k-th arrival and its properties.
func (s *Stream) NodeName(v int32) string {
	base := int32(s.ds.NumNodes())
	if v < base {
		return "n" + strconv.Itoa(int(v))
	}
	k, j := int(v-base)/arrivalNodes, int(v-base)%arrivalNodes
	if j == 0 {
		return "a" + strconv.Itoa(k)
	}
	return "a" + strconv.Itoa(k) + "p" + strconv.Itoa(j)
}

func (s *Stream) wire(op edgeOp) ngd.UpdateOp {
	verb := "delete"
	if op.insert {
		verb = "insert"
	}
	return ngd.UpdateOp{Op: verb, Src: s.NodeName(op.e.Src), Dst: s.NodeName(op.e.Dst), Label: LabelName(op.e.Label)}
}

// apply commits op to the model.
func (s *Stream) apply(op edgeOp) {
	if op.insert {
		s.add(op.e)
	} else {
		s.remove(op.e)
	}
}

// Next returns the stream's next request.
func (s *Stream) Next() Request {
	slot := s.seq % Window
	undo := s.ring[slot]
	var req Request
	for i := len(undo) - 1; i >= 0; i-- {
		inv := edgeOp{insert: !undo[i].insert, e: undo[i].e}
		s.apply(inv)
		req.Ops = append(req.Ops, s.wire(inv))
	}
	req.Inverse = len(undo)

	var fresh []edgeOp
	for req.Fresh < s.fresh {
		if s.writer == 0 && req.Fresh%arrivalOps == 0 && s.fresh-req.Fresh >= arrivalOps && s.rng.Float64() < arrivalShare {
			fresh = s.arrive(&req, fresh)
			continue
		}
		op := s.draw()
		s.apply(op)
		s.locked[op.e] = struct{}{}
		fresh = append(fresh, op)
		req.Ops = append(req.Ops, s.wire(op))
		req.Fresh++
	}
	// the undone edges stay locked until this request's fresh ops are
	// drawn, so one request never touches an edge twice
	for _, op := range undo {
		delete(s.locked, op.e)
	}
	s.ring[slot] = fresh
	s.seq++
	return req
}

// arrive appends a node arrival to req: a new entity of a random type with
// properties p1, p2, p3 (the sum invariant broken half the time, so the
// arrival-absorption path finds violations) and a "next" edge to an
// existing entity.
func (s *Stream) arrive(req *Request, fresh []edgeOp) []edgeOp {
	ent := int32(s.ds.NumNodes() + s.arrivals*arrivalNodes)
	s.arrivals++
	p1, p2 := s.rng.Int63n(ValueRange), s.rng.Int63n(ValueRange)
	p3 := p1 + p2
	if s.rng.Intn(2) == 0 {
		p3 += 1 + s.rng.Int63n(50)
	}
	req.Ops = append(req.Ops, ngd.UpdateOp{Op: "node", ID: s.NodeName(ent), Label: "T" + strconv.Itoa(s.rng.Intn(EntityTypes))})
	for j, v := range []int64{p1, p2, p3} {
		req.Ops = append(req.Ops, ngd.UpdateOp{Op: "node", ID: s.NodeName(ent + 1 + int32(j)), Label: "integer", Attrs: map[string]any{"val": v}})
	}
	ops := []edgeOp{
		{true, Edge{ent, ent + 1, 1}},
		{true, Edge{ent, ent + 2, 2}},
		{true, Edge{ent, ent + 3, 3}},
		{true, Edge{ent, EntityNode(s.rng.Intn(len(s.ds.Type))), labelNext}},
	}
	for _, op := range ops {
		s.apply(op)
		s.locked[op.e] = struct{}{}
		req.Ops = append(req.Ops, s.wire(op))
	}
	req.Fresh += arrivalOps
	return append(fresh, ops...)
}

// draw picks one effective fresh edge op on an unlocked edge: 55 % insert a
// "next" or relation edge, 8 % a "follows" edge to a hub, 37 % delete a
// property or other edge the model holds. As in a real update stream most
// inserted edges respect the drift bound (they join score neighbours); one
// in sixteen joins a random pair and breaks it.
func (s *Stream) draw() edgeOp {
	n := len(s.ds.Type)
	for {
		src := int(s.owned[s.rng.Intn(len(s.owned))])
		var op edgeOp
		switch k := s.rng.Intn(100); {
		case k < 55:
			dst := s.rng.Intn(n)
			if s.rng.Intn(16) != 0 {
				if dst = s.ds.neighbour(src, s.rng); dst < 0 {
					continue
				}
			}
			op = edgeOp{true, Edge{EntityNode(src), EntityNode(dst), labelNext}}
			if k >= 30 {
				op.e.Label = relLabel(s.ds.Type[src], s.ds.Type[dst])
			}
		case k < 63:
			hub := s.ds.Hubs[s.rng.Intn(len(s.ds.Hubs))]
			op = edgeOp{true, Edge{EntityNode(src), EntityNode(int(hub)), labelFollows}}
		case k < 83:
			p := s.rng.Intn(propsPerEntity)
			op = edgeOp{false, Edge{EntityNode(src), PropNode(src, p), uint8(p)}}
		default:
			if len(s.list) == 0 {
				continue
			}
			op = edgeOp{false, s.list[s.rng.Intn(len(s.list))]}
		}
		if _, busy := s.locked[op.e]; busy || op.e.Src == op.e.Dst {
			continue
		}
		if _, has := s.present[op.e]; has == op.insert {
			continue
		}
		return op
	}
}
