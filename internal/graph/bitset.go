package graph

import "sync"

// NodeSet is a dense bitset over NodeIDs — the allocation-free replacement
// for the throwaway map[NodeID]struct{} seen-sets the hot traversals used
// to build (Neighborhood BFS, session absorption scans). Typical use:
//
//	seen := AcquireNodeSet(g.NumNodes())
//	defer ReleaseNodeSet(seen)
//
// A NodeSet is not safe for concurrent use; acquire one per goroutine.
type NodeSet struct {
	words []uint64
}

func (s *NodeSet) grow(n int) {
	need := (n + 63) / 64
	if need <= len(s.words) {
		return
	}
	if need <= cap(s.words) {
		s.words = s.words[:need]
		return
	}
	w := make([]uint64, need)
	copy(w, s.words)
	s.words = w
}

// Has reports whether v is in the set; ids beyond capacity are absent.
func (s *NodeSet) Has(v NodeID) bool {
	w := int(v) >> 6
	return w < len(s.words) && s.words[w]&(1<<(uint(v)&63)) != 0
}

// Add inserts v, growing as needed, and reports whether it was newly added.
func (s *NodeSet) Add(v NodeID) bool {
	w := int(v) >> 6
	if w >= len(s.words) {
		s.grow(int(v) + 1)
	}
	bit := uint64(1) << (uint(v) & 63)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	return true
}

// Reset clears every bit, keeping capacity.
func (s *NodeSet) Reset() { clear(s.words) }

var nodeSetPool = sync.Pool{New: func() any { return new(NodeSet) }}

// AcquireNodeSet returns an empty pooled set sized for node ids < n.
// Sets are cleared on release, so acquisition costs no memclr.
func AcquireNodeSet(n int) *NodeSet {
	s := nodeSetPool.Get().(*NodeSet)
	s.grow(n)
	return s
}

// ReleaseNodeSet clears s and returns it to the pool. The caller must not
// retain s afterwards.
func ReleaseNodeSet(s *NodeSet) {
	s.Reset()
	nodeSetPool.Put(s)
}
