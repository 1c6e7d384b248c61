package nsp

import "krr/internal/core"

// MRUStack computes exact Mattson stack distances for MRU
// (evict-most-recently-used) replacement in O(1) per reference.
//
// MRU satisfies the inclusion property, but its Mattson stack is NOT
// the priority-sorted order Stack maintains: the just-referenced
// object is pinned on top even though it holds the *lowest* retention
// priority, and objects evicted long ago keep frozen recency
// priorities that can outrank current residents. Running Stack with
// the MRU policy therefore models a hypothetical perfect-history
// priority cache, not a real MRU cache (the differential harness in
// internal/difftest measures the gap at up to ~0.43 mean absolute
// error on loop traces).
//
// For MRU, Mattson's general update rule — the displaced stack top
// bubbles down past every entry it outranks — collapses to a
// constant-time transposition, because the old top outranks nothing:
//
//   - hit at depth d: the referenced object and the stack top swap
//     positions; every other object keeps its position,
//   - cold miss: the old top sinks to the stack bottom and the new
//     object takes the top.
//
// Positions are stable under both moves, so a plain position array
// plus a key index give O(1) per reference with no ordering structure
// at all.
type MRUStack struct {
	keys []uint64       // position (0-based) -> key
	pos  map[uint64]int // key -> position in keys
}

// NewMRU builds an exact MRU stack-distance model.
func NewMRU() *MRUStack {
	return &MRUStack{pos: make(map[uint64]int)}
}

// Len returns the number of distinct objects seen.
func (s *MRUStack) Len() int { return len(s.keys) }

// Reference processes one access and returns its MRU stack distance
// (1-based depth before the update; cold references have none). Sizes
// are ignored (object granularity only).
func (s *MRUStack) Reference(key uint64, _ uint32) core.Result {
	if v, ok := s.pos[key]; ok {
		d := uint64(v) + 1
		if v != 0 {
			top := s.keys[0]
			s.keys[0], s.keys[v] = key, top
			s.pos[key], s.pos[top] = 0, v
		}
		return core.Result{Distance: d}
	}
	if len(s.keys) > 0 {
		top := s.keys[0]
		s.keys = append(s.keys, top)
		s.pos[top] = len(s.keys) - 1
		s.keys[0] = key
	} else {
		s.keys = append(s.keys, key)
	}
	s.pos[key] = 0
	return core.Result{Cold: true}
}

// Delete is a no-op, as in Stack: the stack model has no delete
// semantics.
func (s *MRUStack) Delete(uint64) bool { return false }

// MemoryOverheadBytes estimates the model's resident metadata: the
// position array and index map.
func (s *MRUStack) MemoryOverheadBytes() uint64 {
	const perEntry = 48 // pos map entry
	return uint64(cap(s.keys))*8 + uint64(len(s.pos))*perEntry
}
