package core

// Byte-granularity stack distance support (§4.4.1). The KRR stack
// itself orders objects; turning a stack position φ into a byte
// distance requires the cumulative size of positions 1..φ. Two
// trackers implement this, and a third estimates it without tracking:
//
//   - sizeArray: the paper's structure — one running prefix sum per
//     power-of-two boundary, updated in O(log M) per stack update and
//     queried with linear interpolation (Algorithm 3). Approximate
//     between boundaries, exact at them.
//   - fenwick: an exact binary indexed tree over per-position sizes,
//     O(log M) per point change (so O(K log² M) per stack update).
//     Used as the correctness oracle and as an ablation point.
//   - uniformSizes: φ × mean object size, the uni-KRR estimate of
//     §5.4 that var-KRR is evaluated against; it keeps no state.
//
// Both consume the same update feed: Append on cold insertion, Resize
// when a resident object's size changes, and ApplySwaps with the
// ascending swap chain *before* the stack arrays move, so the sizes
// slice still reflects pre-update positions.

// byteTracker maintains cumulative sizes along the stack.
type byteTracker interface {
	// Append accounts a new object at the stack bottom (position n+1).
	Append(size uint32)
	// Resize accounts an in-place size change at pos.
	Resize(pos int32, old, new uint32)
	// ByteDistance returns the (possibly approximate) cumulative size
	// of stack positions 1..phi, inclusive.
	ByteDistance(phi int32, s *Stack) uint64
	// ApplySwaps accounts one stack update given the ascending swap
	// chain (including endpoints 1 and φ), the pre-move sizes slice,
	// and the referenced object's (post-Resize) size.
	ApplySwaps(chain []int32, sizes []uint32, refSize uint32)
	// Rebuild reconstructs the tracker from scratch (after Delete).
	Rebuild(sizes []uint32)
}

// sizeArray is the paper's logarithmic prefix structure: prefix[j]
// holds the total size of stack positions 1..2^j (or of the whole
// stack while it is shorter than 2^j).
type sizeArray struct {
	prefix []uint64
	total  uint64
	n      int32 // stack length
}

func newSizeArray() *sizeArray { return &sizeArray{} }

// Append accounts a new object at position n+1.
func (a *sizeArray) Append(size uint32) {
	a.n++
	// Grow levels until the top level covers the whole stack. A new
	// level's boundary 2^j >= n, so it currently covers everything
	// accumulated so far.
	for len(a.prefix) == 0 || int32(1)<<(len(a.prefix)-1) < a.n {
		a.prefix = append(a.prefix, a.total)
	}
	a.total += uint64(size)
	for j := range a.prefix {
		if int32(1)<<j >= a.n {
			a.prefix[j] += uint64(size)
		}
	}
}

// Resize accounts an in-place size change.
func (a *sizeArray) Resize(pos int32, old, new uint32) {
	delta := uint64(new) - uint64(old) // two's-complement wrap is fine
	a.total += delta
	for j := range a.prefix {
		if int32(1)<<j >= pos {
			a.prefix[j] += delta
		}
	}
}

// ByteDistance implements Algorithm 3: locate the power-of-two
// boundary at or below φ and interpolate toward the next one.
func (a *sizeArray) ByteDistance(phi int32, _ *Stack) uint64 {
	if phi <= 0 || a.n == 0 {
		return 0
	}
	if phi > a.n {
		phi = a.n
	}
	idx := log2Floor(phi)
	lo := int32(1) << idx
	loVal := a.prefix[idx]
	if lo == phi {
		return loVal
	}
	hi := int32(1) << (idx + 1)
	if hi > a.n {
		hi = a.n
	}
	var hiVal uint64
	if idx+1 < len(a.prefix) {
		hiVal = a.prefix[idx+1]
	} else {
		hiVal = a.total
	}
	if hi <= lo {
		return loVal
	}
	frac := float64(phi-lo) / float64(hi-lo)
	return loVal + uint64(frac*float64(hiVal-loVal)+0.5)
}

// ApplySwaps adjusts each boundary below φ: the object governing the
// boundary (the deepest swap position at or above it... precisely,
// the largest chain position <= the boundary) moves below the
// boundary, and the referenced object enters at the top. Boundaries
// at or beyond φ are unchanged — the reference object replaces
// itself.
func (a *sizeArray) ApplySwaps(chain []int32, sizes []uint32, refSize uint32) {
	phi := chain[len(chain)-1]
	ci := 0
	for j := range a.prefix {
		p := int32(1) << j
		if p >= phi {
			break
		}
		// Advance to the largest chain position <= p. Boundaries grow
		// monotonically with j, so ci only moves forward.
		for ci+1 < len(chain) && chain[ci+1] <= p {
			ci++
		}
		governing := chain[ci]
		a.prefix[j] += uint64(refSize) - uint64(sizes[governing])
	}
}

// Rebuild recomputes every boundary from the sizes slice (1-based).
func (a *sizeArray) Rebuild(sizes []uint32) {
	a.prefix = a.prefix[:0]
	a.total = 0
	a.n = 0
	for _, sz := range sizes[1:] {
		a.Append(sz)
	}
}

// fenwick is an exact per-position byte tracker.
type fenwick struct {
	tree []uint64 // 1-based; tree[0] unused
	n    int32
}

func newFenwick() *fenwick { return &fenwick{tree: make([]uint64, 1)} }

// sum returns the prefix sum of positions 1..pos.
func (f *fenwick) sum(pos int32) uint64 {
	var s uint64
	for ; pos > 0; pos -= pos & (-pos) {
		s += f.tree[pos]
	}
	return s
}

// add applies a (wrapping) delta at pos.
func (f *fenwick) add(pos int32, delta uint64) {
	for ; pos <= f.n; pos += pos & (-pos) {
		f.tree[pos] += delta
	}
}

// Append extends the tree by one position holding size.
func (f *fenwick) Append(size uint32) {
	f.n++
	// Initialize the new node to the sum of its covered range
	// (n-lowbit(n), n-1], then add the new value.
	low := f.n - (f.n & (-f.n))
	init := f.sum(f.n-1) - f.sum(low)
	f.tree = append(f.tree, init)
	f.add(f.n, uint64(size))
}

// Resize applies a size change at pos.
func (f *fenwick) Resize(pos int32, old, new uint32) {
	f.add(pos, uint64(new)-uint64(old))
}

// ByteDistance returns the exact cumulative size of positions 1..phi.
func (f *fenwick) ByteDistance(phi int32, _ *Stack) uint64 {
	if phi > f.n {
		phi = f.n
	}
	return f.sum(phi)
}

// ApplySwaps moves sizes along the chain: each swap position receives
// the size of the previous chain position, and the top receives the
// referenced object's size.
func (f *fenwick) ApplySwaps(chain []int32, sizes []uint32, refSize uint32) {
	for i := len(chain) - 1; i >= 1; i-- {
		cur, prev := chain[i], chain[i-1]
		f.add(cur, uint64(sizes[prev])-uint64(sizes[cur]))
	}
	f.add(1, uint64(refSize)-uint64(sizes[1]))
}

// Rebuild reconstructs the tree from the sizes slice (1-based).
func (f *fenwick) Rebuild(sizes []uint32) {
	f.tree = f.tree[:1]
	f.n = 0
	for _, sz := range sizes[1:] {
		f.Append(sz)
	}
}

// uniformSizes estimates byte distances under the uniform object size
// assumption (Stack.UniformByteDistance); the update feed is ignored.
type uniformSizes struct{}

// withUniformSizes attaches the uniform-size estimate; Config's
// BytesUniform selects it.
func withUniformSizes() Option { return func(s *Stack) { s.tracker = uniformSizes{} } }

func (uniformSizes) Append(uint32)                        {}
func (uniformSizes) Resize(int32, uint32, uint32)         {}
func (uniformSizes) ApplySwaps([]int32, []uint32, uint32) {}
func (uniformSizes) Rebuild([]uint32)                     {}

// ByteDistance returns φ × the stack's mean object size.
func (uniformSizes) ByteDistance(phi int32, s *Stack) uint64 {
	return s.UniformByteDistance(uint64(phi))
}
