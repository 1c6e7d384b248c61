package core

import (
	"math"

	"krr/internal/telemetry"
	"krr/internal/xrand"
)

// This file implements the bucketized KRR stack: the Eq. 4.1
// probability model evaluated at bucket granularity instead of
// per-position, for O(log M) work per reference with no pow on the
// hot path.
//
// The derivation: for one stack update to depth φ, the probability
// that positions a..b contain no swap-chain point is exactly
// ((a-1)/b)^K′ (telescoping Eq. 4.1 across the interval — the same
// closed form Algorithm 1 splits on), and the no-swap events of
// disjoint intervals are independent. Partition positions 1..M into
// fixed geometric buckets and the whole inverse-CDF walk of
// buildChainBackward collapses to one Bernoulli per bucket below the
// referenced one — "does the chain land in this bucket at all" — with
// a precomputed threshold, because bucket boundaries never move.
// Bucket 0 starts at position 1, so its threshold is 0 and it is
// always on the chain.
//
// The chain's effect on the stack is applied MIMIR-style, rotating
// victims between buckets instead of shifting every chain position:
// the referenced object leaves a hole at φ; walking the visited
// buckets deep-to-shallow, one member of each visited bucket drops
// down to fill the hole in the previously visited (deeper) bucket;
// the referenced object lands in bucket 0. The dropped member is
// chosen uniformly within its bucket: in the exact update the object
// a bucket gives up sits at its deepest chain point, but the exact
// stack also reshuffles bucket members every update through the
// chain's interior points, so over updates every member's exit
// exposure equalizes — the uniform choice models the time-averaged
// (well-mixed) dynamics. (Sampling the one-update marginal — the
// deepest-point law ⌈b·u^{1/K′}⌉ — is measurably worse: without the
// reshuffling it makes intra-bucket position sticky and shallow
// members near-immortal.) The approximation vanishes as the bucket
// ratio approaches 1: with ratio 1 every bucket holds one position
// and the walk is exactly Mattson's per-position linear law.
//
// Keys and sizes live in a flat structure-of-arrays arena indexed by
// slot id with free-list recycling; the stack order is a permutation
// array of slot ids, and the PR-1 open-addressing posIndex maps
// key → slot. The structure is pointer-free: snapshotting or sharding
// it costs a few slice copies.

// DefaultBucketRatio is the geometric bucket growth ratio used when a
// configuration leaves it zero: buckets coarse enough for the O(1)
// amortized update, fine enough to stay near the backward sampler's
// accuracy (see difftest.BucketEnvelope). Measured on the harness
// trials, ratio 2 sits within ~0.015 MAE of the exact backward law
// while halving the per-reference bucket walk vs ratio 1.25.
const DefaultBucketRatio = 2.0

// MaxBucketRatio bounds configurable bucket ratios; beyond ~4 the
// coarse top buckets visibly distort the distance distribution.
const MaxBucketRatio = 4.0

// bucketSpan is one geometric bucket: the closed range of nominal
// stack positions it owns and the precomputed probability that a
// stack update's swap chain skips it entirely.
type bucketSpan struct {
	start, end int32
	// pNoSwap = ((start-1)/end)^K′ — Eq. 4.1 telescoped across the
	// span. 0 for bucket 0 (position 1 is always a chain endpoint).
	pNoSwap float64
	// scale = width/(1-pNoSwap) turns a draw's tail into a victim
	// offset in one multiply: conditioned on u > pNoSwap,
	// (u-pNoSwap)/(1-pNoSwap) is again uniform in (0, 1], so
	// start + ⌊(u-pNoSwap)·scale⌋ is a uniform position in the span.
	scale float64
}

// BucketStack is the bucketized KRR stack. Positions are 1-based
// nominal positions with position 1 the top; distances are reported
// at position granularity while updates run at bucket granularity.
type BucketStack struct {
	kPrime float64
	ratio  float64
	draws  drawBatch

	// Arena: slot-indexed parallel arrays ([0] unused) plus a free
	// list recycling slots of deleted objects.
	keys  []uint64
	sizes []uint32
	pos   []int32 // slot -> nominal position
	free  []int32

	order []int32 // nominal position -> slot ([0] unused)

	index *posIndex // key -> slot

	buckets []bucketSpan
	// ends[i] == buckets[i].end, kept flat so bucketOf's binary search
	// touches one densely packed cache line instead of striding
	// through 24-byte spans.
	ends       []int32
	totalBytes uint64

	// Live telemetry, single-writer atomics (see Stack).
	moves    telemetry.Counter // inter-bucket victim moves applied
	updates  telemetry.Counter
	depthSum telemetry.Counter // Σφ over updates
	resident telemetry.Gauge
}

// NewBucketStack returns an empty bucketized KRR stack with exponent
// kPrime (pass KPrimeFor(K)) and geometric bucket ratio in
// [1, MaxBucketRatio]; ratio 0 selects DefaultBucketRatio.
func NewBucketStack(kPrime, ratio float64, seed uint64) *BucketStack {
	if kPrime <= 0 {
		panic("core: kPrime must be positive")
	}
	if ratio == 0 {
		ratio = DefaultBucketRatio
	}
	if ratio < 1 || ratio > MaxBucketRatio {
		panic("core: bucket ratio out of [1, MaxBucketRatio]")
	}
	return &BucketStack{
		kPrime: kPrime,
		ratio:  ratio,
		draws:  newDrawBatch(xrand.New(seed)),
		keys:   make([]uint64, 1),
		sizes:  make([]uint32, 1),
		pos:    make([]int32, 1),
		order:  make([]int32, 1),
		index:  newPosIndex(),
	}
}

// Ratio returns the geometric bucket growth ratio.
func (s *BucketStack) Ratio() float64 { return s.ratio }

// Len returns the number of objects on the stack.
func (s *BucketStack) Len() int { return len(s.order) - 1 }

// TotalBytes returns the byte total across resident objects.
func (s *BucketStack) TotalBytes() uint64 { return s.totalBytes }

// PositionOf returns key's 1-based nominal position, or 0 if absent.
func (s *BucketStack) PositionOf(key uint64) int32 {
	slot := s.index.get(key)
	if slot == 0 {
		return 0
	}
	return s.pos[slot]
}

// Updates returns the number of stack updates performed.
func (s *BucketStack) Updates() uint64 { return s.updates.Load() }

// MetricsInto registers the stack's live counters under prefix; all
// reads are atomic and scrape-safe mid-stream.
func (s *BucketStack) MetricsInto(set *telemetry.Set, prefix string) {
	set.GaugeFunc(prefix+"stack_len", "objects resident on the bucketized KRR stack", func() float64 {
		return float64(s.resident.Load())
	})
	set.GaugeFunc(prefix+"buckets", "active geometric buckets", func() float64 {
		return float64(len(s.buckets))
	})
	set.CounterFunc(prefix+"updates_total", "stack updates performed", s.updates.Load)
	set.CounterFunc(prefix+"bucket_moves_total", "inter-bucket victim moves applied", s.moves.Load)
	set.CounterFunc(prefix+"update_depth_sum", "cumulative reference depth phi across updates", s.depthSum.Load)
	set.GaugeFunc(prefix+"bucket_moves_per_update", "average victim moves per stack update", func() float64 {
		u := s.updates.Load()
		if u == 0 {
			return 0
		}
		return float64(s.moves.Load()) / float64(u)
	})
	set.GaugeFunc(prefix+"update_depth_avg", "average reference depth per stack update", func() float64 {
		u := s.updates.Load()
		if u == 0 {
			return 0
		}
		return float64(s.depthSum.Load()) / float64(u)
	})
}

// bucketOf returns the index of the bucket owning nominal position p.
func (s *BucketStack) bucketOf(p int32) int {
	ends := s.ends
	lo, hi := 0, len(ends)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ends[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// newSpan builds bucket idx of the fixed nominal geometry: capacity
// max(1, round(ratio^idx)), starting right after the previous bucket.
// The spans — and therefore every pNoSwap — depend only on (ratio,
// K′), so a deleted-then-regrown bucket is always rebuilt identically.
func (s *BucketStack) newSpan(idx int) bucketSpan {
	var start int32 = 1
	if idx > 0 {
		start = s.buckets[idx-1].end + 1
	}
	width := int32(math.Round(math.Pow(s.ratio, float64(idx))))
	if width < 1 {
		width = 1
	}
	sp := bucketSpan{start: start, end: start + width - 1, scale: float64(width)}
	if start > 1 {
		sp.pNoSwap = math.Pow(float64(start-1)/float64(sp.end), s.kPrime)
		sp.scale = float64(width) / (1 - sp.pNoSwap)
	}
	return sp
}

// allocSlot takes a slot off the free list or extends the arena.
func (s *BucketStack) allocSlot(key uint64, size uint32) int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.keys[slot] = key
		s.sizes[slot] = size
		return slot
	}
	s.keys = append(s.keys, key)
	s.sizes = append(s.sizes, size)
	s.pos = append(s.pos, 0)
	return int32(len(s.keys) - 1)
}

// Reference processes an access to key with the given object size and
// returns its stack distance (the nominal position, Cold for first
// touches — appended to the stack bottom before the update, matching
// Algorithm 1's convention).
func (s *BucketStack) Reference(key uint64, size uint32) Result {
	slot := s.index.get(key)
	var res Result
	var p int32
	if slot == 0 {
		slot = s.allocSlot(key, size)
		s.order = append(s.order, slot)
		p = int32(len(s.order) - 1)
		s.pos[slot] = p
		if nb := len(s.buckets); nb == 0 || p > s.buckets[nb-1].end {
			s.buckets = append(s.buckets, s.newSpan(nb))
			s.ends = append(s.ends, s.buckets[nb].end)
		}
		s.index.put(key, slot)
		s.totalBytes += uint64(size)
		s.resident.Set(int64(len(s.order) - 1))
		res.Cold = true
	} else {
		p = s.pos[slot]
		if s.sizes[slot] != size {
			s.totalBytes += uint64(size) - uint64(s.sizes[slot])
			s.sizes[slot] = size
		}
		res.Distance = uint64(p)
	}
	s.update(slot, p)
	return res
}

// update applies one bucket-granular stack update for a reference at
// nominal position p: one Bernoulli per bucket above p's, then a
// deep-to-shallow victim rotation through the visited buckets.
func (s *BucketStack) update(slot, p int32) {
	s.updates.Inc()
	s.depthSum.Add(uint64(p))
	b := s.bucketOf(p)
	if b == 0 {
		// Top bucket: the bucket-granular state is unchanged.
		return
	}
	order, pos, bks := s.order, s.pos, s.buckets
	hole := p
	var moved uint64
	for j := b - 1; j >= 1; j-- {
		bk := bks[j]
		u := s.draws.next()
		if u <= bk.pNoSwap {
			continue
		}
		// The draw's tail doubles as the victim draw (see
		// bucketSpan.scale); rounding can land one past the span.
		q := bk.start + int32((u-bk.pNoSwap)*bk.scale)
		if q > bk.end {
			q = bk.end
		}
		v := order[q]
		order[hole] = v
		pos[v] = hole
		hole = q
		moved++
	}
	// Bucket 0 is the single position 1 (width round(ratio^0) = 1 for
	// every legal ratio) and is always on the chain, so its "victim
	// draw" is deterministic: the object at position 1 drops into the
	// hole and the referenced object takes the top.
	v := order[1]
	order[hole] = v
	pos[v] = hole
	order[1] = slot
	pos[slot] = 1
	s.moves.Add(moved + 1)
}

// Delete removes key from the stack in O(buckets): the hole cascades
// downward, each bucket below pulling one uniform member up from the
// next deeper bucket, so every bucket's span stays fully occupied and
// only the bottom position is surrendered. Returns whether the key
// was resident.
func (s *BucketStack) Delete(key uint64) bool {
	slot := s.index.get(key)
	if slot == 0 {
		return false
	}
	p := s.pos[slot]
	n := int32(len(s.order) - 1)
	last := s.bucketOf(n)
	hole := p
	for j := s.bucketOf(p); j < last; j++ {
		bk := s.buckets[j+1]
		hi := bk.end
		if hi > n {
			hi = n
		}
		q := bk.start + int32(s.draws.next()*float64(hi-bk.start+1))
		if q > hi {
			q = hi
		}
		v := s.order[q]
		s.order[hole] = v
		s.pos[v] = hole
		hole = q
	}
	if hole != n {
		v := s.order[n]
		s.order[hole] = v
		s.pos[v] = hole
	}
	s.order = s.order[:n]
	for len(s.buckets) > 0 && s.buckets[len(s.buckets)-1].start > n-1 {
		s.buckets = s.buckets[:len(s.buckets)-1]
		s.ends = s.ends[:len(s.buckets)]
	}
	s.totalBytes -= uint64(s.sizes[slot])
	s.pos[slot] = 0
	s.free = append(s.free, slot)
	s.index.del(key)
	s.resident.Set(int64(len(s.order) - 1))
	return true
}

// MemoryOverheadBytes reports the resident metadata cost (§5.6
// accounting): 16 B per arena slot (key + size + position), 4 B per
// stack position, the open-addressing index, and the bucket table.
func (s *BucketStack) MemoryOverheadBytes() uint64 {
	return uint64(len(s.keys)-1)*(8+4+4) +
		uint64(len(s.order)-1)*4 +
		uint64(len(s.free))*4 +
		s.index.memBytes() +
		uint64(len(s.buckets))*(24+4)
}
