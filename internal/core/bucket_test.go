package core

import (
	"math"
	"testing"

	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
	"krr/internal/xrand"
)

func TestBucketGeometry(t *testing.T) {
	s := NewBucketStack(KPrimeFor(5), 1.5, 1)
	for i := 0; i < 5000; i++ {
		s.Reference(uint64(i), 1)
	}
	if s.Len() != 5000 {
		t.Fatalf("Len = %d, want 5000", s.Len())
	}
	var prevEnd int32
	for i, bk := range s.buckets {
		if bk.start != prevEnd+1 {
			t.Fatalf("bucket %d starts at %d, want %d", i, bk.start, prevEnd+1)
		}
		width := int32(math.Round(math.Pow(1.5, float64(i))))
		if width < 1 {
			width = 1
		}
		if bk.end-bk.start+1 != width {
			t.Fatalf("bucket %d width = %d, want %d", i, bk.end-bk.start+1, width)
		}
		wantNo := 0.0
		if bk.start > 1 {
			wantNo = math.Pow(float64(bk.start-1)/float64(bk.end), s.kPrime)
		}
		if math.Abs(bk.pNoSwap-wantNo) > 1e-12 {
			t.Fatalf("bucket %d pNoSwap = %v, want %v", i, bk.pNoSwap, wantNo)
		}
		prevEnd = bk.end
	}
	if last := s.buckets[len(s.buckets)-1]; last.start > 5000 {
		t.Fatalf("trailing empty bucket [%d, %d] with N = 5000", last.start, last.end)
	}

	// Ratio 1 degenerates to one position per bucket.
	s1 := NewBucketStack(1, 1, 1)
	for i := 0; i < 100; i++ {
		s1.Reference(uint64(i), 1)
	}
	for i, bk := range s1.buckets {
		if bk.start != int32(i+1) || bk.end != int32(i+1) {
			t.Fatalf("ratio-1 bucket %d spans [%d, %d], want [%d, %d]", i, bk.start, bk.end, i+1, i+1)
		}
	}
}

// checkBucketInvariants verifies the arena/order/index cross-structure
// invariants after an arbitrary operation sequence.
func checkBucketInvariants(t *testing.T, s *BucketStack) {
	t.Helper()
	n := s.Len()
	if s.index.Len() != n {
		t.Fatalf("index holds %d keys, stack holds %d", s.index.Len(), n)
	}
	seen := make(map[int32]bool, n)
	for p := int32(1); p <= int32(n); p++ {
		slot := s.order[p]
		if slot <= 0 || int(slot) >= len(s.keys) {
			t.Fatalf("order[%d] = %d out of arena range", p, slot)
		}
		if seen[slot] {
			t.Fatalf("slot %d appears twice in order", slot)
		}
		seen[slot] = true
		if s.pos[slot] != p {
			t.Fatalf("pos[%d] = %d, want %d", slot, s.pos[slot], p)
		}
		if got := s.index.get(s.keys[slot]); got != slot {
			t.Fatalf("index[%#x] = %d, want slot %d", s.keys[slot], got, slot)
		}
	}
	for _, slot := range s.free {
		if seen[slot] {
			t.Fatalf("free slot %d still referenced by order", slot)
		}
		if s.pos[slot] != 0 {
			t.Fatalf("free slot %d has pos %d, want 0", slot, s.pos[slot])
		}
	}
	if n > 0 {
		last := s.buckets[len(s.buckets)-1]
		if int32(n) < last.start || int32(n) > last.end {
			t.Fatalf("N = %d outside last bucket [%d, %d]", n, last.start, last.end)
		}
	} else if len(s.buckets) != 0 {
		t.Fatalf("empty stack retains %d buckets", len(s.buckets))
	}
}

func TestBucketStackInvariantsUnderChurn(t *testing.T) {
	for _, ratio := range []float64{1, 1.5, 2, 4} {
		s := NewBucketStack(KPrimeFor(5), ratio, 7)
		r := xrand.New(99)
		for i := 0; i < 20000; i++ {
			key := r.Uint64() % 700
			if r.Uint64()%10 == 0 {
				s.Delete(key)
			} else {
				s.Reference(key, 1)
			}
		}
		checkBucketInvariants(t, s)
		// Drain to empty through Delete.
		for key := uint64(0); key < 700; key++ {
			s.Delete(key)
		}
		if s.Len() != 0 {
			t.Fatalf("ratio %v: Len = %d after deleting every key", ratio, s.Len())
		}
		checkBucketInvariants(t, s)
		// The arena recycles: regrowth reuses freed slots.
		before := len(s.keys)
		for key := uint64(0); key < 300; key++ {
			s.Reference(key, 1)
		}
		if len(s.keys) != before {
			t.Fatalf("arena grew from %d to %d slots despite %d free", before, len(s.keys), 700)
		}
		checkBucketInvariants(t, s)
	}
}

func TestBucketStackDeterminism(t *testing.T) {
	run := func() []uint64 {
		s := NewBucketStack(KPrimeFor(8), 1.5, 42)
		r := xrand.New(5)
		var out []uint64
		for i := 0; i < 5000; i++ {
			res := s.Reference(r.Uint64()%300, 1)
			if !res.Cold {
				out = append(out, res.Distance)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs recorded %d vs %d distances", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("distance %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBucketStackDelete(t *testing.T) {
	s := NewBucketStack(KPrimeFor(5), 1.5, 3)
	for i := 0; i < 1000; i++ {
		s.Reference(uint64(i), 2)
	}
	if !s.Delete(500) {
		t.Fatal("Delete(500) = false for a resident key")
	}
	if s.Delete(500) {
		t.Fatal("Delete(500) = true after removal")
	}
	if s.Len() != 999 {
		t.Fatalf("Len = %d after delete, want 999", s.Len())
	}
	if s.TotalBytes() != 999*2 {
		t.Fatalf("TotalBytes = %d, want %d", s.TotalBytes(), 999*2)
	}
	if !s.Reference(500, 2).Cold {
		t.Fatal("re-reference after delete must be cold")
	}
	checkBucketInvariants(t, s)
}

// TestBucketRatioConvergence is the satellite property test: as the
// bucket ratio approaches 1 the bucketized stack converges to the
// exact backward-KRR distance law (at ratio 1 the per-bucket Bernoulli
// IS the per-position linear walk, which draws from the same joint
// swap-set distribution as Algorithm 2). Both sides are randomized
// models, so the comparison is between curves, with a tolerance that
// tightens as the ratio shrinks.
func TestBucketRatioConvergence(t *testing.T) {
	tr, err := trace.Collect(workload.NewZipf(17, 3000, 0.9, nil, 0), 60_000)
	if err != nil {
		t.Fatal(err)
	}
	ref := MustProfiler(Config{K: 8, Seed: 21})
	if err := ref.ProcessAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	refCurve := ref.ObjectMRC()
	sizes := mrc.EvenSizes(3000, 30)

	maes := make(map[float64]float64)
	for _, ratio := range []float64{1, 2, 4} {
		p := MustProfiler(Config{K: 8, Method: Bucket, BucketRatio: ratio, Seed: 22})
		if err := p.ProcessAll(tr.Reader()); err != nil {
			t.Fatal(err)
		}
		maes[ratio] = mrc.MAE(refCurve, p.ObjectMRC(), sizes)
		t.Logf("ratio %.2f: MAE vs backward = %.4f", ratio, maes[ratio])
	}
	// Ratio 1 is the same distance law as backward up to sampling
	// noise between two randomized runs.
	if maes[1] > 0.02 {
		t.Fatalf("ratio 1 MAE vs backward = %.4f, want <= 0.02 (statistical noise only)", maes[1])
	}
	if maes[4] > 0.15 {
		t.Fatalf("ratio 4 MAE vs backward = %.4f, want <= 0.15", maes[4])
	}
	if maes[1] > maes[4]+0.01 {
		t.Fatalf("MAE did not shrink toward ratio 1: ratio1=%.4f ratio4=%.4f", maes[1], maes[4])
	}
}

func TestBucketConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{K: 0, Method: Bucket},
		{K: 5, Method: Bucket, BucketRatio: 0.5},
		{K: 5, Method: Bucket, BucketRatio: 9},
		{K: 5, Method: Bucket, SamplingRate: 2},
		{K: 5, Method: Bucket, Bytes: BytesSizeArray},
	} {
		if _, err := NewProfiler(cfg); err == nil {
			t.Errorf("%+v must be rejected", cfg)
		}
	}
	p, err := NewProfiler(Config{K: 5, Method: Bucket})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stack() != nil {
		t.Fatal("Stack() must be nil under Method Bucket")
	}
	if got := p.kernel.(*BucketStack).Ratio(); got != DefaultBucketRatio {
		t.Fatalf("default ratio = %v, want %v", got, DefaultBucketRatio)
	}
}
