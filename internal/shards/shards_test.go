package shards

import (
	"sort"
	"testing"

	"krr/internal/core"
	"krr/internal/hashing"
	"krr/internal/mrc"
	"krr/internal/olken"
	"krr/internal/sampling"
	"krr/internal/trace"
	"krr/internal/workload"
)

func zipfTrace(seed uint64, keys uint64, n int) *trace.Trace {
	g := workload.NewZipf(seed, keys, 0.8, nil, 0)
	tr, _ := trace.Collect(g, n)
	return tr
}

func TestFixedRateApproximatesExactLRU(t *testing.T) {
	tr := zipfTrace(3, 50000, 300000)

	exact := core.NewKernelProfiler(olken.New(1), 0, false)
	if err := exact.ProcessAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	truth := exact.ObjectMRC()

	s := NewFixedRate(0.3, 2, false)
	if err := s.ProcessAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	approx := s.MRC()

	sizes := mrc.EvenSizes(50000, 25)
	if mae := mrc.MAE(truth, approx, sizes); mae > 0.03 {
		t.Fatalf("fixed-rate SHARDS MAE %v vs exact LRU", mae)
	}
}

func TestFixedRateAdjustImprovesNormalization(t *testing.T) {
	tr := zipfTrace(5, 20000, 100000)
	plain := NewFixedRate(0.1, 2, false)
	adj := NewFixedRate(0.1, 2, true)
	plain.ProcessAll(tr.Reader())
	adj.ProcessAll(tr.Reader())
	// The adjusted histogram total must be >= the plain one and close
	// to seen × rate.
	if adj.prof.ObjHist().Total() < plain.prof.ObjHist().Total() {
		t.Fatal("adjustment removed mass")
	}
	want := float64(100000) * 0.1
	got := float64(adj.prof.ObjHist().Total())
	if got < want*0.999 {
		t.Fatalf("adjusted total %v, want >= %v", got, want)
	}
}

func TestFixedRatePanics(t *testing.T) {
	for _, rate := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rate %v: expected panic", rate)
				}
			}()
			NewFixedRate(rate, 1, false)
		}()
	}
}

func TestFixedSizeBoundsSampleSet(t *testing.T) {
	const sMax = 500
	s := NewFixedSize(1.0, sMax, 3)
	g := workload.NewZipf(7, 100000, 0.8, nil, 0)
	if err := s.ProcessAll(trace.LimitReader(g, 200000)); err != nil {
		t.Fatal(err)
	}
	if s.TrackedObjects() > sMax {
		t.Fatalf("tracked %d > sMax %d", s.TrackedObjects(), sMax)
	}
	if s.Rate() >= 1.0 {
		t.Fatal("rate must have been lowered")
	}
}

func TestFixedSizeCurveReasonable(t *testing.T) {
	tr := zipfTrace(9, 30000, 200000)

	exact := core.NewKernelProfiler(olken.New(1), 0, false)
	exact.ProcessAll(tr.Reader())
	truth := exact.ObjectMRC()

	s := NewFixedSize(1.0, 2000, 4)
	if err := s.ProcessAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	approx := s.MRC()
	sizes := mrc.EvenSizes(30000, 20)
	if mae := mrc.MAE(truth, approx, sizes); mae > 0.06 {
		t.Fatalf("fixed-size SHARDS MAE %v", mae)
	}
}

func TestFixedSizeDeleteHandling(t *testing.T) {
	s := NewFixedSize(1.0, 100, 1)
	s.Process(trace.Request{Key: 1, Size: 1, Op: trace.OpGet})
	s.Process(trace.Request{Key: 1, Op: trace.OpDelete})
	if s.TrackedObjects() != 0 {
		t.Fatal("delete must remove from sample set")
	}
	// Unknown key delete is a no-op.
	s.Process(trace.Request{Key: 99, Op: trace.OpDelete})
}

func TestFixedSizeEmptyMRC(t *testing.T) {
	s := NewFixedSize(0.5, 10, 1)
	c := s.MRC()
	if c.Eval(100) != 1 {
		t.Fatal("empty model must predict all-miss")
	}
}

func TestFixedSizePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewFixedSize(0, 10, 1) },
		func() { NewFixedSize(0.5, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFixedRateByteMRC(t *testing.T) {
	g := workload.NewTwitterLike(3, workload.TwitterParams{Keys: 5000, Alpha: 1.0})
	tr, _ := trace.Collect(g, 50000)
	s := NewFixedRate(0.5, 2, false)
	s.ProcessAll(tr.Reader())
	c := s.ByteMRC()
	if c.Len() < 2 {
		t.Fatal("byte curve empty")
	}
	if c.Eval(0) != 1 {
		t.Fatal("byte curve must start at 1")
	}
}

// slowFixedSize is the pre-optimization map-based FixedSize, kept as
// a test oracle: per-reference map writes, a full sample-set scan per
// over-cap insert, and a sorted-map histogram. The flat-histogram /
// lazy-heap rewrite must reproduce its output bit for bit.
type slowFixedSize struct {
	sMax      int
	threshold uint64
	stack     *olken.Stack
	hashes    map[uint64]uint64
	hist      map[uint64]float64
	coldW     float64
	totalW    float64
}

func newSlowFixedSize(startRate float64, sMax int, seed uint64) *slowFixedSize {
	return &slowFixedSize{
		sMax:      sMax,
		threshold: uint64(startRate*sampling.Modulus + 0.5),
		stack:     olken.New(seed),
		hashes:    make(map[uint64]uint64),
		hist:      make(map[uint64]float64),
	}
}

func (s *slowFixedSize) process(req trace.Request) {
	h := hashing.Mix64(req.Key) % sampling.Modulus
	if h >= s.threshold {
		return
	}
	if req.Op == trace.OpDelete {
		if s.stack.Delete(req.Key) {
			delete(s.hashes, req.Key)
		}
		return
	}
	rate := float64(s.threshold) / sampling.Modulus
	res := s.stack.Reference(req.Key, req.Size)
	s.hashes[req.Key] = h
	w := 1 / rate
	s.totalW += w
	if res.Cold {
		s.coldW += w
		for s.stack.Len() > s.sMax {
			var maxHash uint64
			for _, hh := range s.hashes {
				if hh > maxHash {
					maxHash = hh
				}
			}
			s.threshold = maxHash
			for key, hh := range s.hashes {
				if hh >= s.threshold {
					s.stack.Delete(key)
					delete(s.hashes, key)
				}
			}
		}
		return
	}
	d := uint64(float64(res.Distance)/rate + 0.5)
	if d == 0 {
		d = 1
	}
	s.hist[d] += w
}

func (s *slowFixedSize) mrc() *mrc.Curve {
	dists := make([]uint64, 0, len(s.hist))
	for d := range s.hist {
		dists = append(dists, d)
	}
	sort.Slice(dists, func(i, j int) bool { return dists[i] < dists[j] })
	c := &mrc.Curve{Sizes: []uint64{0}, Miss: []float64{1}, Interp: mrc.InterpStep}
	var cum float64
	for _, d := range dists {
		cum += s.hist[d]
		c.Sizes = append(c.Sizes, d)
		c.Miss = append(c.Miss, clamp01(1-cum/s.totalW))
	}
	return c
}

// TestFixedSizeMatchesMapReference pins the optimized FixedSize to the
// map-based original, bit for bit, across randomized traces with
// deletes and sample caps small enough to force many threshold
// shrinks. Eviction order differs between the two (hash-sorted heap
// pops vs map iteration), so this also certifies that eviction order
// cannot affect the curve.
func TestFixedSizeMatchesMapReference(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		keys uint64
		sMax int
	}{
		{seed: 11, keys: 30000, sMax: 300},
		{seed: 12, keys: 5000, sMax: 64},
		{seed: 13, keys: 80000, sMax: 1000},
	} {
		g := workload.NewZipf(tc.seed, tc.keys, 0.9, nil, 0.05)
		tr, err := trace.Collect(g, 100000)
		if err != nil {
			t.Fatal(err)
		}
		fast := NewFixedSize(1.0, tc.sMax, 7)
		slow := newSlowFixedSize(1.0, tc.sMax, 7)
		for _, req := range tr.Reqs {
			fast.Process(req)
			slow.process(req)
		}
		if fast.Threshold() != slow.threshold {
			t.Fatalf("seed %d: threshold %d vs reference %d", tc.seed, fast.Threshold(), slow.threshold)
		}
		if fast.TrackedObjects() != slow.stack.Len() {
			t.Fatalf("seed %d: tracked %d vs reference %d", tc.seed, fast.TrackedObjects(), slow.stack.Len())
		}
		got, want := fast.MRC(), slow.mrc()
		if len(got.Sizes) != len(want.Sizes) {
			t.Fatalf("seed %d: breakpoint counts differ: %d vs %d", tc.seed, len(got.Sizes), len(want.Sizes))
		}
		for i := range got.Sizes {
			if got.Sizes[i] != want.Sizes[i] || got.Miss[i] != want.Miss[i] {
				t.Fatalf("seed %d: curves differ at %d: (%d, %v) vs (%d, %v)",
					tc.seed, i, got.Sizes[i], got.Miss[i], want.Sizes[i], want.Miss[i])
			}
		}
	}
}

func BenchmarkFixedRateProcess(b *testing.B) {
	s := NewFixedRate(0.01, 1, false)
	g := workload.NewZipf(3, 1<<20, 1.0, nil, 0)
	reqs := make([]trace.Request, 1<<16)
	for i := range reqs {
		reqs[i], _ = g.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(reqs[i&(1<<16-1)])
	}
}

// TestFixedRateAdjustBulkMatchesLoop pins the SHARDS_adj shortfall
// credit to its original per-reference form: adding the shortfall in
// one AddN call must produce exactly the curve the old
// Add(1)-in-a-loop code did.
func TestFixedRateAdjustBulkMatchesLoop(t *testing.T) {
	tr := zipfTrace(9, 20000, 100000)

	adj := NewFixedRate(0.05, 2, true)
	if err := adj.ProcessAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	got := adj.MRC()

	// Reference: identical run without the adjustment, then apply the
	// pre-AddN loop by hand.
	plain := NewFixedRate(0.05, 2, false)
	if err := plain.ProcessAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	hist := plain.prof.ObjHist()
	expected := uint64(float64(plain.prof.Seen())*plain.Rate() + 0.5)
	for i := hist.Total(); i < expected; i++ {
		hist.Add(1)
	}
	want := mrc.FromHistogram(hist, 1/plain.Rate())

	if len(got.Sizes) != len(want.Sizes) {
		t.Fatalf("breakpoint counts differ: %d vs %d", len(got.Sizes), len(want.Sizes))
	}
	for i := range got.Sizes {
		if got.Sizes[i] != want.Sizes[i] || got.Miss[i] != want.Miss[i] {
			t.Fatalf("curves differ at %d: (%d, %v) vs (%d, %v)",
				i, got.Sizes[i], got.Miss[i], want.Sizes[i], want.Miss[i])
		}
	}
}
