package mimir

import (
	"testing"

	"krr/internal/core"
	"krr/internal/mrc"
	"krr/internal/olken"
	"krr/internal/trace"
	"krr/internal/workload"
	"krr/internal/xrand"
)

func TestColdThenHit(t *testing.T) {
	s := New(8)
	if !s.Reference(1, 1).Cold {
		t.Fatal("first touch must be cold")
	}
	res := s.Reference(1, 1)
	if res.Cold {
		t.Fatal("second touch must hit")
	}
	if res.Distance == 0 || res.Distance > 2 {
		t.Fatalf("immediate reuse distance %d", res.Distance)
	}
}

func TestBucketBudgetRespected(t *testing.T) {
	s := New(16)
	src := xrand.New(3)
	for i := 0; i < 50000; i++ {
		s.Reference(src.Uint64n(5000), 1)
	}
	if s.Buckets() > 16 {
		t.Fatalf("buckets %d exceed budget", s.Buckets())
	}
	if s.Len() > 5000 {
		t.Fatalf("tracked %d objects", s.Len())
	}
	// Population conservation: bucket counts sum to tracked objects.
	var sum uint64
	for _, c := range s.counts {
		sum += c
	}
	if sum != uint64(s.Len()) {
		t.Fatalf("bucket counts %d != tracked %d", sum, s.Len())
	}
}

func TestMatchesExactLRUOnZipf(t *testing.T) {
	g := workload.NewZipf(3, 20000, 0.8, nil, 0)
	tr, _ := trace.Collect(g, 300000)

	p := core.NewKernelProfiler(New(DefaultBuckets), 0, false)
	if err := p.ProcessAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	model := p.ObjectMRC()

	exact := core.NewKernelProfiler(olken.New(1), 0, false)
	exact.ProcessAll(tr.Reader())
	truth := exact.ObjectMRC()

	sizes := mrc.EvenSizes(20000, 25)
	if mae := mrc.MAE(model, truth, sizes); mae > 0.03 {
		t.Fatalf("MIMIR vs exact LRU MAE %v", mae)
	}
}

func TestLoopTrace(t *testing.T) {
	const m = 5000
	p := core.NewKernelProfiler(New(DefaultBuckets), 0, false)
	g := workload.NewLoop(m, nil)
	p.ProcessAll(trace.LimitReader(g, m*10))
	c := p.ObjectMRC()
	if c.Eval(m/2) < 0.9 {
		t.Fatalf("miss(M/2) = %v", c.Eval(m/2))
	}
	if c.Eval(m+m/8) > 0.15 {
		t.Fatalf("miss beyond loop = %v", c.Eval(m+m/8))
	}
}

func TestDelete(t *testing.T) {
	s := New(8)
	s.Reference(1, 1)
	if !s.Delete(1) || s.Delete(1) {
		t.Fatal("delete semantics")
	}
	if s.Len() != 0 {
		t.Fatal("object not removed")
	}
	if !s.Reference(1, 1).Cold {
		t.Fatal("re-reference after delete must be cold")
	}
}

func TestDefaultBuckets(t *testing.T) {
	if New(0).maxBuckets != DefaultBuckets {
		t.Fatal("default not applied")
	}
}

func TestProcessDeleteOp(t *testing.T) {
	p := core.NewKernelProfiler(New(8), 0, false)
	p.Process(trace.Request{Key: 1, Op: trace.OpGet})
	p.Process(trace.Request{Key: 1, Op: trace.OpDelete})
	p.Process(trace.Request{Key: 1, Op: trace.OpGet})
	if p.ObjHist().Cold() != 2 {
		t.Fatalf("cold = %d", p.ObjHist().Cold())
	}
}

func BenchmarkReference(b *testing.B) {
	s := New(DefaultBuckets)
	g := workload.NewZipf(3, 1<<18, 1.0, nil, 0)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		r, _ := g.Next()
		keys[i] = r.Key
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reference(keys[i&(1<<16-1)], 1)
	}
}
