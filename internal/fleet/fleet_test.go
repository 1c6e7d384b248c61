package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"krr/internal/model"
	"krr/internal/trace"
	"krr/internal/workload"
)

// fakeClock is a manually advanced clock for deterministic LRU/TTL
// ordering.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// zipfTrace returns a reader of n Zipfian requests over the given key
// count, salted into its own key space.
func zipfTrace(seed, keys uint64, space uint64, n int) trace.Reader {
	g := workload.NewZipf(seed, keys, 0.9, nil, 0)
	g.SetKeySpace(space)
	return trace.LimitReader(g, n)
}

func TestIngestAutoCreatesAndCounts(t *testing.T) {
	r := NewRegistry(Config{})
	n, err := r.Ingest("a", zipfTrace(1, 500, 0, 4000))
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if n != 4000 {
		t.Fatalf("ingested %d, want 4000", n)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	ten, ok := r.Get("a")
	if !ok {
		t.Fatal("tenant a missing")
	}
	if fp := ten.Footprint(); fp <= 0 {
		t.Fatalf("tenant footprint = %d, want > 0", fp)
	}
	if total := r.Footprint(); total != ten.Footprint() {
		t.Fatalf("registry footprint %d != tenant footprint %d", total, ten.Footprint())
	}
	snap, err := r.Snapshot("a")
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap.Object == nil || snap.Object.Eval(0) != 1 {
		t.Fatalf("snapshot curve malformed: %+v", snap.Object)
	}
}

func TestCreateDuplicateAndSpec(t *testing.T) {
	r := NewRegistry(Config{})
	if _, err := r.Create("a", Spec{Model: "krr-bucket"}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := r.Create("a", Spec{}); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate Create err = %v, want ErrTenantExists", err)
	}
	if _, err := r.Create("bad", Spec{Model: "no-such-model"}); err == nil {
		t.Fatal("Create with unknown model succeeded")
	}
	ten, _ := r.Get("a")
	if ten.Spec.Model != "krr-bucket" {
		t.Fatalf("spec not retained: %+v", ten.Spec)
	}
}

// TestIdleEvictionFreesFootprint is the satellite proof: an evicted
// tenant's arena memory leaves the registry's accounting entirely.
func TestIdleEvictionFreesFootprint(t *testing.T) {
	clock := newFakeClock()
	r := NewRegistry(Config{IdleTTL: time.Minute, Clock: clock.Now})
	if _, err := r.Ingest("a", zipfTrace(1, 2000, 0, 8000)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(30 * time.Second)
	if _, err := r.Ingest("b", zipfTrace(2, 2000, 1<<40, 8000)); err != nil {
		t.Fatal(err)
	}
	before := r.Footprint()
	if before <= 0 {
		t.Fatalf("footprint before sweep = %d, want > 0", before)
	}
	tenA, _ := r.Get("a")
	fpA := tenA.Footprint()
	if fpA <= 0 {
		t.Fatalf("tenant a footprint = %d, want > 0", fpA)
	}

	// 45s later: a is 75s idle (evict), b is 45s idle (keep).
	clock.Advance(45 * time.Second)
	if n := r.SweepIdle(); n != 1 {
		t.Fatalf("SweepIdle evicted %d, want 1", n)
	}
	if _, ok := r.Get("a"); ok {
		t.Fatal("tenant a survived the sweep")
	}
	after := r.Footprint()
	if after != before-fpA {
		t.Fatalf("footprint after sweep = %d, want %d - %d = %d", after, before, fpA, before-fpA)
	}

	// All tenants past TTL: registry drains to zero bytes.
	clock.Advance(2 * time.Minute)
	if n := r.SweepIdle(); n != 1 {
		t.Fatalf("second sweep evicted %d, want 1", n)
	}
	if fp := r.Footprint(); fp != 0 {
		t.Fatalf("footprint after full sweep = %d, want 0", fp)
	}
}

func TestBudgetEvictionKeepsIngestingTenant(t *testing.T) {
	clock := newFakeClock()
	// Budget fits roughly one 2000-object krr model (~55 KiB) but not
	// two.
	r := NewRegistry(Config{MemoryBudgetBytes: 80 << 10, Clock: clock.Now})
	if _, err := r.Ingest("old", zipfTrace(1, 2000, 0, 8000)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if _, err := r.Ingest("new", zipfTrace(2, 2000, 1<<40, 8000)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("old"); ok {
		t.Fatalf("LRU tenant survived a budget breach (footprint %d)", r.Footprint())
	}
	if _, ok := r.Get("new"); !ok {
		t.Fatal("just-ingested tenant was evicted")
	}
	if fp := r.Footprint(); fp > 80<<10 {
		t.Fatalf("footprint %d still over budget", fp)
	}
}

func TestMaxTenantsEvictsLRU(t *testing.T) {
	clock := newFakeClock()
	r := NewRegistry(Config{MaxTenants: 2, Clock: clock.Now})
	for i, id := range []string{"a", "b", "c"} {
		clock.Advance(time.Second)
		if _, err := r.Ingest(id, zipfTrace(uint64(i+1), 100, uint64(i)<<40, 500)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if _, ok := r.Get("a"); ok {
		t.Fatal("oldest tenant a survived MaxTenants eviction")
	}
	for _, id := range []string{"b", "c"} {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("tenant %s missing", id)
		}
	}
}

func TestRegistryAllocateDeterministic(t *testing.T) {
	r := NewRegistry(Config{})
	// Distinct shapes: hot zipf, broad uniform, loop.
	if _, err := r.Ingest("hot", zipfTrace(1, 300, 0, 20000)); err != nil {
		t.Fatal(err)
	}
	uni := workload.NewUniform(2, 5000, nil)
	uni.SetKeySpace(1 << 40)
	if _, err := r.Ingest("broad", trace.LimitReader(uni, 20000)); err != nil {
		t.Fatal(err)
	}
	loop := workload.NewLoop(800, nil)
	loop.SetKeySpace(2 << 40)
	if _, err := r.Ingest("loop", trace.LimitReader(loop, 20000)); err != nil {
		t.Fatal(err)
	}

	p1, demands, err := r.Allocate(3000, "objects")
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := p1.Feasible(); err != nil {
		t.Fatal(err)
	}
	if len(p1.Allocations) != 3 {
		t.Fatalf("allocations = %d, want 3", len(p1.Allocations))
	}
	p2, _, err := r.Allocate(3000, "objects")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("allocation not deterministic for a fixed trace set:\n%+v\n%+v", p1, p2)
	}

	wf := p1.AggregateMiss
	if prop := ProportionalSplit(demands, 3000); wf > prop.AggregateMiss+1e-12 {
		t.Fatalf("waterfill %v worse than proportional %v", wf, prop.AggregateMiss)
	}
	if uni := UniformSplit(demands, 3000); wf > uni.AggregateMiss+1e-12 {
		t.Fatalf("waterfill %v worse than uniform %v", wf, uni.AggregateMiss)
	}
}

// TestConcurrentMultiTenantIngest is the -race satellite: goroutines
// ingest into disjoint and overlapping tenant ids while Allocate,
// Snapshot, List and SweepIdle run against the same registry.
func TestConcurrentMultiTenantIngest(t *testing.T) {
	clock := newFakeClock()
	r := NewRegistry(Config{
		MemoryBudgetBytes: 8 << 20,
		MaxTenants:        16,
		IdleTTL:           time.Hour,
		Clock:             clock.Now,
	})
	const (
		workers = 8
		batches = 6
		perReq  = 1500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				// Even workers share tenant "shared"; odd workers own a
				// disjoint id — both contention patterns in one run.
				id := "shared"
				if w%2 == 1 {
					id = fmt.Sprintf("own-%d", w)
				}
				seed := uint64(w*batches + b + 1)
				if _, err := r.Ingest(id, zipfTrace(seed, 400, uint64(w)<<40, perReq)); err != nil {
					t.Errorf("Ingest(%s): %v", id, err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if p, _, err := r.Allocate(2000, "objects"); err != nil {
				t.Errorf("Allocate: %v", err)
			} else if err := p.Feasible(); err != nil {
				t.Errorf("plan infeasible: %v", err)
			}
			_, _ = r.Snapshot("shared")
			_ = r.List()
			_ = r.Footprint()
			r.SweepIdle()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	if r.Len() == 0 {
		t.Fatal("no tenants survived")
	}
	shared, ok := r.Get("shared")
	if !ok {
		t.Fatal("shared tenant missing")
	}
	if got := shared.Stats().Seen; got != uint64(workers/2*batches*perReq) {
		t.Fatalf("shared tenant saw %d requests, want %d", got, workers/2*batches*perReq)
	}
}

func TestEvictReleasesShardedWorkers(t *testing.T) {
	r := NewRegistry(Config{})
	if _, err := r.Create("s", Spec{Model: "krr", Options: model.Options{Workers: 4, Seed: 1}}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := r.Ingest("s", zipfTrace(1, 500, 0, 5000)); err != nil {
		t.Fatal(err)
	}
	if !r.Evict("s") {
		t.Fatal("Evict returned false")
	}
	if r.Evict("s") {
		t.Fatal("double Evict returned true")
	}
	if fp := r.Footprint(); fp != 0 {
		t.Fatalf("footprint after eviction = %d, want 0", fp)
	}
}
