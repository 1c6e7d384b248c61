package core_test

import (
	"strings"
	"testing"

	"krr/internal/core"
	"krr/internal/olken"
	"krr/internal/telemetry"
	"krr/internal/trace"
	"krr/internal/xrand"
)

// These tests use the exact-LRU olken kernel as an oracle; olken
// imports core, so they live in the external test package.

func TestHugeKBehavesLikeLRU(t *testing.T) {
	// With an enormous exponent every position swaps, so distances
	// must equal the exact LRU stack distances reference by reference.
	for _, m := range []core.UpdateMethod{core.Backward, core.TopDown, core.Linear} {
		s := core.NewStack(1e7, 1, core.WithMethod(m))
		oracle := olken.New(9)
		src := xrand.New(31)
		for i := 0; i < 5000; i++ {
			key := src.Uint64n(500)
			want := oracle.Reference(key, 1)
			got := s.Reference(key, 1)
			if got.Cold != want.Cold {
				t.Fatalf("%v step %d: cold mismatch", m, i)
			}
			if !got.Cold && got.Distance != want.Distance {
				t.Fatalf("%v step %d: dist %d, LRU %d", m, i, got.Distance, want.Distance)
			}
		}
	}
}

// TestKernelProfilerPipeline drives a non-KRR kernel through the
// generic profiler: counters, the spatial filter, delete routing, the
// optional byte histogram and the footprint accounting.
func TestKernelProfilerPipeline(t *testing.T) {
	tr := &trace.Trace{}
	src := xrand.New(3)
	for i := 0; i < 4000; i++ {
		req := trace.Request{Key: src.Uint64n(300), Size: uint32(1 + src.Uint64n(64))}
		if i%40 == 39 {
			req.Op = trace.OpDelete
		}
		tr.Append(req)
	}

	for _, withBytes := range []bool{false, true} {
		k := olken.New(1)
		p := core.NewKernelProfiler(k, 0, withBytes)
		if err := p.ProcessAll(tr.Reader()); err != nil {
			t.Fatal(err)
		}
		if p.Seen() != uint64(tr.Len()) || p.Sampled() != p.Seen() {
			t.Fatalf("bytes=%v: seen %d sampled %d, want %d each", withBytes, p.Seen(), p.Sampled(), tr.Len())
		}
		if p.Rate() != 1 {
			t.Fatalf("unsampled rate %v", p.Rate())
		}
		// Every non-delete request lands in the object histogram.
		if got, want := p.ObjHist().Total(), uint64(tr.Len()-tr.Len()/40); got != want {
			t.Fatalf("bytes=%v: histogram total %d, want %d", withBytes, got, want)
		}
		_, err := p.ByteMRC()
		if withBytes != (err == nil) || withBytes != (p.ByteHist() != nil) {
			t.Fatalf("bytes=%v: ByteMRC err %v", withBytes, err)
		}
		want := k.MemoryOverheadBytes() + p.ObjHist().MemBytes()
		if withBytes {
			want += p.ByteHist().MemBytes()
		}
		if p.MemoryOverheadBytes() != want {
			t.Fatalf("bytes=%v: footprint %d, want kernel + histograms %d", withBytes, p.MemoryOverheadBytes(), want)
		}
		if p.Stack() != nil {
			t.Fatal("Stack must be nil for a non-KRR kernel")
		}
	}

	sampled := core.NewKernelProfiler(olken.New(1), 0.25, false)
	if err := sampled.ProcessAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	if sampled.Seen() != uint64(tr.Len()) || sampled.Sampled() == 0 || sampled.Sampled() >= sampled.Seen() {
		t.Fatalf("sampled profiler: seen %d sampled %d", sampled.Seen(), sampled.Sampled())
	}
	if r := sampled.Rate(); r < 0.24 || r > 0.26 {
		t.Fatalf("rate %v, want ~0.25", r)
	}
}

// TestProfilerMetricsInto checks the stream counters and the optional
// kernel metrics: a KRR stack exports its gauges, an olken kernel only
// the counters.
func TestProfilerMetricsInto(t *testing.T) {
	krrProf := core.MustProfiler(core.Config{K: 4, Seed: 1})
	olkenProf := core.NewKernelProfiler(olken.New(1), 0, false)
	for _, p := range []*core.Profiler{krrProf, olkenProf} {
		for k := uint64(0); k < 10; k++ {
			p.Process(trace.Request{Key: k % 4, Size: 1})
		}
	}
	count := func(p *core.Profiler) map[string]bool {
		set := telemetry.NewSet()
		p.MetricsInto(set, "m_")
		var buf strings.Builder
		if err := set.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
				names[f[0]] = true
			}
		}
		return names
	}
	krrNames, olkenNames := count(krrProf), count(olkenProf)
	for _, name := range []string{"m_requests_seen_total", "m_requests_sampled_total"} {
		if !krrNames[name] || !olkenNames[name] {
			t.Fatalf("%s missing: krr %v olken %v", name, krrNames, olkenNames)
		}
	}
	if !krrNames["m_stack_len"] || !krrNames["m_updates_total"] {
		t.Fatalf("KRR kernel metrics missing: %v", krrNames)
	}
	if olkenNames["m_stack_len"] {
		t.Fatal("olken kernel exports no stack metrics")
	}
}
