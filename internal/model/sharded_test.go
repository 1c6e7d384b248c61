package model

import (
	"fmt"
	"testing"

	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// TestShardedVsSerial is the acceptance bound: on preset-style
// workloads, the sharded curve stays within MAE 0.01 of the serial
// model's. Sharding is spatial sampling at rate 1/W with full
// coverage, so the two are estimates of the same curve. The inputs
// also stack the router's spatial filter (rate R) on the partition —
// distances then rescale by W/R; the serial model samples at the same
// R and the bound loosens to 0.02 — and merge byte curves for the
// byte-capable models. Every run must
// conserve requests: the router sees each one, and each admitted one
// lands in exactly one shard histogram.
func TestShardedVsSerial(t *testing.T) {
	varSizes := workload.LogNormalSize{Mu: 7, Sigma: 1.2, Min: 64, Max: 1 << 20}
	workloads := []struct {
		name string
		gen  trace.Reader
		n    int
	}{
		{"zipf", workload.NewZipf(31, 20000, 0.9, varSizes, 0.1), 150000},
		{"uniform", workload.NewUniform(77, 8000, workload.FixedSize(trace.DefaultObjectSize)), 120000},
	}
	variants := []struct {
		opts  Options
		bound float64
	}{
		{Options{Seed: 9, Workers: 4}, 0.01},
		{Options{Seed: 9, Workers: 4, SamplingRate: 0.1}, 0.02},
		{Options{Seed: 9, Workers: 4, Bytes: BytesOn}, 0.01},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			tr, err := trace.Collect(w.gen, w.n)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := trace.Summarize(tr.Reader())
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"krr", "krr-bucket", "olken", "mimir"} {
				info, _ := Lookup(name)
				for _, v := range variants {
					if v.opts.Bytes != BytesOff && !info.Caps.Has(CapBytes) {
						continue
					}
					label := fmt.Sprintf("%s w=%d rate=%v bytes=%v", name, v.opts.Workers, v.opts.SamplingRate, v.opts.Bytes)
					serialOpts := v.opts
					serialOpts.Workers = 0
					serial, err := New(name, serialOpts)
					if err != nil {
						t.Fatal(err)
					}
					feed(t, serial, tr)
					sharded, err := NewSharded(name, v.opts.Workers, v.opts)
					if err != nil {
						t.Fatal(err)
					}
					feed(t, sharded, tr)

					a, b := serial.ObjectMRC(), sharded.ObjectMRC()
					at := mrc.EvenSizes(uint64(sum.DistinctObjects), 64)
					if v.opts.Bytes != BytesOff {
						a, b = serial.ByteMRC(), sharded.ByteMRC()
						at = mrc.EvenSizes(sum.WSSBytes, 64)
					}
					if mae := mrc.MAE(a, b, at); mae > v.bound {
						t.Errorf("%s: MAE(serial, sharded) = %.4f > %v", label, mae, v.bound)
					}

					st := sharded.Stats()
					var recorded uint64
					for _, sub := range sharded.subs {
						recorded += sub.p.ObjHist().Total()
					}
					if st.Seen != uint64(tr.Len()) || recorded != st.Sampled ||
						(st.Sampled == st.Seen) == v.opts.sampled() {
						t.Errorf("%s: seen %d of %d, sampled %d, shard histograms hold %d",
							label, st.Seen, tr.Len(), st.Sampled, recorded)
					}
				}
			}
		})
	}
}

// TestShardedLifecycle covers the wrapper's own Model contract:
// curve-read freezing, stats, byte curves, and worker clamping.
func TestShardedLifecycle(t *testing.T) {
	tr := synthTrace(t, 10000, 1000, 13)
	s, err := NewSharded("krr", 3, Options{Seed: 5, Bytes: BytesOn})
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers() != 3 {
		t.Fatalf("Workers = %d, want 3", s.Workers())
	}
	feed(t, s, tr)
	obj := s.ObjectMRC()
	checkCurveShape(t, obj, "sharded/obj")
	bc := s.ByteMRC()
	if bc == nil {
		t.Fatal("nil byte curve with BytesOn")
	}
	checkCurveShape(t, bc, "sharded/bytes")
	if err := s.Process(trace.Request{Key: 1}); err != ErrFinalized {
		t.Fatalf("Process after curve read: %v, want ErrFinalized", err)
	}
	st := s.Stats()
	if st.Seen != uint64(tr.Len()) || st.Sampled != st.Seen || !st.Finalized {
		t.Fatalf("stats = %+v", st)
	}

	// Workers < 1 clamps to a single shard.
	s1, err := NewSharded("olken", 0, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Workers() != 1 {
		t.Fatalf("Workers = %d, want 1", s1.Workers())
	}
	feed(t, s1, tr)
	checkCurveShape(t, s1.ObjectMRC(), "sharded/1way")
}

// TestShardedRejectsUnmergeable: CapSharded is the gate.
func TestShardedRejectsUnmergeable(t *testing.T) {
	for _, name := range []string{"aet", "counterstacks", "shards", "lfu"} {
		if _, err := NewSharded(name, 4, Options{}); err == nil {
			t.Errorf("NewSharded(%s) accepted a model without CapSharded", name)
		}
	}
	if _, err := NewSharded("nope", 4, Options{}); err == nil {
		t.Error("NewSharded accepted an unknown model")
	}
}
