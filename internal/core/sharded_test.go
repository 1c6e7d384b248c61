package core_test

import (
	"testing"

	"krr"
	"krr/internal/core"
	"krr/internal/histogram"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/shardpipe"
	"krr/internal/trace"
	"krr/internal/workload"
)

// The sharded KRR pipeline is model.Sharded: core.Profiler shards
// behind a shardpipe.Pipe. These tests check that composition from
// the core side — curves against a serial core.Profiler, and the
// per-shard profiler state the pipe feeds.

// shardedTestTrace materializes a preset for the equivalence tests.
func shardedTestTrace(t *testing.T, preset string, n int) *trace.Trace {
	t.Helper()
	p, ok := workload.ByName(preset)
	if !ok {
		t.Fatalf("unknown preset %s", preset)
	}
	tr, err := trace.Collect(p.New(0.2, 7, false), n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// shardProfilers routes tr's requests by key over w serial
// core.Profiler shards through the same pipe and seed derivation
// model.Sharded uses, and returns the shards once the pipe has
// drained.
func shardProfilers(t *testing.T, w int, cfg core.Config, reqs func(send func(trace.Request))) ([]*core.Profiler, *shardpipe.Pipe) {
	t.Helper()
	profs := make([]*core.Profiler, w)
	for i := range profs {
		c := cfg
		c.Seed = shardpipe.ShardSeed(cfg.Seed, i)
		profs[i] = core.MustProfiler(c)
	}
	pipe := shardpipe.New(w, func(shard int, req trace.Request) { profs[shard].Process(req) })
	reqs(func(req trace.Request) { pipe.Send(pipe.ShardOf(req.Key), req) })
	pipe.Close()
	return profs, pipe
}

// TestShardedMatchesSerialMRC is the statistical-equivalence check the
// whole design rests on: a W=4 sharded KRR model and the serial
// profiler must produce MRCs within the paper's accuracy tolerance on
// realistic workloads. The two runs use different randomness and the
// sharded one measures W subsampled stacks, so agreement is
// statistical, not bitwise — MAE ≤ 0.01 matches the paper's own
// KRR-vs-simulation acceptance bar (§5.3).
func TestShardedMatchesSerialMRC(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test needs full-size traces")
	}
	for _, preset := range []string{"msr-web", "ycsb-c-0.99"} {
		t.Run(preset, func(t *testing.T) {
			tr := shardedTestTrace(t, preset, 400_000)
			sum, err := trace.Summarize(tr.Reader())
			if err != nil {
				t.Fatal(err)
			}
			serial := core.MustProfiler(core.Config{K: 8, Seed: 42})
			if err := serial.ProcessAll(tr.Reader()); err != nil {
				t.Fatal(err)
			}
			sp, err := model.NewSharded("krr", 4, model.Options{K: 8, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if err := model.ProcessAll(sp, tr.Reader()); err != nil {
				t.Fatal(err)
			}
			a, b := serial.ObjectMRC(), sp.ObjectMRC()
			at := mrc.EvenSizes(uint64(sum.DistinctObjects), 40)
			if mae := mrc.MAE(a, b, at); mae > 0.01 {
				t.Fatalf("sharded vs serial MAE = %.4f > 0.01", mae)
			}
			if seen := sp.Stats().Seen; seen != uint64(tr.Len()) {
				t.Fatalf("seen %d of %d requests", seen, tr.Len())
			}
		})
	}
}

// TestShardedWithSpatialSampling stacks both sampling layers: the
// spatial filter (R) in the router and hash sharding (W) behind it.
// The combined scale W/R must still land on the serial curve.
func TestShardedWithSpatialSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test needs full-size traces")
	}
	tr := shardedTestTrace(t, "msr-web", 400_000)
	sum, err := trace.Summarize(tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	serial := core.MustProfiler(core.Config{K: 4, Seed: 42})
	if err := serial.ProcessAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	sp, err := model.NewSharded("krr", 4, model.Options{K: 4, Seed: 42, SamplingRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.ProcessAll(sp, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	at := mrc.EvenSizes(uint64(sum.DistinctObjects), 40)
	if mae := mrc.MAE(serial.ObjectMRC(), sp.ObjectMRC(), at); mae > 0.02 {
		t.Fatalf("sharded+spatial vs serial MAE = %.4f > 0.02", mae)
	}
	if st := sp.Stats(); st.Sampled >= st.Seen {
		t.Fatal("filter admitted everything at R = 0.1")
	}
}

// TestShardedBytesMRC exercises the byte-granularity merge path.
func TestShardedBytesMRC(t *testing.T) {
	p, _ := workload.ByName("tw-26.0")
	tr, err := trace.Collect(p.New(0.1, 7, true), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := model.NewSharded("krr", 3, model.Options{K: 4, Seed: 1, Bytes: model.BytesSizeArray})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.ProcessAll(sp, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	c := sp.ByteMRC()
	if c == nil {
		t.Fatal("nil byte curve with BytesSizeArray")
	}
	if c.Len() < 2 {
		t.Fatalf("degenerate byte curve: %d points", c.Len())
	}
	for i := 1; i < c.Len(); i++ {
		if c.Miss[i] > c.Miss[i-1]+1e-9 {
			t.Fatalf("byte curve not non-increasing at %d", i)
		}
	}
}

// TestShardedRequestConservation checks exact plumbing (not
// statistics): every admitted request lands in exactly one shard
// histogram, and the merged totals add up.
func TestShardedRequestConservation(t *testing.T) {
	tr := shardedTestTrace(t, "msr-src1", 50_000)
	for _, w := range []int{1, 2, 4, 7} {
		profs, pipe := shardProfilers(t, w, core.Config{K: 2, Seed: 9}, func(send func(trace.Request)) {
			for _, req := range tr.Reqs {
				send(req)
			}
		})
		merged := histogram.NewDense(0)
		var total uint64
		for i, p := range profs {
			if got := p.ObjHist().Total(); got != pipe.Consumed(i) {
				t.Fatalf("W=%d shard %d: histogram holds %d of %d consumed requests", w, i, got, pipe.Consumed(i))
			}
			total += p.ObjHist().Total()
			merged.Merge(p.ObjHist())
		}
		if total != uint64(tr.Len()) {
			t.Fatalf("W=%d: shards recorded %d of %d requests", w, total, tr.Len())
		}
		if got := merged.Total(); got != total {
			t.Fatalf("W=%d: merge lost requests: %d != %d", w, got, total)
		}
	}
}

// TestShardedDeleteOps routes deletes like any other request (same
// key → same shard), so per-shard stacks stay consistent.
func TestShardedDeleteOps(t *testing.T) {
	profs, _ := shardProfilers(t, 4, core.Config{K: 2, Seed: 3}, func(send func(trace.Request)) {
		for i := 0; i < 10_000; i++ {
			k := uint64(i % 500)
			send(trace.Request{Key: k, Size: 1, Op: trace.OpGet})
			if i%13 == 0 {
				send(trace.Request{Key: k, Size: 1, Op: trace.OpDelete})
			}
		}
	})
	resident := 0
	for _, p := range profs {
		resident += p.Stack().Len()
	}
	if resident == 0 || resident > 500 {
		t.Fatalf("resident objects across shards = %d", resident)
	}
}

// TestShardedPipelineRace floods a W=8 pipeline with a key mix that
// fills channels and recycles pool buffers; run under -race this
// exercises every cross-goroutine hand-off in the router, workers,
// pool, and merge.
func TestShardedPipelineRace(t *testing.T) {
	sp, err := model.NewSharded("krr", 8, model.Options{K: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200_000; i++ {
		// Mixed hot/cold keys keep all shards busy simultaneously.
		k := uint64(i) % 1000
		if i%3 == 0 {
			k = uint64(i)
		}
		if err := sp.Process(trace.Request{Key: k, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	c := sp.ObjectMRC() // closes, joins, merges
	if c.Len() == 0 {
		t.Fatal("empty curve")
	}
	if err := sp.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestShardedWorkersValidation covers config plumbing.
func TestShardedWorkersValidation(t *testing.T) {
	if _, err := model.New("krr", model.Options{K: 1, Workers: -1}); err == nil {
		t.Fatal("negative Workers must fail validation")
	}
	// Workers 0 and 1 both yield a single-shard pipeline.
	for _, w := range []int{0, 1} {
		sp, err := model.NewSharded("krr", w, model.Options{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sp.Workers() != 1 {
			t.Fatalf("Workers()=%d for cfg %d", sp.Workers(), w)
		}
		sp.Close()
	}
}

// TestBuildMRCShardedPath checks the facade dispatch: Workers > 1
// must produce a sane curve through BuildMRCWith.
func TestBuildMRCShardedPath(t *testing.T) {
	tr := shardedTestTrace(t, "msr-src2", 50_000)
	for _, w := range []int{1, 4} {
		c, err := krr.BuildMRCWith("krr", tr.Reader(), krr.ModelOptions{K: 4, Seed: 5, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() < 2 || c.Eval(0) != 1 {
			t.Fatalf("W=%d: degenerate curve", w)
		}
	}
}
