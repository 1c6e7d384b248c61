package model

import (
	"krr/internal/aet"
	"krr/internal/cheform"
	"krr/internal/core"
	"krr/internal/counterstacks"
	"krr/internal/mimir"
	"krr/internal/mrc"
	"krr/internal/nsp"
	"krr/internal/olken"
	"krr/internal/sampling"
	"krr/internal/shards"
	"krr/internal/telemetry"
	"krr/internal/trace"
)

// stackModel is the adapter every stack-distance entry shares (krr*,
// olken, mimir, lfu, mru, shards): a core.Profiler over the technique's
// kernel owns the spatial filter, the stream counters, the distance
// histograms, the 1/R rescale and the footprint. The Sharded wrapper
// merges its histograms directly.
type stackModel struct {
	finalizer
	p *core.Profiler
	// objCurve, when non-nil, builds the object curve in place of the
	// profiler's plain rescale (shards adds the SHARDS_adj credit).
	objCurve func(*core.Profiler) *mrc.Curve
}

// newStack builds a registry factory for a stack-distance kernel: the
// profiler applies Options.SamplingRate and records byte distances
// when Options.Bytes is set.
func newStack(kernel func(Options) (core.Kernel, error)) func(Options) (Model, error) {
	return func(o Options) (Model, error) {
		k, err := kernel(o)
		if err != nil {
			return nil, err
		}
		return &stackModel{p: core.NewKernelProfiler(k, o.SamplingRate, o.Bytes != BytesOff)}, nil
	}
}

// Process implements Model.
func (m *stackModel) Process(req trace.Request) error {
	if err := m.guard(); err != nil {
		return err
	}
	m.p.Process(req)
	return nil
}

// ObjectMRC implements Model.
func (m *stackModel) ObjectMRC() *mrc.Curve {
	m.finalize()
	return m.objectCurve()
}

// ByteMRC implements Model.
func (m *stackModel) ByteMRC() *mrc.Curve {
	if m.p.ByteHist() == nil {
		return nil
	}
	m.finalize()
	return m.byteCurve()
}

// objectCurve reads the object curve.
func (m *stackModel) objectCurve() *mrc.Curve {
	if m.objCurve != nil {
		return m.objCurve(m.p)
	}
	return m.p.ObjectMRC()
}

// byteCurve reads the byte curve; nil without byte distances.
func (m *stackModel) byteCurve() *mrc.Curve {
	c, _ := m.p.ByteMRC()
	return c
}

// Snapshot implements Model. Curve construction is non-destructive,
// so the snapshot runs the same computation as the finalized reads.
func (m *stackModel) Snapshot() Snapshot {
	return Snapshot{Stats: m.Stats(), Object: m.objectCurve(), Byte: m.byteCurve()}
}

// Stats implements Model.
func (m *stackModel) Stats() Stats {
	return Stats{Seen: m.p.Seen(), Sampled: m.p.Sampled(), Finalized: m.finalized}
}

// MetricsInto implements MetricSource: the profiler's stream counters
// and the kernel's live metrics under the same prefix.
func (m *stackModel) MetricsInto(set *telemetry.Set, prefix string) {
	m.p.MetricsInto(set, prefix)
}

// Footprint implements FootprintSource. Like Process it is not safe
// for concurrent use; callers serialize it against the stream.
func (m *stackModel) Footprint() int64 { return int64(m.p.MemoryOverheadBytes()) }

// streamModel is the adapter shape of every technique that is not a
// stack-distance kernel: a per-request process function that also
// makes the entry's one sampling decision, and curve constructors.
// Every curve constructor is non-destructive, so the finalized reads
// and Snapshot run the identical computation — which is what makes an
// end-of-stream snapshot bit-identical to the final curves.
type streamModel struct {
	finalizer
	// process feeds one request and reports whether the spatial filter
	// admitted it: the technique's own filter (aet, statstack,
	// shards-fixedsize) or the adapter's (see filtered).
	process   func(trace.Request) bool
	objCurve  func() *mrc.Curve
	byteCurve func() *mrc.Curve // nil = byte curves off or unsupported
	// footprint reports the technique's resident metadata bytes; must
	// be called under the same serialization as process.
	footprint func() uint64

	// Stream counters are atomics so MetricsInto consumers (a /metrics
	// scrape) may read them while another goroutine drives Process.
	seen    telemetry.Counter
	sampled telemetry.Counter
}

// Process implements Model.
func (m *streamModel) Process(req trace.Request) error {
	if err := m.guard(); err != nil {
		return err
	}
	m.seen.Inc()
	if m.process(req) {
		m.sampled.Inc()
	}
	return nil
}

// ObjectMRC implements Model.
func (m *streamModel) ObjectMRC() *mrc.Curve {
	m.finalize()
	return m.objCurve()
}

// ByteMRC implements Model.
func (m *streamModel) ByteMRC() *mrc.Curve {
	if m.byteCurve == nil {
		return nil
	}
	m.finalize()
	return m.byteCurve()
}

// Snapshot implements Model: the curve of the stream so far, read
// without freezing.
func (m *streamModel) Snapshot() Snapshot {
	snap := Snapshot{Stats: m.Stats(), Object: m.objCurve()}
	if m.byteCurve != nil {
		snap.Byte = m.byteCurve()
	}
	return snap
}

// Stats implements Model.
func (m *streamModel) Stats() Stats {
	return Stats{Seen: m.seen.Load(), Sampled: m.sampled.Load(), Finalized: m.finalized}
}

// MetricsInto implements MetricSource: the adapter's stream counters.
func (m *streamModel) MetricsInto(set *telemetry.Set, prefix string) {
	set.CounterFunc(prefix+"requests_seen_total", "requests offered via Process", m.seen.Load)
	set.CounterFunc(prefix+"requests_sampled_total", "requests admitted past sampling", m.sampled.Load)
}

// Footprint implements FootprintSource. Like Process it is not safe
// for concurrent use; callers serialize it against the stream.
func (m *streamModel) Footprint() int64 { return int64(m.footprint()) }

// filtered applies the adapter-side spatial filter for a technique
// with no sampling of its own, returning its process function and the
// distance rescale that undoes the filter (1/R).
func filtered(o Options, process func(trace.Request)) (func(trace.Request) bool, float64) {
	if !o.sampled() {
		return func(req trace.Request) bool { process(req); return true }, 1
	}
	f := sampling.NewRate(o.SamplingRate)
	return func(req trace.Request) bool {
		if !f.Sampled(req.Key) {
			return false
		}
		process(req)
		return true
	}, 1 / f.Rate()
}

// --- KRR (core) -------------------------------------------------------

// coreByteMode maps the unified byte mode onto KRR's tracker choices;
// BytesOn means the paper's var-KRR sizeArray.
func coreByteMode(m ByteMode) core.ByteMode {
	switch m {
	case BytesUniform:
		return core.BytesUniform
	case BytesFenwick:
		return core.BytesFenwick
	case BytesOn, BytesSizeArray:
		return core.BytesSizeArray
	default:
		return core.BytesOff
	}
}

// krrKernel builds the KRR stack kernel over the given update method.
// core.Bucket selects the bucketized stack: the Eq. 4.1
// stay-probability at geometric-bucket granularity, O(log M) per
// reference, object granularity only.
func krrKernel(method core.UpdateMethod) func(Options) (core.Kernel, error) {
	return func(o Options) (core.Kernel, error) {
		return core.NewKernel(core.Config{
			K:           o.k(),
			Seed:        o.Seed,
			Method:      method,
			Bytes:       coreByteMode(o.Bytes),
			BucketRatio: o.BucketRatio,
		})
	}
}

// --- Olken exact-LRU stack, MIMIR, NSP policies ----------------------

// olkenKernel is the exact-LRU treap; every byte mode means its exact
// byte distances.
func olkenKernel(o Options) (core.Kernel, error) { return olken.New(o.Seed), nil }

func mimirKernel(Options) (core.Kernel, error) { return mimir.New(mimir.DefaultBuckets), nil }

func lfuKernel(o Options) (core.Kernel, error) { return nsp.New(nsp.LFU{}, o.Seed), nil }

// mruKernel is the exact O(1) transposition stack: the generic
// priority-sorted engine is not Mattson's stack for MRU (see nsp
// package docs), a divergence the difftest harness measures at up to
// ~0.43 MAE against exact simulation on loop traces.
func mruKernel(Options) (core.Kernel, error) { return nsp.NewMRU(), nil }

// --- SHARDS ----------------------------------------------------------

// shardsRate resolves the rate for the shards* models, for which
// SamplingRate is the technique's own parameter: 0 means the paper
// default, 1 disables sampling (degenerating to an exact stack).
func shardsRate(o Options) float64 {
	if o.SamplingRate == 0 {
		return sampling.DefaultRate
	}
	return o.SamplingRate
}

// newShardsFixedRate is constant-rate SHARDS: a stack model over an
// Olken kernel sampled at the technique's rate, whose object curve
// carries the SHARDS_adj credit.
func newShardsFixedRate(o Options) (Model, error) {
	p := core.NewKernelProfiler(olken.New(o.Seed), shardsRate(o), o.Bytes != BytesOff)
	return &stackModel{p: p, objCurve: shards.AdjustedMRC}, nil
}

// DefaultFixedSizeObjects is the sample-set bound for the
// shards-fixedsize model, the paper's s_max (§2.4 / FAST '15 §4).
const DefaultFixedSizeObjects = 8192

func newShardsFixedSize(o Options) (Model, error) {
	start := o.SamplingRate
	if start == 0 {
		start = 1.0 // SHARDS_adj starts unsampled and adapts down
	}
	s := shards.NewFixedSize(start, DefaultFixedSizeObjects, o.Seed)
	return &streamModel{
		process:   s.Process,
		objCurve:  s.MRC,
		footprint: s.MemoryOverheadBytes,
	}, nil
}

// --- AET / StatStack -------------------------------------------------

// newAETMonitor wires one reuse-time monitor behind the adapter. The
// spatial filter stays inside the monitor: AET measures reuse times in
// full-stream references, so the clock must tick on unsampled
// requests too (which is also why its curves need no rescaling).
func newAETMonitor(o Options, curve func(*aet.Monitor) *mrc.Curve) (Model, error) {
	mon := aet.New(o.SamplingRate)
	return &streamModel{
		process:   mon.Process,
		objCurve:  func() *mrc.Curve { return curve(mon) },
		footprint: mon.MemoryOverheadBytes,
	}, nil
}

func newAET(o Options) (Model, error) {
	return newAETMonitor(o, (*aet.Monitor).MRC)
}

func newStatStack(o Options) (Model, error) {
	return newAETMonitor(o, (*aet.Monitor).StatStackMRC)
}

// --- Counter Stacks --------------------------------------------------

// newCounterStacks reads both the final and the live curve through
// SnapshotHist, which evaluates a partial batch on a copy: nothing is
// ever flushed into the live state, and at a batch boundary it is the
// live histogram itself.
func newCounterStacks(o Options) (Model, error) {
	cs := counterstacks.New(counterstacks.Config{})
	process, scale := filtered(o, cs.Process)
	return &streamModel{
		process:   process,
		objCurve:  func() *mrc.Curve { return mrc.FromHistogram(cs.SnapshotHist(), scale) },
		footprint: cs.MemoryOverheadBytes,
	}, nil
}

// --- Closed-form analytic (Che / Fagin) ------------------------------

// newAnalytic builds the instant-estimate tier: a cheform popularity
// fitter behind the adapter. No distance bookkeeping exists to merge,
// so no CapSharded; deletes don't change the popularity distribution,
// so no CapDeletes (the fitter ignores them, keeping curves invariant
// under delete injection). The fitter's curve read is non-destructive
// and deterministic in the sketch state, so end-of-stream snapshots
// are bit-identical to the finalized curve.
func newAnalytic(variant cheform.Variant) func(Options) (Model, error) {
	return func(o Options) (Model, error) {
		f, err := cheform.New(cheform.Config{
			Variant:      variant,
			DefaultAlpha: o.AnalyticAlpha,
		})
		if err != nil {
			return nil, err
		}
		process, scale := filtered(o, f.Process)
		return &streamModel{
			process:   process,
			objCurve:  func() *mrc.Curve { return f.Curve(scale) },
			footprint: f.MemoryOverheadBytes,
		}, nil
	}
}

// --- Registry --------------------------------------------------------

func init() {
	Register(Info{
		Name:       "krr",
		Aliases:    []string{"krr-backward"},
		Target:     "klru",
		Paper:      "Yang, Wang & Wang, ICPP '21",
		Complexity: "O(K log M) expected/ref",
		Space:      "O(M) array + open-address index",
		Caps:       CapBytes | CapDeletes | CapSharded,
		New:        newStack(krrKernel(core.Backward)),
	})
	Register(Info{
		Name:       "krr-topdown",
		Target:     "klru",
		Paper:      "Yang, Wang & Wang, ICPP '21 (Alg. 1)",
		Complexity: "O(K log² M) expected/ref",
		Space:      "O(M) array + open-address index",
		Caps:       CapBytes | CapDeletes | CapSharded,
		New:        newStack(krrKernel(core.TopDown)),
	})
	Register(Info{
		Name:       "krr-linear",
		Target:     "klru",
		Paper:      "Mattson et al. '70 walk, §2.2",
		Complexity: "O(M)/ref",
		Space:      "O(M) array + open-address index",
		Caps:       CapBytes | CapDeletes | CapSharded,
		New:        newStack(krrKernel(core.Linear)),
	})
	Register(Info{
		Name:       "krr-bucket",
		Target:     "klru",
		Paper:      "Yang, Wang & Wang, ICPP '21 × Saemundsson et al., SoCC '14 (buckets)",
		Complexity: "O(log M)/ref",
		Space:      "O(M) SoA arena + O(log M) buckets",
		Caps:       CapDeletes | CapSharded,
		New:        newStack(krrKernel(core.Bucket)),
	})
	Register(Info{
		Name:       "olken",
		Aliases:    []string{"lru"},
		Target:     "lru",
		Paper:      "Olken '81 / Mattson et al. '70",
		Complexity: "O(log M)/ref",
		Space:      "O(M) treap + hash",
		Caps:       CapBytes | CapDeletes | CapSharded,
		New:        newStack(olkenKernel),
	})
	Register(Info{
		Name:       "shards",
		Target:     "lru",
		Paper:      "Waldspurger et al., FAST '15",
		Complexity: "O(log R·M) per sampled ref",
		Space:      "O(R·M) tree",
		Caps:       CapBytes | CapDeletes,
		New:        newShardsFixedRate,
	})
	Register(Info{
		Name:       "shards-fixedsize",
		Target:     "lru",
		Paper:      "Waldspurger et al., FAST '15 (SHARDS_adj)",
		Complexity: "O(log s_max) per sampled ref",
		Space:      "bounded: s_max objects",
		Caps:       CapDeletes,
		New:        newShardsFixedSize,
	})
	Register(Info{
		Name:       "aet",
		Target:     "lru",
		Paper:      "Hu et al., USENIX ATC '16",
		Complexity: "O(1) amortized/ref",
		Space:      "reuse-time histogram + last-seen map",
		Caps:       CapDeletes,
		New:        newAET,
	})
	Register(Info{
		Name:       "statstack",
		Target:     "lru",
		Paper:      "Eklöv & Hagersten, ISPASS '10",
		Complexity: "O(1) amortized/ref",
		Space:      "reuse-time histogram + last-seen map",
		Caps:       CapDeletes,
		New:        newStatStack,
	})
	Register(Info{
		Name:       "counterstacks",
		Target:     "lru",
		Paper:      "Wires et al., OSDI '14",
		Complexity: "O(C)/ref (C live counters)",
		Space:      "C HLL sketches",
		Caps:       0,
		New:        newCounterStacks,
	})
	Register(Info{
		Name:       "mimir",
		Target:     "lru",
		Paper:      "Saemundsson et al., SoCC '14",
		Complexity: "O(B)/ref (B buckets)",
		Space:      "O(B) buckets + key map",
		Caps:       CapDeletes | CapSharded,
		New:        newStack(mimirKernel),
	})
	Register(Info{
		Name:       "che",
		Aliases:    []string{"che-approx"},
		Target:     "klru",
		Paper:      "Che, Tung & Wang, JSAC '02 / Berthet '17",
		Complexity: "O(log H)/ref (H head counters)",
		Space:      "O(1): H counters + HLL",
		Caps:       0,
		New:        newAnalytic(cheform.Che),
	})
	Register(Info{
		Name:       "fagin",
		Target:     "klru",
		Paper:      "Fagin '77 / Berthet '17",
		Complexity: "O(log H)/ref (H head counters)",
		Space:      "O(1): H counters + HLL",
		Caps:       0,
		New:        newAnalytic(cheform.Fagin),
	})
	Register(Info{
		Name:       "lfu",
		Target:     "lfu",
		Paper:      "Bilardi, Ekanadham & Pattnaik, CF '11 (NSP)",
		Complexity: "O(log M)/ref",
		Space:      "O(M) treap + maps",
		Caps:       0,
		New:        newStack(lfuKernel),
	})
	Register(Info{
		Name:       "mru",
		Target:     "mru",
		Paper:      "Mattson et al. '70 transposition stack",
		Complexity: "O(1)/ref",
		Space:      "O(M) position array + map",
		Caps:       0,
		New:        newStack(mruKernel),
	})
}
