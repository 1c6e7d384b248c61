package core

import (
	"errors"
	"fmt"
	"io"

	"krr/internal/histogram"
	"krr/internal/mrc"
	"krr/internal/sampling"
	"krr/internal/telemetry"
	"krr/internal/trace"
)

// ErrBytesOff reports a byte-granularity curve request on a profiler
// built with BytesOff. Long-running servers route mis-addressed byte
// queries into this sentinel instead of a crash.
var ErrBytesOff = errors.New("core: byte-granularity distances disabled (built with BytesOff)")

// ByteMode selects how byte-granularity distances are produced.
type ByteMode uint8

// Byte modes.
const (
	// BytesOff records object-granularity distances only.
	BytesOff ByteMode = iota
	// BytesUniform estimates byte distances as φ × mean object size —
	// the uniform-size assumption ("uni-KRR", §5.4) that var-KRR is
	// evaluated against.
	BytesUniform
	// BytesSizeArray uses the paper's logarithmic sizeArray
	// (Algorithm 3) — "var-KRR".
	BytesSizeArray
	// BytesFenwick uses the exact Fenwick byte tracker.
	BytesFenwick
)

// String names the mode.
func (m ByteMode) String() string {
	switch m {
	case BytesOff:
		return "off"
	case BytesUniform:
		return "uniform"
	case BytesSizeArray:
		return "sizearray"
	case BytesFenwick:
		return "fenwick"
	default:
		return "bytemode?"
	}
}

// Config assembles a KRR profiler.
type Config struct {
	// K is the K-LRU sampling size being modeled. Must be >= 1.
	K int
	// KPrime overrides the stack exponent; 0 applies the paper's
	// K′ = K^1.4 correction (§4.2). Set to float64(K) to ablate the
	// correction.
	KPrime float64
	// Method selects the update sampler (default Backward); Bucket
	// selects the bucketized stack instead of the per-position one.
	Method UpdateMethod
	// Bytes selects byte-granularity distance handling. Bucket
	// supports BytesOff only.
	Bytes ByteMode
	// BucketRatio is the Bucket stack's geometric bucket growth ratio
	// in [1, MaxBucketRatio]; 0 selects DefaultBucketRatio. Other
	// methods ignore it.
	BucketRatio float64
	// SamplingRate applies SHARDS-style spatial sampling when in
	// (0, 1); 0 or 1 disables it (§2.4).
	SamplingRate float64
	// Seed fixes all randomness.
	Seed uint64
}

func (c Config) kPrime() float64 {
	if c.KPrime > 0 {
		return c.KPrime
	}
	return KPrimeFor(c.K)
}

func (c Config) validate() error {
	if c.K < 1 {
		return fmt.Errorf("core: config K = %d, must be >= 1", c.K)
	}
	if c.SamplingRate < 0 || c.SamplingRate > 1 {
		return fmt.Errorf("core: sampling rate %v out of [0, 1]", c.SamplingRate)
	}
	if c.BucketRatio != 0 && (c.BucketRatio < 1 || c.BucketRatio > MaxBucketRatio) {
		return fmt.Errorf("core: bucket ratio %v out of [1, %v]", c.BucketRatio, MaxBucketRatio)
	}
	if c.Method == Bucket && c.Bytes != BytesOff {
		return fmt.Errorf("core: byte mode %v unsupported by the bucket stack", c.Bytes)
	}
	return nil
}

// Kernel is a stack-distance algorithm a Profiler drives: the KRR
// Stack or BucketStack, or any other stack technique (exact LRU,
// MIMIR buckets, NSP policies). Reference yields one reference's
// distances; the Profiler owns everything around it. A kernel may
// also implement MetricsInto(set, prefix) to expose live telemetry.
type Kernel interface {
	// Reference records an access and returns its stack distances.
	Reference(key uint64, size uint32) Result
	// Delete removes key from the stack, reporting whether it was
	// resident; kernels that do not model deletes ignore it.
	Delete(key uint64) bool
	// MemoryOverheadBytes is the kernel's resident metadata.
	MemoryOverheadBytes() uint64
}

// metricSource is the optional kernel telemetry extension.
type metricSource interface {
	MetricsInto(set *telemetry.Set, prefix string)
}

// Profiler builds miss ratio curves in one pass over a stack-distance
// kernel (§4 for KRR), optionally under spatial sampling: filter,
// kernel, distance histograms, rescaled curves. A Profiler is not
// safe for concurrent use, except that its counters and kernel
// metrics may be read while Process runs; shard the stream
// (model.Sharded) or serialize Process calls externally.
type Profiler struct {
	kernel Kernel
	filter *sampling.Filter

	objHist  *histogram.Dense
	byteHist *histogram.Log

	// Stream counters are atomics so a /metrics scrape may read them
	// while another goroutine drives Process.
	seen    telemetry.Counter // pre-filter request count
	sampled telemetry.Counter
}

// NewKernelProfiler wraps a kernel: samplingRate in (0, 1) applies
// SHARDS-style spatial sampling (0 or 1 disables it), and bytes
// records the kernel's byte distances in a second histogram.
func NewKernelProfiler(k Kernel, samplingRate float64, bytes bool) *Profiler {
	p := &Profiler{kernel: k, objHist: histogram.NewDense(1024)}
	if bytes {
		p.byteHist = histogram.NewLog()
	}
	if samplingRate > 0 && samplingRate < 1 {
		p.filter = sampling.NewRate(samplingRate)
	}
	return p
}

// NewKernel builds the KRR kernel cfg selects: a Stack with cfg's
// update method and byte tracker, or a BucketStack under Method
// Bucket. cfg.SamplingRate is validated but belongs to the Profiler.
func NewKernel(cfg Config) (Kernel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Method == Bucket {
		return NewBucketStack(cfg.kPrime(), cfg.BucketRatio, cfg.Seed), nil
	}
	opts := []Option{WithMethod(cfg.Method)}
	switch cfg.Bytes {
	case BytesUniform:
		opts = append(opts, withUniformSizes())
	case BytesSizeArray:
		opts = append(opts, WithSizeArray())
	case BytesFenwick:
		opts = append(opts, WithFenwick())
	}
	return NewStack(cfg.kPrime(), cfg.Seed, opts...), nil
}

// NewProfiler builds a KRR profiler from cfg.
func NewProfiler(cfg Config) (*Profiler, error) {
	k, err := NewKernel(cfg)
	if err != nil {
		return nil, err
	}
	return NewKernelProfiler(k, cfg.SamplingRate, cfg.Bytes != BytesOff), nil
}

// MustProfiler is NewProfiler, panicking on config errors; for tests
// and examples with static configs.
func MustProfiler(cfg Config) *Profiler {
	p, err := NewProfiler(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Stack exposes the underlying KRR stack; nil for any other kernel.
func (p *Profiler) Stack() *Stack {
	s, _ := p.kernel.(*Stack)
	return s
}

// Seen returns the number of requests offered (before sampling).
func (p *Profiler) Seen() uint64 { return p.seen.Load() }

// Sampled returns the number of requests admitted by the filter.
func (p *Profiler) Sampled() uint64 { return p.sampled.Load() }

// MetricsInto registers the stream counters and the kernel's live
// metrics, if it has any, under prefix. All are atomics, safe to
// scrape while Process runs on another goroutine.
func (p *Profiler) MetricsInto(set *telemetry.Set, prefix string) {
	set.CounterFunc(prefix+"requests_seen_total", "requests offered via Process", p.seen.Load)
	set.CounterFunc(prefix+"requests_sampled_total", "requests admitted past sampling", p.sampled.Load)
	if ms, ok := p.kernel.(metricSource); ok {
		ms.MetricsInto(set, prefix)
	}
}

// MemoryOverheadBytes is the §5.6 metadata accounting: the kernel plus
// the distance histograms.
func (p *Profiler) MemoryOverheadBytes() uint64 {
	n := p.kernel.MemoryOverheadBytes() + p.objHist.MemBytes()
	if p.byteHist != nil {
		n += p.byteHist.MemBytes()
	}
	return n
}

// Process feeds one request.
func (p *Profiler) Process(req trace.Request) {
	p.seen.Inc()
	if p.filter != nil && !p.filter.Sampled(req.Key) {
		return
	}
	p.sampled.Inc()
	if req.Op == trace.OpDelete {
		p.kernel.Delete(req.Key)
		return
	}
	res := p.kernel.Reference(req.Key, req.Size)
	if res.Cold {
		p.objHist.AddCold()
		if p.byteHist != nil {
			p.byteHist.AddCold()
		}
		return
	}
	p.objHist.Add(res.Distance)
	if p.byteHist != nil {
		p.byteHist.Add(res.ByteDistance)
	}
}

// ProcessAll drains a reader.
func (p *Profiler) ProcessAll(r trace.Reader) error {
	for {
		req, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		p.Process(req)
	}
}

// Rate returns the effective spatial sampling rate R (1 when
// unsampled); curves rescale sampled distances by 1/R.
func (p *Profiler) Rate() float64 {
	if p.filter == nil {
		return 1
	}
	return p.filter.Rate()
}

// ObjectMRC returns the modeled miss ratio curve over object-count
// cache sizes.
func (p *Profiler) ObjectMRC() *mrc.Curve {
	return mrc.FromHistogram(p.objHist, 1/p.Rate())
}

// ByteMRC returns the modeled curve over byte cache sizes, or
// ErrBytesOff if the profiler was built without byte distances. (It used to
// panic; a monitoring daemon must survive a mis-routed byte query.)
func (p *Profiler) ByteMRC() (*mrc.Curve, error) {
	if p.byteHist == nil {
		return nil, ErrBytesOff
	}
	return mrc.FromHistogram(p.byteHist, 1/p.Rate()), nil
}

// ObjHist exposes the object histogram.
func (p *Profiler) ObjHist() *histogram.Dense { return p.objHist }

// ByteHist exposes the byte histogram (nil without byte distances).
func (p *Profiler) ByteHist() *histogram.Log { return p.byteHist }

// BuildMRC is the one-call convenience: model a K-LRU cache over a
// reader and return the object-granularity curve.
func BuildMRC(r trace.Reader, cfg Config) (*mrc.Curve, error) {
	p, err := NewProfiler(cfg)
	if err != nil {
		return nil, err
	}
	if err := p.ProcessAll(r); err != nil {
		return nil, err
	}
	return p.ObjectMRC(), nil
}
