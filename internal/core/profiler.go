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

// kernel is the stack a Profiler drives: a *Stack, or a *BucketStack
// under Method Bucket.
type kernel interface {
	Reference(key uint64, size uint32) Result
	Delete(key uint64) bool
	MetricsInto(set *telemetry.Set, prefix string)
	MemoryOverheadBytes() uint64
}

// Profiler builds K-LRU miss ratio curves in one pass (§4), optionally
// under spatial sampling: filter, stack kernel, distance histograms,
// rescaled curves. The kernel is a Stack, or a BucketStack under
// Method Bucket. A Profiler is not safe for concurrent use; shard the
// stream (model.Sharded) or serialize Process calls externally.
type Profiler struct {
	cfg    Config
	kernel kernel
	stack  *Stack // the kernel unless Method is Bucket
	filter *sampling.Filter

	objHist  *histogram.Dense
	byteHist *histogram.Log

	seen    uint64 // pre-filter request count
	sampled uint64
}

// NewProfiler builds a profiler from cfg.
func NewProfiler(cfg Config) (*Profiler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Profiler{cfg: cfg, objHist: histogram.NewDense(1024)}
	if cfg.Method == Bucket {
		p.kernel = NewBucketStack(cfg.kPrime(), cfg.BucketRatio, cfg.Seed)
	} else {
		opts := []Option{WithMethod(cfg.Method)}
		switch cfg.Bytes {
		case BytesSizeArray:
			opts = append(opts, WithSizeArray())
		case BytesFenwick:
			opts = append(opts, WithFenwick())
		}
		p.stack = NewStack(cfg.kPrime(), cfg.Seed, opts...)
		p.kernel = p.stack
	}
	if cfg.Bytes != BytesOff {
		p.byteHist = histogram.NewLog()
	}
	if cfg.SamplingRate > 0 && cfg.SamplingRate < 1 {
		p.filter = sampling.NewRate(cfg.SamplingRate)
	}
	return p, nil
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

// Stack exposes the underlying KRR stack; nil under Method Bucket.
func (p *Profiler) Stack() *Stack { return p.stack }

// Seen returns the number of requests offered (before sampling).
func (p *Profiler) Seen() uint64 { return p.seen }

// Sampled returns the number of requests admitted by the filter.
func (p *Profiler) Sampled() uint64 { return p.sampled }

// StackMetricsInto registers the stack's live update metrics under
// prefix. They are atomics, safe to scrape while Process runs on
// another goroutine.
func (p *Profiler) StackMetricsInto(set *telemetry.Set, prefix string) {
	p.kernel.MetricsInto(set, prefix)
}

// MemoryOverheadBytes is the §5.6 metadata accounting: the stack plus
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
	p.seen++
	if p.filter != nil && !p.filter.Sampled(req.Key) {
		return
	}
	p.sampled++
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
	if p.byteHist == nil {
		return
	}
	switch p.cfg.Bytes {
	case BytesUniform:
		p.byteHist.Add(p.stack.UniformByteDistance(res.Distance))
	default:
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

// scale converts sampled distances back to full-trace cache sizes.
func (p *Profiler) scale() float64 {
	if p.filter == nil {
		return 1
	}
	return 1 / p.filter.Rate()
}

// ObjectMRC returns the modeled K-LRU miss ratio curve over
// object-count cache sizes.
func (p *Profiler) ObjectMRC() *mrc.Curve {
	return mrc.FromHistogram(p.objHist, p.scale())
}

// ByteMRC returns the modeled curve over byte cache sizes, or
// ErrBytesOff if the profiler was built with BytesOff. (It used to
// panic; a monitoring daemon must survive a mis-routed byte query.)
func (p *Profiler) ByteMRC() (*mrc.Curve, error) {
	if p.byteHist == nil {
		return nil, ErrBytesOff
	}
	return mrc.FromHistogram(p.byteHist, p.scale()), nil
}

// ObjHist exposes the object histogram.
func (p *Profiler) ObjHist() *histogram.Dense { return p.objHist }

// ByteHist exposes the byte histogram (nil when BytesOff).
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
