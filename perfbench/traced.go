package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"krr/internal/model"
	"krr/internal/trace"
	"krr/internal/wire"
)

// spanRec is one timed call into a layer. Spans of one request (a
// frame, a read, a batch) share Req; Parent is the span that caused
// this one, 0 for a root.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s spanRec) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write stores them when the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]spanRec, 0, 1<<16)} }

func (t *tracer) start(name string, parent, req uint64) spanRec {
	return spanRec{ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}
}

func (t *tracer) end(s spanRec) spanRec {
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// durations collects the durations of every span named name, scaled
// to unit ("ns", "us", "ms" or "s").
func (t *tracer) durations(name, unit string) dist {
	scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
	d := dist{unit: unit}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			d.add(float64(s.End-s.Start) / scale)
		}
	}
	return d
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeConfigs are the model configurations the kernel probe times:
// the offline configurations plus the other fleet models.
var probeConfigs = []tenantSpec{
	{model: "krr"},
	{model: "krr-bucket"},
	{model: "krr", bytes: "sizearray"},
	{model: "krr", workers: 2},
	{model: "aet"},
	{model: "che"},
	{model: "krr", rate: 0.01},
}

// probeBudget caps the time each model configuration spends in the
// kernel probe; a rate in ns/request needs no fixed request count.
const probeBudget = 400 * time.Millisecond

// probeRequests caps the stream the probes see, which bounds the
// memory of the decode probe's encoded copies.
const probeRequests = 1 << 20

// addLayerDist adds <name>_p50 and <name>_tail. Every per-layer metric
// is reported on every run, so a sample too small for a tail reports
// its largest value as the tail, and says so.
func addLayerDist(ls *metrics, name string, d *dist) {
	if ls.addDist(name+"_p50", name+"_tail", d) {
		return
	}
	s := d.sorted()
	v := 0.0
	if len(s) > 0 {
		v = s[len(s)-1]
	}
	*ls = append(*ls, metric{Name: name + "_tail", Unit: d.unit, Value: v, N: d.n(),
		Note: "too few samples for a tail; largest value"})
}

func runTraced(e *env, seed uint64, seconds int, res *result) error {
	sc, err := scenarios[res.Workload](seed, seconds)
	if err != nil {
		return err
	}
	// Start the replay from a collected heap, so garbage from the
	// untraced run does not bill its collection to the traced calls.
	runtime.GC()
	tr := newTracer()
	ls := &metrics{}
	probe := sc.probe[:min(len(sc.probe), probeRequests)]
	if err := kernelProbe(tr, ls, probe); err != nil {
		return err
	}
	if err := decodeProbe(tr, ls, probe); err != nil {
		return err
	}
	replay := &result{Workload: res.Workload}
	if sc.builds {
		if err := offlineInProcess(e, tr, replay); err != nil {
			return err
		}
	}
	if err := replayWire(e, tr, ls, sc, seconds, replay); err != nil {
		return err
	}
	res.gate.attempted += replay.gate.attempted
	res.gate.failed += replay.gate.failed
	res.gate.breaches = append(res.gate.breaches, replay.gate.breaches...)

	// Tracing overhead: the traced replay's end-to-end figures minus
	// the untraced run's, for every figure both measured.
	for _, m := range replay.Metrics {
		if u, ok := res.get(m.Name); ok && m.Unit == u.Unit && m.Name != "curve_mae" {
			res.Metrics = append(res.Metrics, metric{Name: "tracing_overhead." + m.Name, Unit: m.Unit,
				Value: m.Value - u.Value, N: m.N,
				Note: "in-process traced replay minus untraced child-process run"})
		}
	}
	if a, ok := res.get("read_allocate_p50_ms"); ok {
		d, _ := ls.get("fleet.demands_ms")
		w, _ := ls.get("fleet.waterfill_ms")
		res.add("allocate_share_demands_waterfill", "ratio", (d.Value+w.Value)/a.Value, a.N)
		res.note("fleet.demands_ms + fleet.waterfill_ms = %.4g ms, %.1f%% of read_allocate_p50_ms %.4g ms; "+
			"krrserve's /allocate runs Registry.Demands twice, and 2 x demands + waterfill is %.1f%%",
			d.Value+w.Value, 100*(d.Value+w.Value)/a.Value, a.Value, 100*(2*d.Value+w.Value)/a.Value)
	}
	res.Layers = *ls
	return tr.write(filepath.Join(e.work, "spans.jsonl"))
}

// kernelProbe times model.ProcessBatch per configuration over the
// workload's main stream, then reads each model's snapshot.
func kernelProbe(tr *tracer, ls *metrics, reqs []trace.Request) error {
	for _, cfg := range probeConfigs {
		label := cfg.label()
		opts, err := cfg.options()
		if err != nil {
			return err
		}
		m, err := model.New(cfg.model, opts)
		if err != nil {
			return err
		}
		var busy time.Duration
		n := 0
		deadline := time.Now().Add(probeBudget)
		for lo := 0; lo < len(reqs) && (lo == 0 || time.Now().Before(deadline)); lo += frameRecords {
			batch := reqs[lo:min(lo+frameRecords, len(reqs))]
			s := tr.start("model.process_batch."+label, 0, uint64(lo))
			if err := model.ProcessBatch(m, batch); err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
			busy += tr.end(s).dur()
			n += len(batch)
		}
		ls.add("model.process_ns_per_req."+label, "ns", float64(busy)/float64(n), n)
		snaps := dist{unit: "ms"}
		var snap model.Snapshot
		for i := 0; i < 5; i++ {
			s := tr.start("model.snapshot."+label, 0, uint64(i))
			snap = m.Snapshot()
			snaps.add(ms(tr.end(s).dur()))
		}
		ls.add("model.snapshot_ms."+label, "ms", snaps.median(), snaps.n())
		ls.add("model.curve_points."+label, "count", float64(len(snap.Object.Sizes)), 1)
		if cfg.rate > 0 {
			st := m.Stats()
			ls.add("model.sampled_frac."+label, "ratio", float64(st.Sampled)/float64(max(st.Seen, 1)), int(st.Seen))
		}
		if c, ok := m.(io.Closer); ok {
			c.Close()
		}
	}
	return nil
}

// decodeProbe times the trace-file reader and the wire frame decoder
// over the workload's main stream.
func decodeProbe(tr *tracer, ls *metrics, reqs []trace.Request) error {
	var file bytes.Buffer
	if err := trace.WriteBinary(&file, &trace.Trace{Reqs: reqs}); err != nil {
		return err
	}
	br, err := trace.NewBinaryReader(bytes.NewReader(file.Bytes()))
	if err != nil {
		return err
	}
	var busy time.Duration
	buf := make([]trace.Request, frameRecords)
	n := 0
	for {
		s := tr.start("trace.decode_batch", 0, uint64(n))
		k, err := trace.ReadBatch(br, buf)
		busy += tr.end(s).dur()
		n += k
		if err == io.EOF || k == 0 {
			break
		}
		if err != nil {
			return err
		}
	}
	if n != len(reqs) {
		return fmt.Errorf("trace decode read %d of %d requests", n, len(reqs))
	}
	ls.add("trace.decode_ns_per_req", "ns", float64(busy)/float64(n), n)

	var frames []byte
	for lo := 0; lo < len(reqs); lo += frameRecords {
		frames = wire.AppendFrame(frames, reqs[lo:min(lo+frameRecords, len(reqs))])
	}
	dec := wire.NewDecoder(bufio.NewReaderSize(bytes.NewReader(frames), 1<<18), nil)
	busy, n = 0, 0
	for i := uint64(0); ; i++ {
		s := tr.start("wire.decode_frame", 0, i)
		k, err := dec.NextCount()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		batch, err := dec.ReadBatch(k)
		if err != nil {
			return err
		}
		dec.Recycle(batch)
		busy += tr.end(s).dur()
		n++
	}
	ls.add("wire.decode_us_per_frame", "us", float64(busy)/1e3/float64(n), n)
	return nil
}
