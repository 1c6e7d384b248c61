package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"krr/internal/fleet"
	"krr/internal/telemetry"
	"krr/internal/trace"
	"krr/internal/wire"
)

// scenario is a workload as the in-process replay hosts it: the same
// tenants, streams and connection plans the untraced run sends to
// krrserve.
type scenario struct {
	tenants []tenantSpec
	preload [][]trace.Request // per tenant; nil = none
	plans   []connPlan
	reader  bool     // closed-loop reads during the paced phase
	sizes   []uint64 // per tenant, the size a miss-ratio read asks for
	budget  uint64   // allocate budget
	// probe is the workload's main stream, fed to the model, trace
	// and wire decoder probes.
	probe []trace.Request
	// builds runs the offline batch configurations in-process.
	builds bool
}

// replayReads is the number of read passes after the paced phase when
// the scenario has no closed-loop reader, so read-path layers have
// enough samples for a median on every workload.
const replayReads = 10

// scenarios builds each workload's in-process replay from the same
// generated inputs as its untraced run.
var scenarios = map[string]func(uint64, int) (*scenario, error){
	"ingest":  ingestScenario,
	"fleet":   fleetScenario,
	"offline": offlineScenario,
}

// withReadSizes fills the per-tenant read sizes (a quarter of each
// stream's distinct keys) and the allocate budget.
func (sc *scenario) withReadSizes(streams [][]trace.Request) (*scenario, error) {
	var total uint64
	for _, s := range streams {
		sum, err := trace.Summarize((&trace.Trace{Reqs: s}).Reader())
		if err != nil {
			return nil, err
		}
		sc.sizes = append(sc.sizes, max(uint64(sum.DistinctObjects)/4, 1))
		total += uint64(sum.DistinctObjects)
	}
	sc.budget = max(uint64(float64(total)*fleetBudgetShare), 1)
	return sc, nil
}

// tracingSink is the wire.Sink of the replay: a span around each
// frame's ingest, with the registry call as its child. starts keeps
// each tenant's sink start times in frame order, to match against the
// generator's frame writes for the queue wait.
type tracingSink struct {
	reg    *fleet.Registry
	tr     *tracer
	mu     sync.Mutex
	starts map[string][]time.Time
	frames atomic.Uint64
}

func (s *tracingSink) IngestBatch(tenant string, reqs []trace.Request) error {
	req := s.frames.Add(1)
	outer := s.tr.start("wire.sink", 0, req)
	s.mu.Lock()
	s.starts[tenant] = append(s.starts[tenant], s.tr.t0.Add(time.Duration(outer.Start)))
	s.mu.Unlock()
	inner := s.tr.start("fleet.ingest_batch", outer.ID, req)
	err := s.reg.IngestBatch(tenant, reqs)
	s.tr.end(inner)
	s.tr.end(outer)
	return err
}

// miscountConns and miscountFrames size the wire.Client probe: a few
// short unpaced connections, each checked against the server's own
// counters.
const (
	miscountConns  = 4
	miscountFrames = 64
)

// replayWire hosts the scenario in-process: a fleet.Registry behind a
// wire.Server whose sink is traced, driven by the same paced
// connections as the untraced run, with reads through the registry.
func replayWire(e *env, tr *tracer, ls *metrics, sc *scenario, seconds int, replay *result) error {
	reg := fleet.NewRegistry(fleet.Config{})
	for _, t := range sc.tenants {
		opts, err := t.options()
		if err != nil {
			return err
		}
		if _, err := reg.Create(t.id, fleet.Spec{Model: t.model, Options: opts}); err != nil {
			return err
		}
	}
	for i, pre := range sc.preload {
		for lo := 0; lo < len(pre); lo += frameRecords {
			s := tr.start("fleet.preload_batch", 0, uint64(lo))
			if err := reg.IngestBatch(sc.tenants[i].id, pre[lo:min(lo+frameRecords, len(pre))]); err != nil {
				return err
			}
			tr.end(s)
		}
	}
	sink := &tracingSink{reg: reg, tr: tr, starts: make(map[string][]time.Time)}
	wsrv, err := wire.NewServer(wire.Config{Sink: sink})
	if err != nil {
		return err
	}
	addr, counters, stop, err := serveWire(wsrv)
	if err != nil {
		return err
	}
	defer stop()
	miscount, err := miscountProbe(sc.probe)
	if err != nil {
		return err
	}
	ls.add("wire.client_ack_miscount_frames", "count", float64(miscount), miscountConns*miscountFrames)

	base, err := counters()
	if err != nil {
		return err
	}
	reads := newReadTally()
	var pass uint64
	t0 := time.Now()
	done := make(chan []connRun, 1)
	go func() { done <- driveConns(addr, sc.plans) }()
	if sc.reader {
		for end := t0.Add(time.Duration(seconds) * time.Second); time.Now().Before(end); pass++ {
			readPass(tr, reg, sc, pass, reads, replay)
		}
	}
	runs := <-done
	wall := time.Since(t0)
	for i := 0; i < replayReads || pass == 0; i++ {
		readPass(tr, reg, sc, pass, reads, replay)
		pass++
	}

	w := tallyWire(runs)
	replay.addDist("ingest_ack", &w.ack)
	if sc.reader {
		reads.report(replay)
	}
	after, err := counters()
	if err != nil {
		return err
	}
	accepted := uint64(after["wire_requests_total"] - base["wire_requests_total"])
	shed := after["wire_dropped_frames_total"] - base["wire_dropped_frames_total"]
	replay.gate.frames(w)
	if accepted != w.okRequests {
		replay.gate.breach("replay: server accepted %d requests, generator saw %d", accepted, w.okRequests)
	}
	// The wire server drains a connection's queue before closing it,
	// so every accepted request has reached its tenant by now.
	var ingested uint64
	for i, t := range sc.tenants {
		ten, ok := reg.Get(t.id)
		if !ok {
			return fmt.Errorf("replay tenant %s evicted", t.id)
		}
		ingested += ten.Stats().Seen
		if sc.preload != nil {
			ingested -= uint64(len(sc.preload[i]))
		}
	}
	if ingested != accepted {
		replay.gate.breach("replay: tenants ingested %d wire requests, the server accepted %d", ingested, accepted)
	} else {
		replay.gate.pass()
	}

	// Gate the replay's final curves like the untraced run's.
	for i, t := range sc.tenants {
		var stream []trace.Request
		if sc.preload != nil {
			stream = append(stream, sc.preload[i]...)
		}
		for _, r := range runs {
			if r.plan.tenant == t.id {
				stream = append(stream, r.accepted()...)
			}
		}
		snap, err := reg.Snapshot(t.id)
		if err != nil {
			replay.gate.breach("replay tenant %s: %v", t.id, err)
			continue
		}
		gt, err := e.groundTruth(stream, false)
		if err != nil {
			return err
		}
		replay.gate.curve("replay tenant "+t.id, t.model, false, snap.Object, gt)
	}

	// Queue wait: the k-th accepted frame of a connection is the k-th
	// sink call for its tenant. It is timed from the generator's write
	// of the frame, not from its ack: in one process the server's ack
	// writer is often descheduled behind the sink, so the ack reaches
	// the client after the sink has started and the difference is
	// negative.
	qw := dist{unit: "us"}
	sink.mu.Lock()
	for _, r := range runs {
		starts := sink.starts[r.plan.tenant]
		k := 0
		for _, f := range r.frames[:r.acks] {
			if f.status != wire.StatusOK || k >= len(starts) {
				continue
			}
			qw.add(float64(starts[k].Sub(f.sent)) / 1e3)
			k++
		}
	}
	sink.mu.Unlock()
	addLayerDist(ls, "wire.queue_wait_us", &qw)
	busy := tr.durations("wire.sink", "s")
	var busySum float64
	for _, v := range busy.vals {
		busySum += v
	}
	ls.add("wire.sink_busy_frac", "ratio", busySum/(wall.Seconds()*float64(max(len(sc.plans), 1))), busy.n())
	ls.add("wire.shed_frames", "count", shed, int(w.frames))
	ib := tr.durations("fleet.ingest_batch", "us")
	addLayerDist(ls, "fleet.ingest_batch_us", &ib)
	snap := tr.durations("fleet.snapshot", "ms")
	addLayerDist(ls, "fleet.snapshot_ms", &snap)
	for _, l := range []struct{ span, name, unit string }{
		{"fleet.demands", "fleet.demands_ms", "ms"},
		{"fleet.waterfill", "fleet.waterfill_ms", "ms"},
		{"mrc.downsample", "mrc.downsample_us", "us"},
		{"mrc.write_json", "mrc.write_json_ms", "ms"},
	} {
		d := tr.durations(l.span, l.unit)
		ls.add(l.name, l.unit, d.median(), d.n())
	}
	ls.add("mrc.json_bytes", "B", float64(reads.curveBytes)/float64(max(reads.curve.n(), 1)), reads.curve.n())
	ev := tr.durations("mrc.eval_batch", "ns")
	ls.add("mrc.eval_ns", "ns", ev.median()/evalBatch, ev.n()*evalBatch)
	ls.add("fleet.footprint_mib", "MiB", float64(reg.Footprint())/(1<<20), reg.Len())
	return nil
}

// serveWire runs a wire server on a loopback port. counters reads its
// wire_ metrics; stop closes it and waits for Serve to return.
func serveWire(wsrv *wire.Server) (addr string, counters func() (map[string]float64, error), stop func(), err error) {
	set := telemetry.NewSet()
	wsrv.MetricsInto(set, "wire_")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	served := make(chan error, 1)
	go func() { served <- wsrv.Serve(ln) }()
	counters = func() (map[string]float64, error) {
		var buf bytes.Buffer
		if err := set.WritePrometheus(&buf); err != nil {
			return nil, err
		}
		return parseProm(&buf)
	}
	stop = func() {
		wsrv.Close()
		<-served
	}
	return ln.Addr().String(), counters, stop, nil
}

// miscountProbe sends unpaced full-size frames through wire.Client on
// a few connections to a server whose sink does nothing, and returns
// by how many frames the client's acked+dropped request counts differ
// from the server's accepted+shed counts.
func miscountProbe(reqs []trace.Request) (uint64, error) {
	wsrv, err := wire.NewServer(wire.Config{Sink: wire.SinkFunc(func(string, []trace.Request) error { return nil })})
	if err != nil {
		return 0, err
	}
	addr, counters, stop, err := serveWire(wsrv)
	if err != nil {
		return 0, err
	}
	defer stop()
	var miscount uint64
	for c := 0; c < miscountConns; c++ {
		before, err := counters()
		if err != nil {
			return 0, err
		}
		cl, err := wire.Dial(addr, "miscount")
		if err != nil {
			return 0, err
		}
		for f := 0; f < miscountFrames; f++ {
			lo := (f * frameRecords) % max(len(reqs)-frameRecords, 1)
			if err := cl.SendBatch(reqs[lo : lo+frameRecords]); err != nil {
				return 0, err
			}
			if err := cl.Flush(); err != nil {
				return 0, err
			}
		}
		st, err := cl.Close()
		if err != nil {
			return 0, err
		}
		after, err := counters()
		if err != nil {
			return 0, err
		}
		server := uint64(after["wire_requests_total"]-before["wire_requests_total"]) +
			uint64(after["wire_dropped_requests_total"]-before["wire_dropped_requests_total"])
		client := st.AckedRequests + st.DroppedRequests
		miscount += max(client, server) - min(client, server)
	}
	return miscount / frameRecords, nil
}

// evalBatch is the number of Curve.Eval calls one span covers; a
// single call is too short to time against the clock's own cost.
const evalBatch = 100

// readPass reads every tenant's miss ratio and full curve through the
// registry, then plans an allocation, with a span around each call.
func readPass(tr *tracer, reg *fleet.Registry, sc *scenario, pass uint64, reads *readTally, replay *result) {
	p := tr.start("read.pass", 0, pass)
	for i, t := range sc.tenants {
		r := tr.start("read.mrc", p.ID, pass)
		s := tr.start("fleet.snapshot", r.ID, pass)
		snap, err := reg.Snapshot(t.id)
		tr.end(s)
		if !replay.gate.op(err) {
			continue
		}
		ev := tr.start("mrc.eval_batch", r.ID, pass)
		for j := uint64(1); j <= evalBatch; j++ {
			snap.Object.Eval(sc.sizes[i] * j / evalBatch * 2)
		}
		tr.end(ev)
		reads.mrc.add(ms(tr.end(r).dur()))

		r = tr.start("read.curve", p.ID, pass)
		s = tr.start("fleet.snapshot", r.ID, pass)
		snap, err = reg.Snapshot(t.id)
		tr.end(s)
		if !replay.gate.op(err) {
			continue
		}
		cw := &countWriter{}
		j := tr.start("mrc.write_json", r.ID, pass)
		err = snap.Object.WriteJSON(cw)
		tr.end(j)
		replay.gate.op(err)
		reads.curveBytes += cw.n
		d := tr.start("mrc.downsample", r.ID, pass)
		snap.Object.Downsample(2000)
		tr.end(d)
		reads.curve.add(ms(tr.end(r).dur()))
	}
	a := tr.start("read.allocate", p.ID, pass)
	d := tr.start("fleet.demands", a.ID, pass)
	demands, err := reg.Demands("objects")
	tr.end(d)
	if replay.gate.op(err) {
		w := tr.start("fleet.waterfill", a.ID, pass)
		plan := fleet.Waterfill(demands, sc.budget)
		tr.end(w)
		if err := plan.Feasible(); err != nil {
			replay.gate.breach("replay allocate plan infeasible: %v", err)
		} else {
			replay.gate.pass()
		}
	}
	reads.allocate.add(ms(tr.end(a).dur()))
	reads.pass.add(ms(tr.end(p).dur()))
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
