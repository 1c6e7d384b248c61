package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"krr/internal/fleet"
	"krr/internal/trace"
)

const (
	// fleetPreload is each tenant's preloaded request count.
	fleetPreload = 200_000
	// fleetWireRate is the steady phase's paced ingest rate into one
	// tenant: low enough that the kernel does little, so the read path
	// dominates, but steady enough that a read stalling the tenant lock
	// shows in the ack latency.
	fleetWireRate = 50_000
	// fleetBudgetShare is the /allocate budget as a share of the
	// fleet's distinct keys.
	fleetBudgetShare = 0.25
)

// fleetTenants mixes the four hosted model kinds over presets of
// different key-space sizes. Each model is fed a preset inside its
// declared envelope: the closed-form che on an IRM stream, sampled krr
// on an MSR-like one.
var fleetTenants = func() []tenantSpec {
	var ts []tenantSpec
	scales := []float64{0.25, 0.5, 0.75, 1}
	kinds := []tenantSpec{
		{model: "krr-bucket", preset: "msr-web"},
		{model: "aet", preset: "tw-26.0"},
		{model: "che", preset: "zipf"},
		{model: "krr", rate: 0.01, preset: "msr-web"},
	}
	for _, k := range kinds {
		for _, s := range scales {
			t := k
			t.id = fmt.Sprintf("t%02d", len(ts))
			t.scale = s
			if t.rate > 0 {
				t.scale *= 2 // sampled models need a larger key space to sample from
			}
			ts = append(ts, t)
		}
	}
	return ts
}()

// fleetWireTenant is the tenant the steady phase ingests into: the
// largest krr-bucket tenant, whose snapshots are the slowest reads.
const fleetWireTenant = 3

// fleetInputs are one seed's generated streams.
type fleetInputs struct {
	preload  [][]trace.Request // per tenant
	bodies   [][]byte          // preload encoded as binary trace bodies
	wire     connPlan          // steady-phase continuation of fleetWireTenant's stream
	distinct []uint64          // distinct keys per tenant's preload
	budget   uint64
}

func genFleet(seed uint64, seconds int) (*fleetInputs, error) {
	in := &fleetInputs{}
	wireFrames := int(float64(fleetWireRate)*float64(seconds)/frameRecords) + 1
	var total uint64
	for i, t := range fleetTenants {
		n := fleetPreload
		if i == fleetWireTenant {
			n += wireFrames * frameRecords
		}
		reqs, err := t.generate(streamSeed(seed, i), n)
		if err != nil {
			return nil, err
		}
		pre := reqs[:fleetPreload]
		if i == fleetWireTenant {
			in.wire = connPlan{tenant: t.id, reqs: reqs[fleetPreload:], rate: fleetWireRate}
		}
		var body bytes.Buffer
		if err := trace.WriteBinary(&body, &trace.Trace{Reqs: pre}); err != nil {
			return nil, err
		}
		sum, err := trace.Summarize((&trace.Trace{Reqs: pre}).Reader())
		if err != nil {
			return nil, err
		}
		in.preload = append(in.preload, pre)
		in.bodies = append(in.bodies, body.Bytes())
		in.distinct = append(in.distinct, uint64(sum.DistinctObjects))
		total += uint64(sum.DistinctObjects)
	}
	in.budget = uint64(float64(total) * fleetBudgetShare)
	return in, nil
}

func runFleet(e *env, seed uint64, seconds int, res *result) error {
	in, err := genFleet(seed, seconds)
	if err != nil {
		return err
	}
	// Each set-up carries one slice of the steady phase, so set-up CPU,
	// peak RSS and read passes are all sampled across the whole run and
	// over setupRepeats server processes: the host's speed drifts over
	// tens of seconds, and one process's read latency moves with its
	// heap layout and GC timing.
	setup := dist{unit: "s"}
	var cpu cpuTally
	rss := dist{unit: "MiB"}
	reads := newReadTally()
	var runs []connRun
	var shed uint64
	segment := time.Duration(seconds) * time.Second / setupRepeats
	for i := 0; i < setupRepeats; i++ {
		srv, t, err := setUpOnce(e, fmt.Sprint(i), fleetTenants, func(srv *server) error {
			return preloadFleet(srv, in, &cpu)
		})
		if err != nil {
			return err
		}
		setup.add(t)
		run, n, err := fleetSegment(e, srv, res, in, in.wire.segment(i, setupRepeats), segment, reads, &rss)
		srv.stop()
		if err != nil {
			return err
		}
		runs = append(runs, run)
		shed += n
	}
	res.add("setup_s", "s", setup.median(), setup.n())
	ns, err := cpuNsPerReq(0, cpu.ticks, cpu.reqs)
	if err != nil {
		return err
	}
	res.add("preload_cpu_ns_per_req", "ns", ns, int(cpu.reqs))
	res.add("peak_rss_mib", "MiB", rss.median(), rss.n())
	reportWire(res, runs, shed)
	reads.report(res)
	res.gate.reportMAE(res)
	return nil
}

// cpuTally pools server CPU ticks and the requests processed in them.
type cpuTally struct{ ticks, reqs uint64 }

// preloadFleet ingests every tenant's preload over HTTP and adds the
// server's CPU ticks and the requests preloaded to cpu.
func preloadFleet(srv *server, in *fleetInputs, cpu *cpuTally) error {
	t0, err := procCPUTicks(srv.pid())
	if err != nil {
		return err
	}
	var preloaded uint64
	for i, t := range fleetTenants {
		var ack struct {
			Ingested int `json:"ingested"`
		}
		err := srv.do("POST", "/tenants/"+t.id+"/ingest", "application/octet-stream", bytes.NewReader(in.bodies[i]), &ack)
		if err != nil {
			return err
		}
		if ack.Ingested != len(in.preload[i]) {
			return fmt.Errorf("tenant %s ingested %d of %d preloaded requests", t.id, ack.Ingested, len(in.preload[i]))
		}
		preloaded += uint64(ack.Ingested)
	}
	t1, err := procCPUTicks(srv.pid())
	if err != nil {
		return err
	}
	cpu.ticks += t1 - t0
	cpu.reqs += preloaded
	return nil
}

// fleetSegment runs one slice of the steady phase on a preloaded
// server: an untimed read pass, after which the server's peak RSS is
// taken, then the paced wire connection beside the closed-loop reader
// for d. It drains the server, gates every tenant's final curve, and
// returns the wire connection's record and the frames the server shed.
func fleetSegment(e *env, srv *server, res *result, in *fleetInputs, plan connPlan, d time.Duration,
	reads *readTally, rss *dist) (connRun, uint64, error) {
	readLoop(srv, res, in, 0, newReadTally())
	v, err := procPeakRSSMiB(srv.pid())
	if err != nil {
		return connRun{}, 0, err
	}
	rss.add(v)

	done := make(chan connRun, 1)
	go func() { done <- driveConns(srv.tcpAddr, []connPlan{plan})[0] }()
	readLoop(srv, res, in, d, reads)
	run := <-done
	_, shed, err := drain(srv, res, []connRun{run}, fleetPreload)
	if err != nil {
		return run, 0, err
	}
	for i, t := range fleetTenants {
		stream := in.preload[i]
		if i == fleetWireTenant {
			stream = append(append([]trace.Request(nil), stream...), run.accepted()...)
		}
		if err := finalCurve(e, srv, res, t, stream); err != nil {
			return run, 0, err
		}
	}
	return run, shed, nil
}

// readTally holds the reader's per-endpoint latencies.
type readTally struct {
	mrc, curve, allocate, pass dist
	curveBytes                 int64
}

func newReadTally() *readTally {
	return &readTally{mrc: dist{unit: "ms"}, curve: dist{unit: "ms"}, allocate: dist{unit: "ms"}, pass: dist{unit: "ms"}}
}

func (r *readTally) report(res *result) {
	res.addDist("read_mrc", &r.mrc)
	res.addDist("read_curve", &r.curve)
	res.addDist("read_allocate", &r.allocate)
	res.addDist("read_pass", &r.pass)
	if n := r.curve.n(); n > 0 {
		res.add("read_curve_bytes", "B", float64(r.curveBytes)/float64(n), n)
	}
}

// readLoop is the closed-loop reader: each pass reads every tenant's
// miss ratio at a quarter of its key space and its full curve, then
// asks for a partitioning plan; the next request goes out only when the
// previous one returned. It runs whole passes until d has elapsed, and
// at least one, adding their latencies to r.
func readLoop(srv *server, res *result, in *fleetInputs, d time.Duration, r *readTally) {
	n := r.pass.n()
	end := time.Now().Add(d)
	for r.pass.n() == n || time.Now().Before(end) {
		p0 := time.Now()
		for i, t := range fleetTenants {
			t0 := time.Now()
			var v struct {
				MissRatio float64 `json:"miss_ratio"`
			}
			err := srv.do("GET", fmt.Sprintf("/tenants/%s/mrc?size=%d", t.id, in.distinct[i]/4), "", nil, &v)
			if res.gate.op(err) {
				r.mrc.add(ms(time.Since(t0)))
			}
			t0 = time.Now()
			n, err := getDiscard(srv, "/tenants/"+t.id+"/curve")
			if res.gate.op(err) {
				r.curve.add(ms(time.Since(t0)))
				r.curveBytes += n
			}
		}
		t0 := time.Now()
		var plan struct {
			Waterfill fleet.Plan `json:"waterfill"`
		}
		err := srv.do("GET", fmt.Sprintf("/allocate?budget=%d", in.budget), "", nil, &plan)
		if res.gate.op(err) {
			r.allocate.add(ms(time.Since(t0)))
			if err := plan.Waterfill.Feasible(); err != nil {
				res.gate.breach("allocate plan infeasible: %v", err)
			} else {
				res.gate.pass()
			}
		}
		r.pass.add(ms(time.Since(p0)))
	}
}

// getDiscard reads a response body without decoding it, returning its
// length.
func getDiscard(srv *server, path string) (int64, error) {
	resp, err := srv.client.Get(srv.httpURL + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return n, err
}

func fleetScenario(seed uint64, seconds int) (*scenario, error) {
	in, err := genFleet(seed, seconds)
	if err != nil {
		return nil, err
	}
	sc := &scenario{tenants: fleetTenants, preload: in.preload, plans: []connPlan{in.wire}, reader: true,
		probe: in.preload[fleetWireTenant]}
	sc.sizes = make([]uint64, len(in.distinct))
	for i, d := range in.distinct {
		sc.sizes[i] = max(d/4, 1)
	}
	sc.budget = in.budget
	return sc, nil
}
