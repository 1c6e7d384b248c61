package main

import (
	"fmt"
	"time"

	"krr/internal/mrc"
	"krr/internal/trace"
)

// ingestRate is the ingest workload's total paced rate in requests per
// second, split evenly over its two connections. It sits well below
// the rate at which krrserve's queues start shedding on a 2-vCPU host
// that also runs the generator, so shed frames are failures, not noise.
const ingestRate = 1_000_000

// setupRepeats is how many times a run sets up from scratch; setup_s is
// the median.
const setupRepeats = 7

// ingestTenants: the kernel-bound krr-bucket tenant and the
// plumbing-bound aet tenant.
var ingestTenants = []tenantSpec{
	{id: "a", model: "krr-bucket", preset: "msr-web", scale: 1},
	{id: "b", model: "aet", preset: "tw-26.0", scale: 1},
}

// ingestPlans generates one uncycled stream per tenant, long enough to
// fill the measured phase at the paced rate.
func ingestPlans(seed uint64, seconds int) ([]connPlan, error) {
	per := float64(ingestRate) / float64(len(ingestTenants))
	frames := int(per*float64(seconds)/frameRecords) + 1
	plans := make([]connPlan, len(ingestTenants))
	for i, t := range ingestTenants {
		reqs, err := t.generate(streamSeed(seed, i), frames*frameRecords)
		if err != nil {
			return nil, err
		}
		plans[i] = connPlan{tenant: t.id, reqs: reqs, rate: per}
	}
	return plans, nil
}

// setUpOnce starts krrserve, creates the tenants and runs prepare, and
// returns the server with the time that took.
func setUpOnce(e *env, tag string, tenants []tenantSpec, prepare func(*server) error) (*server, float64, error) {
	t0 := time.Now()
	srv, err := startServer(e, tag)
	if err != nil {
		return nil, 0, err
	}
	for _, t := range tenants {
		if err := srv.createTenant(t); err != nil {
			srv.stop()
			return nil, 0, err
		}
	}
	if prepare != nil {
		if err := prepare(srv); err != nil {
			srv.stop()
			return nil, 0, err
		}
	}
	return srv, time.Since(t0).Seconds(), nil
}

// ingestSegments is the number of fresh krrserve processes the paced
// phase is split over, one after the other. Ack latency differs from
// one server process to the next by up to a factor of two (scheduling
// state set at start-up), so the run pools frames from several.
const ingestSegments = 5

// segment returns the plan's share of frames for segment seg of n.
func (p connPlan) segment(seg, n int) connPlan {
	f := p.frames()
	lo, hi := seg*f/n*frameRecords, min((seg+1)*f/n*frameRecords, len(p.reqs))
	p.reqs = p.reqs[lo:hi]
	return p
}

func runIngest(e *env, seed uint64, seconds int, res *result) error {
	plans, err := ingestPlans(seed, seconds)
	if err != nil {
		return err
	}
	setup := dist{unit: "s"}
	tot := &serverTotals{rss: dist{unit: "MiB"}}
	for i := 0; i < setupRepeats; i++ {
		srv, t, err := setUpOnce(e, fmt.Sprint(i), ingestTenants, nil)
		if err != nil {
			return err
		}
		setup.add(t)
		// The last ingestSegments set-ups each carry one segment.
		if seg := i - (setupRepeats - ingestSegments); seg >= 0 {
			segPlans := make([]connPlan, len(plans))
			for j, p := range plans {
				segPlans[j] = p.segment(seg, ingestSegments)
			}
			err = tot.segment(e, srv, res, segPlans)
		}
		srv.stop()
		if err != nil {
			return err
		}
	}
	res.add("setup_s", "s", setup.median(), setup.n())
	reportWire(res, tot.runs, tot.shed)
	cpu, err := cpuNsPerReq(0, tot.ticks, tot.ingested)
	if err != nil {
		return fmt.Errorf("cpu per request: %w", err)
	}
	res.add("ingest_cpu_ns_per_req", "ns", cpu, int(tot.ingested))
	res.add("peak_rss_mib", "MiB", tot.rss.median(), tot.rss.n())
	res.gate.reportMAE(res)
	return nil
}

// serverTotals pools the ingest segments: server CPU ticks, requests
// ingested, frames shed, peak RSS per process, and every connection.
type serverTotals struct {
	ticks, ingested, shed uint64
	rss                   dist
	runs                  []connRun
}

// segment runs one paced segment on srv, waits for the drain and gates
// the final curves.
func (tot *serverTotals) segment(e *env, srv *server, res *result, plans []connPlan) error {
	t0, err := procCPUTicks(srv.pid())
	if err != nil {
		return err
	}
	// The idle set-up connection would be a third; the paced phase
	// uses the two wire connections only.
	srv.client.CloseIdleConnections()
	runs := driveConns(srv.tcpAddr, plans)
	ingested, shed, err := drain(srv, res, runs, 0)
	if err != nil {
		return err
	}
	t1, err := procCPUTicks(srv.pid())
	if err != nil {
		return err
	}
	rss, err := procPeakRSSMiB(srv.pid())
	if err != nil {
		return err
	}
	tot.ticks += t1 - t0
	tot.ingested += ingested
	tot.shed += shed
	tot.rss.add(rss)
	tot.runs = append(tot.runs, runs...)
	for i, t := range ingestTenants {
		if err := finalCurve(e, srv, res, t, runs[i].accepted()); err != nil {
			return err
		}
	}
	return nil
}

// reportWire reports the generator's view of the wire phase: ack
// latency from due time, its own lateness, frames sent, and the frames
// the server shed.
func reportWire(res *result, runs []connRun, shed uint64) {
	w := tallyWire(runs)
	res.addDist("ingest_ack", &w.ack)
	res.addDist("generator_lateness", &w.late)
	res.add("wire_frames_sent", "count", float64(w.frames), int(w.frames))
	res.add("wire_shed_frames", "count", float64(shed), int(w.frames))
}

// drain gates the wire phase, then waits until the server has ingested
// every request it accepted: its wire_requests_total counter against
// the tenants' /stats seen counts (less requests preloaded before the
// phase). Accepted and shed counts come from the server; the
// generator's own per-frame accounting must agree with them. It
// returns the requests ingested over the wire and the frames shed.
func drain(srv *server, res *result, runs []connRun, preloaded uint64) (uint64, uint64, error) {
	w := tallyWire(runs)
	res.gate.frames(w)
	for _, r := range runs {
		if r.err != nil {
			res.note("connection %s: %v", r.plan.tenant, r.err)
		}
	}
	m, err := srv.metrics()
	if err != nil {
		return 0, 0, err
	}
	accepted := uint64(m["wire_requests_total"])
	shed := uint64(m["wire_dropped_frames_total"])
	if accepted != w.okRequests || shed != w.shed {
		res.gate.breach("server accepted %d requests and shed %d frames; generator saw %d accepted and %d shed",
			accepted, shed, w.okRequests, w.shed)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var seen uint64
		for _, r := range runs {
			n, err := srv.seen(r.plan.tenant)
			if err != nil {
				return 0, 0, err
			}
			seen += n
		}
		if seen-preloaded == accepted {
			res.gate.pass()
			return accepted, shed, nil
		}
		if time.Now().After(deadline) {
			res.gate.breach("after drain the tenants ingested %d requests, the server accepted %d", seen-preloaded, accepted)
			return seen - preloaded, shed, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// finalCurve reads a tenant's final curve over HTTP and gates it
// against the K-LRU simulation of the exact stream it was sent.
func finalCurve(e *env, srv *server, res *result, t tenantSpec, stream []trace.Request) error {
	var c mrc.Curve
	if err := srv.do("GET", "/tenants/"+t.id+"/curve", "", nil, &c); err != nil {
		res.gate.breach("tenant %s: final curve: %v", t.id, err)
		return nil
	}
	gt, err := e.groundTruth(stream, false)
	if err != nil {
		return err
	}
	res.gate.curve("tenant "+t.id, t.model, false, &c, gt)
	return nil
}

func ingestScenario(seed uint64, seconds int) (*scenario, error) {
	plans, err := ingestPlans(seed, seconds)
	if err != nil {
		return nil, err
	}
	sc := &scenario{tenants: ingestTenants, plans: plans, probe: plans[0].reqs}
	return sc.withReadSizes([][]trace.Request{plans[0].reqs, plans[1].reqs})
}
