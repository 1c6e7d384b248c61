package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
)

// offlineTrace is one generated trace file.
type offlineTrace struct {
	file string
	spec tenantSpec
	n    int
}

var offlineTraces = []offlineTrace{
	{file: "msr-web.krt", spec: tenantSpec{preset: "msr-web", scale: 1}, n: 2_000_000},
	{file: "tw-26.0-var.krt", spec: tenantSpec{preset: "tw-26.0", scale: 1, variable: true}, n: 400_000},
}

// offlineConfig is one krrmrc invocation. Request caps size each build
// to about a second on a 2-vCPU host (plain krr costs ~7 µs/request on
// msr-web, krr-bucket under 1 µs), so a run holds several rounds: on a
// shared host, build times drift by tens of percent within a minute.
type offlineConfig struct {
	trace int // index into offlineTraces
	n     int // request cap, 0 = whole file
	spec  tenantSpec
}

var offlineConfigs = []offlineConfig{
	{trace: 0, n: 100_000, spec: tenantSpec{model: "krr"}},
	{trace: 0, spec: tenantSpec{model: "krr-bucket"}},
	{trace: 1, spec: tenantSpec{model: "krr", bytes: "sizearray"}},
	{trace: 0, n: 250_000, spec: tenantSpec{model: "krr", workers: 2}},
}

func (c offlineConfig) bytes() bool { return c.spec.bytes != "" }

func (c offlineConfig) length() int {
	if c.n > 0 {
		return c.n
	}
	return offlineTraces[c.trace].n
}

func runOffline(e *env, seed uint64, seconds int, res *result) error {
	streams := make([][]trace.Request, len(offlineTraces))
	for i, t := range offlineTraces {
		reqs, err := t.spec.generate(streamSeed(seed, i), t.n)
		if err != nil {
			return err
		}
		streams[i] = reqs
	}
	// Set-up: writing the inputs in the trace format krrmrc reads.
	setup := dist{unit: "s"}
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		for j, t := range offlineTraces {
			if err := writeTrace(filepath.Join(e.work, t.file), streams[j]); err != nil {
				return err
			}
		}
		setup.add(time.Since(t0).Seconds())
	}
	res.add("setup_s", "s", setup.median(), setup.n())

	builds := make([]dist, len(offlineConfigs))
	rss := make([]dist, len(offlineConfigs))
	outputs := make([]string, len(offlineConfigs))
	for i := range builds {
		builds[i].unit = "s"
		rss[i].unit = "MiB"
		outputs[i] = filepath.Join(e.work, offlineConfigs[i].spec.label()+".json")
	}
	round := dist{unit: "ms"}
	var cpuNs float64
	var reqs uint64
	end := time.Now().Add(time.Duration(seconds) * time.Second)
	for round.n() == 0 || time.Now().Before(end) {
		r0 := time.Now()
		for i, c := range offlineConfigs {
			wall, ru, err := runKrrmrc(e, c, outputs[i])
			if !res.gate.op(err) {
				res.note("krrmrc %s: %v", c.spec.label(), err)
				continue
			}
			builds[i].add(wall.Seconds())
			cpuNs += float64(ru.Utime.Nano() + ru.Stime.Nano())
			reqs += uint64(c.length())
			rss[i].add(float64(ru.Maxrss) / 1024)
		}
		round.add(ms(time.Since(r0)))
	}
	for i, c := range offlineConfigs {
		res.add("mrc_build_s."+c.spec.label(), "s", builds[i].median(), builds[i].n())
	}
	res.addDist("mrc_build_round", &round)
	if reqs == 0 {
		return fmt.Errorf("no krrmrc build succeeded")
	}
	res.add("mrc_build_cpu_ns_per_req", "ns", cpuNs/float64(reqs), int(reqs))
	// Peak RSS: the largest config's median over rounds, as one build's
	// high-water mark moves with GC timing.
	var peakRSS float64
	for i := range rss {
		peakRSS = max(peakRSS, rss[i].median())
	}
	res.add("peak_rss_mib", "MiB", peakRSS, round.n())

	// Gate the last build of every config against the simulation of
	// exactly the requests it read.
	for i, c := range offlineConfigs {
		f, err := os.Open(outputs[i])
		if err != nil {
			res.gate.breach("krrmrc %s: %v", c.spec.label(), err)
			continue
		}
		curve, err := mrc.ReadJSON(f)
		f.Close()
		if err != nil {
			res.gate.breach("krrmrc %s: output: %v", c.spec.label(), err)
			continue
		}
		gt, err := e.groundTruth(streams[c.trace][:c.length()], c.bytes())
		if err != nil {
			return err
		}
		res.gate.curve("krrmrc "+c.spec.label(), c.spec.model, c.bytes(), curve, gt)
	}
	res.gate.reportMAE(res)
	return nil
}

func writeTrace(path string, reqs []trace.Request) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteBinary(f, &trace.Trace{Reqs: reqs}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runKrrmrc runs one build and returns its wall time and resource use.
func runKrrmrc(e *env, c offlineConfig, out string) (time.Duration, *syscall.Rusage, error) {
	args := []string{
		"-trace", filepath.Join(e.work, offlineTraces[c.trace].file),
		"-k", strconv.Itoa(modelK), "-seed", strconv.Itoa(modelSeed),
		"-format", "json", "-o", out, "-model", c.spec.model,
	}
	if c.spec.bytes != "" {
		args = append(args, "-bytes", c.spec.bytes)
	}
	if c.spec.workers > 1 {
		args = append(args, "-workers", strconv.Itoa(c.spec.workers))
	}
	if c.n > 0 {
		args = append(args, "-n", strconv.Itoa(c.n))
	}
	cmd, logf, err := command(filepath.Join(e.work, "krrmrc-"+c.spec.label()+".log"), e.krrmrc, args...)
	if err != nil {
		return 0, nil, err
	}
	defer logf.Close()
	t0 := time.Now()
	err = cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return wall, nil, fmt.Errorf("%w (see %s)", err, logf.Name())
	}
	return wall, cmd.ProcessState.SysUsage().(*syscall.Rusage), nil
}

// offlineScenario replays the offline msr-web trace over one wire
// connection into a krr-bucket tenant after the in-process builds, so
// the wire and fleet layers are measured on this workload's input too;
// offline has no end-to-end figure they feed.
func offlineScenario(seed uint64, _ int) (*scenario, error) {
	t := offlineTraces[0]
	reqs, err := t.spec.generate(streamSeed(seed, 0), t.n)
	if err != nil {
		return nil, err
	}
	tenant := tenantSpec{id: "a", model: "krr-bucket", preset: t.spec.preset, scale: t.spec.scale}
	sc := &scenario{tenants: []tenantSpec{tenant}, builds: true, probe: reqs,
		plans: []connPlan{{tenant: tenant.id, reqs: reqs, rate: ingestRate / 2}}}
	return sc.withReadSizes([][]trace.Request{reqs})
}

// offlineInProcess runs each offline configuration in-process over the
// trace files the untraced run wrote, as krrmrc does: decode, model,
// downsample, write JSON.
func offlineInProcess(e *env, tr *tracer, replay *result) error {
	for _, c := range offlineConfigs {
		t0 := time.Now()
		root := tr.start("offline.build."+c.spec.label(), 0, 0)
		curve, stream, err := buildInProcess(e, tr, c, root.ID)
		if err != nil {
			return fmt.Errorf("%s: %w", c.spec.label(), err)
		}
		tr.end(root)
		replay.add("mrc_build_s."+c.spec.label(), "s", time.Since(t0).Seconds(), 1)
		gt, err := e.groundTruth(stream, c.bytes())
		if err != nil {
			return err
		}
		replay.gate.curve("in-process "+c.spec.label(), c.spec.model, c.bytes(), curve, gt)
	}
	return nil
}

// buildInProcess returns the written curve and the requests it read.
func buildInProcess(e *env, tr *tracer, c offlineConfig, parent uint64) (*mrc.Curve, []trace.Request, error) {
	f, err := os.Open(filepath.Join(e.work, offlineTraces[c.trace].file))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	br, err := trace.NewBinaryReader(f)
	if err != nil {
		return nil, nil, err
	}
	opts, err := c.spec.options()
	if err != nil {
		return nil, nil, err
	}
	m, err := model.New(c.spec.model, opts)
	if err != nil {
		return nil, nil, err
	}
	if cl, ok := m.(io.Closer); ok {
		defer cl.Close()
	}
	buf := make([]trace.Request, frameRecords)
	var read []trace.Request
	for left := c.length(); left > 0; {
		s := tr.start("trace.decode_batch", parent, 0)
		k, err := trace.ReadBatch(br, buf[:min(len(buf), left)])
		tr.end(s)
		if k > 0 {
			p := tr.start("model.process_batch."+c.spec.label(), parent, 0)
			if err := model.ProcessBatch(m, buf[:k]); err != nil {
				return nil, nil, err
			}
			tr.end(p)
			read = append(read, buf[:k]...)
			left -= k
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
	}
	curve := m.ObjectMRC()
	if c.bytes() {
		curve = m.ByteMRC()
	}
	out, err := os.Create(filepath.Join(e.work, c.spec.label()+".inprocess.json"))
	if err != nil {
		return nil, nil, err
	}
	ds := curve.Downsample(2000)
	if err := ds.WriteJSON(out); err != nil {
		out.Close()
		return nil, nil, err
	}
	return ds, read, out.Close()
}
