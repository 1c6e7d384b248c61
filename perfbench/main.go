// Command perfbench is the repository's benchmark. It builds nothing
// itself (run.sh builds it and the programs under test); it generates
// every input from --seed, drives krrserve and krrmrc as child
// processes, checks every output against a K-LRU simulation of the
// exact stream sent, and prints the metrics by name. The last line of
// standard output is one JSON object for machine consumption.
//
// With --trace 1 it first makes the untraced run, then replays the
// workload in-process against the public layer APIs with a span around
// every call, and reports per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// env locates the programs under test and the scratch area.
type env struct {
	krrserve, krrmrc string
	work             string // per-run scratch directory
	reports          string
	truths           map[uint64]truth // ground truth by streamKey
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"samples"`
	Note  string  `json:"note,omitempty"`
}

// metrics is an ordered list of reported numbers.
type metrics []metric

func (ms *metrics) add(name, unit string, v float64, n int) {
	*ms = append(*ms, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (ms metrics) get(name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// addDist reports a timing as its median under p50Name and its tail,
// the highest percentile with at least minBeyond samples beyond it,
// under tailName. It reports false, and no tail, when the sample is too
// small for one.
func (ms *metrics) addDist(p50Name, tailName string, d *dist) bool {
	ms.add(p50Name, d.unit, d.median(), d.n())
	lvl, v, ok := d.tail()
	if ok {
		*ms = append(*ms, metric{Name: tailName, Unit: d.unit, Value: v, N: d.n(),
			Note: fmt.Sprintf("p%g: highest percentile with >= %d samples beyond it", lvl, minBeyond)})
	}
	return ok
}

// result is everything one run measured.
type result struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  int      `json:"seconds"`
	Traced   bool     `json:"traced"`
	Host     host     `json:"host"`
	Metrics  metrics  `json:"metrics"`
	Layers   metrics  `json:"layers,omitempty"`
	Notes    []string `json:"notes,omitempty"`
	Breaches []string `json:"breaches,omitempty"`

	gate gate
}

func (r *result) add(name, unit string, v float64, n int) { r.Metrics.add(name, unit, v, n) }

func (r *result) get(name string) (metric, bool) { return r.Metrics.get(name) }

// addDist reports a timing as <base>_p50_<unit> and <base>_tail_<unit>,
// or, when the sample is too small for a tail, its median only and a
// note saying so.
func (r *result) addDist(base string, d *dist) {
	if !r.Metrics.addDist(base+"_p50_"+d.unit, base+"_tail_"+d.unit, d) {
		r.note("%s: %d samples, too few for a tail with %d beyond it; median only", base, d.n(), minBeyond)
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its untraced run. BENCHMARK.json
// records why each was chosen.
var workloads = map[string]func(*env, uint64, int, *result) error{
	"ingest":  runIngest,
	"fleet":   runFleet,
	"offline": runOffline,
}

// endToEnd maps the benchmark's end-to-end metric names to the metric
// of each workload that fills them; see README.md for the definitions.
var endToEnd = map[string]map[string]string{
	"setup_s":        {"ingest": "setup_s", "fleet": "setup_s", "offline": "setup_s"},
	"cpu_ns_per_req": {"ingest": "ingest_cpu_ns_per_req", "fleet": "preload_cpu_ns_per_req", "offline": "mrc_build_cpu_ns_per_req"},
	"op_p50_ms":      {"ingest": "ingest_ack_p50_ms", "fleet": "read_pass_p50_ms", "offline": "mrc_build_round_p50_ms"},
	"curve_mae":      {"ingest": "curve_mae", "fleet": "curve_mae", "offline": "curve_mae"},
	"peak_rss_mib":   {"ingest": "peak_rss_mib", "fleet": "peak_rss_mib", "offline": "peak_rss_mib"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest, fleet or offline")
		seed    = flag.Uint64("seed", 1, "seed every input stream is generated from")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		traced  = flag.Int("trace", 0, "1 = also replay in-process with spans and report per-layer metrics")
		bin     = flag.String("bin", "", "directory holding the krrserve and krrmrc binaries")
		work    = flag.String("work", ".bench_build", "scratch directory")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {ingest|fleet|offline}, --seconds >= 1, --trace {0|1}\n")
		os.Exit(2)
	}
	e := &env{
		krrserve: filepath.Join(*bin, "krrserve"),
		krrmrc:   filepath.Join(*bin, "krrmrc"),
		work:     filepath.Join(*work, "run", fmt.Sprintf("%s-%d-%d", *name, *seed, *traced)),
		reports:  filepath.Join(*work, "reports"),
		truths:   make(map[uint64]truth),
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(e.reports, 0o755); err != nil {
		fatal(err)
	}
	res := &result{Workload: *name, Seed: *seed, Seconds: *seconds, Traced: *traced == 1, Host: fingerprint()}
	if err := run(e, *seed, *seconds, res); err != nil {
		fatal(fmt.Errorf("%s: %w", *name, err))
	}
	if res.Traced {
		if err := runTraced(e, *seed, *seconds, res); err != nil {
			fatal(fmt.Errorf("%s traced: %w", *name, err))
		}
	}
	res.Breaches = res.gate.breaches
	if err := finish(e, res); err != nil {
		fatal(err)
	}
	if !res.gate.correct() {
		os.Exit(1)
	}
}

// finish prints the human-readable report, writes the JSON report and
// prints the one-line result last.
func finish(e *env, res *result) error {
	h := res.Host
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", res.Workload, res.Seed, res.Seconds, res.Traced)
	fmt.Printf("host: %d vCPU, %s, %s, commit %s, sources %s\n", h.VCPUs, h.CPUModel, h.GoVersion, h.Commit, h.SourceDigest)
	for _, m := range res.Metrics {
		line := fmt.Sprintf("  %-32s %14.6g %-6s n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
	}
	if len(res.Layers) > 0 {
		fmt.Println("per-layer (in-process replay, spans around each public call):")
		for _, m := range res.Layers {
			fmt.Printf("  %-40s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, n := range res.Notes {
		fmt.Println("note: " + n)
	}
	g := &res.gate
	frac := float64(g.failed) / float64(max(g.attempted, 1))
	fmt.Printf("failed_frac %.6g ratio (%d failed of %d attempted)\n", frac, g.failed, g.attempted)
	for _, b := range g.breaches {
		fmt.Println("CORRECTNESS FAILURE: " + b)
	}

	out := map[string]any{}
	if res.Traced {
		for _, m := range res.Layers {
			out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	} else {
		for name, per := range endToEnd {
			m, ok := res.get(per[res.Workload])
			if !ok {
				return fmt.Errorf("metric %s (%s) was not measured", name, per[res.Workload])
			}
			out[name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.reports, fmt.Sprintf("%s-seed%d-trace%v.json", res.Workload, res.Seed, res.Traced))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("report: " + path)
	line, err := json.Marshal(map[string]any{
		"correct": g.correct(), "attempted": g.attempted, "failed": g.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
