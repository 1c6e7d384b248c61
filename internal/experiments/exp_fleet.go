package experiments

import (
	"fmt"

	"krr/internal/fleet"
	"krr/internal/model"
	"krr/internal/simulator"
	"krr/internal/trace"
	"krr/internal/workload"
)

func init() {
	register(Experiment{
		ID:          "ext.fleet",
		Title:       "Fleet advisor: waterfill partitioning vs naive splits",
		Description: "Three tenants with distinct MRC shapes share one cache budget; the marginal-gain waterfill over live KRR curves vs proportional-by-traffic and uniform splits, validated against full K-LRU simulation.",
		Run:         runExtFleet,
	})
}

// runExtFleet mirrors three shape-diverse tenant workloads into a
// fleet registry of KRR shadow models, asks the optimizer to partition
// a shared budget, and then *simulates* each tenant's K-LRU cache at
// its allocated capacity to check the advised split against ground
// truth.
func runExtFleet(opt Options) (*Result, error) {
	const k = 5
	n := int(float64(200_000) * opt.ReqFraction)
	if opt.MaxRequests > 0 && n*3 > opt.MaxRequests {
		n = opt.MaxRequests / 3
	}

	// Distinct curve shapes so the split matters: a skewed tenant whose
	// gains concentrate in a small hot set, a broad uniform tenant with
	// shallow gains, and a loop tenant whose curve is a cliff at its
	// working-set size.
	// Uneven traffic (3:2:1) separates the proportional baseline from
	// the uniform one.
	tenants := []struct {
		id   string
		reqs int
		mk   func() trace.Reader
	}{
		{"hot", n * 3 / 2, func() trace.Reader {
			return workload.NewZipf(opt.Seed, scaledKeys(20_000, opt), 1.1, nil, 0)
		}},
		{"broad", n, func() trace.Reader {
			g := workload.NewUniform(opt.Seed+1, scaledKeys(200_000, opt), nil)
			g.SetKeySpace(1 << 40)
			return g
		}},
		{"loop", n / 2, func() trace.Reader {
			g := workload.NewLoop(scaledKeys(50_000, opt), nil)
			g.SetKeySpace(2 << 40)
			return g
		}},
	}

	reg := fleet.NewRegistry(fleet.Config{
		Default: fleet.Spec{Model: "krr", Options: model.Options{K: k, Seed: opt.Seed}},
	})
	traces := make(map[string]*trace.Trace, len(tenants))
	var distinct uint64
	for _, ten := range tenants {
		tr, err := trace.Collect(ten.mk(), ten.reqs)
		if err != nil {
			return nil, err
		}
		traces[ten.id] = tr
		sum, err := trace.Summarize(tr.Reader())
		if err != nil {
			return nil, err
		}
		distinct += uint64(sum.DistinctObjects)
		if _, err := reg.Ingest(ten.id, tr.Reader()); err != nil {
			return nil, err
		}
	}

	// A budget that forces triage: roughly a third of the combined
	// working set, so no split can fit everyone.
	budget := distinct * 35 / 100
	wf, demands, err := reg.Allocate(budget, "objects")
	if err != nil {
		return nil, err
	}
	if err := wf.Feasible(); err != nil {
		return nil, fmt.Errorf("waterfill plan infeasible: %w", err)
	}
	plans := []fleet.Plan{wf, fleet.ProportionalSplit(demands, budget), fleet.UniformSplit(demands, budget)}

	// Ground truth: run each tenant's real K-LRU at its allocated
	// capacity and aggregate misses over the whole fleet's traffic.
	simulated := func(p fleet.Plan) (float64, error) {
		var misses, total uint64
		for _, a := range p.Allocations {
			tr := traces[a.Tenant]
			reqs := uint64(tr.Len())
			total += reqs
			if a.Capacity == 0 {
				misses += reqs // no cache: everything misses
				continue
			}
			cache := simulator.NewKLRU(simulator.ObjectCapacity(int(a.Capacity)), k, true, opt.Seed)
			st, err := simulator.Run(cache, tr.Reader())
			if err != nil {
				return 0, err
			}
			misses += st.Misses
		}
		if total == 0 {
			return 0, nil
		}
		return float64(misses) / float64(total), nil
	}

	table := Table{
		Title: fmt.Sprintf("Shared budget %d objects over 3 tenants (traffic %d/%d/%d, K=%d)",
			budget, n*3/2, n, n/2, k),
		Columns: []string{"policy", "hot", "broad", "loop", "predicted miss", "simulated miss"},
	}
	for _, p := range plans {
		byTenant := map[string]fleet.Allocation{}
		for _, a := range p.Allocations {
			byTenant[a.Tenant] = a
		}
		sim, err := simulated(p)
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, []string{
			p.Method,
			fmt.Sprintf("%d", byTenant["hot"].Capacity),
			fmt.Sprintf("%d", byTenant["broad"].Capacity),
			fmt.Sprintf("%d", byTenant["loop"].Capacity),
			f4(p.AggregateMiss),
			f4(sim),
		})
	}
	return &Result{
		Tables: []Table{table},
		Notes: []string{
			"the waterfill row must carry the lowest predicted aggregate miss by construction; the simulated column validates the advice end to end against real K-LRU caches",
			"expected shape: waterfill starves the shallow broad tenant to fund the hot tenant's steep head and the loop tenant's cliff, which naive splits cannot do",
		},
	}, nil
}
