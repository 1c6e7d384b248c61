package main

import (
	"fmt"

	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/simulator"
	"krr/internal/trace"
	"krr/internal/workload"
)

// Every model is built with this K and seed, and the ground truth is a
// K-LRU simulation at the same K. Only the request streams depend on
// the benchmark's --seed argument.
const (
	modelK    = 5
	modelSeed = 1
	gtPoints  = 25
	gtWorkers = 2
)

// tenantSpec is one hosted model and the workload preset feeding it.
type tenantSpec struct {
	id       string
	model    string
	rate     float64 // spatial sampling rate; 0 = off
	bytes    string  // byte mode; "" = off
	workers  int
	preset   string
	scale    float64
	variable bool
}

// label names the model configuration in metric names: krr-bytes,
// krr-sharded, krr-r0.01, or the bare model name.
func (t tenantSpec) label() string {
	switch {
	case t.bytes != "":
		return t.model + "-bytes"
	case t.workers > 1:
		return t.model + "-sharded"
	case t.rate > 0:
		return fmt.Sprintf("%s-r%g", t.model, t.rate)
	}
	return t.model
}

func (t tenantSpec) options() (model.Options, error) {
	mode, ok := model.ByteModeByName(t.bytes)
	if !ok {
		return model.Options{}, fmt.Errorf("unknown byte mode %q", t.bytes)
	}
	return model.Options{K: modelK, Seed: modelSeed, SamplingRate: t.rate, Bytes: mode, Workers: t.workers}, nil
}

func (t tenantSpec) createBody() map[string]any {
	body := map[string]any{"id": t.id, "model": t.model, "k": modelK, "seed": modelSeed}
	if t.rate > 0 {
		body["rate"] = t.rate
	}
	if t.bytes != "" {
		body["bytes"] = t.bytes
	}
	if t.workers > 1 {
		body["workers"] = t.workers
	}
	return body
}

// streamSeed derives an independent stream seed per tenant index, so
// tenants never share hot sets and one --seed fixes every stream.
func streamSeed(seed uint64, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return x | 1
}

// generate draws n requests from the tenant's preset. The generator is
// never cycled: every request of a run is freshly drawn.
func (t tenantSpec) generate(seed uint64, n int) ([]trace.Request, error) {
	p, ok := workload.ByName(t.preset)
	if !ok {
		return nil, fmt.Errorf("unknown preset %q", t.preset)
	}
	r := p.New(t.scale, seed, t.variable)
	out := make([]trace.Request, n)
	for i := range out {
		req, err := r.Next()
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", t.preset, err)
		}
		out[i] = req
	}
	return out, nil
}

// truth is the exact K-LRU curve of one stream at the evaluation sizes.
type truth struct {
	curve    *mrc.Curve
	sizes    []uint64
	distinct uint64
}

// groundTruth simulates K-LRU over the stream at gtPoints evenly spaced
// sizes up to its working set, in objects or, with bytes, in bytes. A
// stream seen before in the run (the traced replay resends the
// untraced run's streams) reuses its simulation.
func (e *env) groundTruth(reqs []trace.Request, bytes bool) (truth, error) {
	key := streamKey(reqs, bytes)
	if gt, ok := e.truths[key]; ok {
		return gt, nil
	}
	gt, err := simulate(reqs, bytes)
	if err == nil {
		e.truths[key] = gt
	}
	return gt, err
}

// streamKey fingerprints a stream's content with FNV-1a.
func streamKey(reqs []trace.Request, bytes bool) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mix(uint64(len(reqs)))
	if bytes {
		mix(1)
	}
	for _, r := range reqs {
		mix(r.Key)
		mix(uint64(r.Size))
		mix(uint64(r.Op))
	}
	return h
}

func simulate(reqs []trace.Request, bytes bool) (truth, error) {
	tr := &trace.Trace{Reqs: reqs}
	sum, err := trace.Summarize(tr.Reader())
	if err != nil {
		return truth{}, err
	}
	if bytes {
		sizes := mrc.EvenSizes(sum.WSSBytes, gtPoints)
		c, err := simulator.KLRUByteMRC(tr, modelK, sizes, modelSeed, gtWorkers)
		return truth{curve: c, sizes: sizes, distinct: uint64(sum.DistinctObjects)}, err
	}
	sizes := mrc.EvenSizes(uint64(sum.DistinctObjects), gtPoints)
	c, err := simulator.KLRUMRC(tr, modelK, sizes, modelSeed, gtWorkers)
	return truth{curve: c, sizes: sizes, distinct: uint64(sum.DistinctObjects)}, err
}
