package main

import (
	"fmt"

	"krr/internal/difftest"
	"krr/internal/mrc"
)

// gate collects correctness checks and operation failures for the
// failed/attempted tally and the correct flag.
type gate struct {
	attempted uint64
	failed    uint64
	breaches  []string // correctness-gate failures, also counted in failed
	maes      []metric // MAE of every final curve checked
}

func (g *gate) op(err error) bool {
	g.attempted++
	if err != nil {
		g.failed++
		return false
	}
	return true
}

func (g *gate) breach(format string, args ...any) {
	g.attempted++
	g.failed++
	g.breaches = append(g.breaches, fmt.Sprintf(format, args...))
}

func (g *gate) pass() { g.attempted++ }

// frames counts every frame sent as attempted, and every frame shed,
// refused or never acked, or connection errored, as failed.
func (g *gate) frames(w wireTally) {
	g.attempted += w.frames
	g.failed += w.shed + w.bad + w.connErrs
}

func (g *gate) correct() bool { return len(g.breaches) == 0 }

// curve checks a final curve: structural invariants, then MAE against
// the K-LRU ground truth within the model's declared envelope.
func (g *gate) curve(what, modelName string, bytes bool, c *mrc.Curve, gt truth) {
	if err := difftest.CheckCurve(c); err != nil {
		g.breach("%s: curve invariant: %v", what, err)
		return
	}
	env := difftest.Envelope(modelName)
	if bytes {
		env = difftest.ByteEnvelope(modelName)
	}
	mae := mrc.MAE(c, gt.curve, gt.sizes)
	g.maes = append(g.maes, metric{Name: "curve_mae." + what, Unit: "MR", Value: mae, N: len(gt.sizes),
		Note: fmt.Sprintf("%s envelope %.3f", modelName, env)})
	if mae > env {
		g.breach("%s: MAE %.4f vs K-LRU exceeds the %s envelope %.4f", what, mae, modelName, env)
		return
	}
	g.pass()
}

// reportMAE adds every checked curve's MAE, their mean (curve_mae) and
// their maximum (curve_mae_worst). A curve checked on several server
// processes or rounds is listed once, as the mean of its checks. The
// mean is the end-to-end figure: the worst of 16 curves moves with the
// seed far more than the bound a regression check can afford.
func (g *gate) reportMAE(res *result) {
	if len(g.maes) == 0 {
		return
	}
	var sum, worst float64
	var names []string
	byName := map[string][]metric{}
	for _, m := range g.maes {
		sum += m.Value
		worst = max(worst, m.Value)
		if _, ok := byName[m.Name]; !ok {
			names = append(names, m.Name)
		}
		byName[m.Name] = append(byName[m.Name], m)
	}
	for _, name := range names {
		ms := byName[name]
		m := ms[0]
		if len(ms) > 1 {
			var s float64
			for _, c := range ms {
				s += c.Value
			}
			m.Value = s / float64(len(ms))
			m.N *= len(ms)
			m.Note += fmt.Sprintf("; mean of %d checks", len(ms))
		}
		res.Metrics = append(res.Metrics, m)
	}
	res.add("curve_mae", "MR", sum/float64(len(g.maes)), len(g.maes))
	res.add("curve_mae_worst", "MR", worst, len(g.maes))
}
