package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles a tail can be reported at, highest
// first. A timing's tail is the highest level that leaves at least
// minBeyond samples above it, so the figure never rests on a handful
// of outliers. The median is reported separately, so it is no tail.
var tailLevels = []float64{99.9, 99, 95, 90, 75}

// minBeyond is the number of samples that must lie beyond a reported
// percentile.
const minBeyond = 10

// dist is a set of timing samples in one unit.
type dist struct {
	unit string
	vals []float64
}

func (d *dist) add(v float64) { d.vals = append(d.vals, v) }

func (d *dist) n() int { return len(d.vals) }

func (d *dist) sorted() []float64 {
	if !sort.Float64sAreSorted(d.vals) {
		sort.Float64s(d.vals)
	}
	return d.vals
}

// median returns the sample median (mean of the middle pair for an
// even count), or NaN for no samples.
func (d *dist) median() float64 {
	s := d.sorted()
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest percentile level with at least minBeyond
// samples beyond it and the nearest-rank value at that level. ok is
// false when the sample is too small for any level above the median.
func (d *dist) tail() (level, value float64, ok bool) {
	s := d.sorted()
	n := len(s)
	for _, p := range tailLevels {
		idx := nearestRank(p, n)
		if idx >= 0 && n-1-idx >= minBeyond {
			return p, s[idx], true
		}
	}
	return 0, math.NaN(), false
}

// nearestRank is the 0-based index of the p-th percentile of n sorted
// samples under the nearest-rank definition: the smallest value with at
// least p% of the samples at or below it.
func nearestRank(p float64, n int) int {
	if n == 0 {
		return -1
	}
	// The epsilon keeps p*n/100 from rounding up past an exact rank
	// (99.9% of 10000 is 9990.000000000002 in floating point).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r - 1
}

// summary renders "median <v> <unit>, p<lvl> <v> (n=<n>)", or says that
// only the median is reported.
func (d *dist) summary() string {
	if d.n() == 0 {
		return "no samples"
	}
	if lvl, v, ok := d.tail(); ok {
		return fmt.Sprintf("median %.4g %s, p%g %.4g %s (n=%d)", d.median(), d.unit, lvl, v, d.unit, d.n())
	}
	return fmt.Sprintf("median %.4g %s (n=%d; too few samples for a tail with %d beyond it, median only)",
		d.median(), d.unit, d.n(), minBeyond)
}

// schedule is an open-loop send plan: item i is due at start +
// i*interval, whether or not earlier items have completed.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func newSchedule(start time.Time, itemsPerSecond float64) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / itemsPerSecond)}
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// dueLatency is the open-loop latency of an item: completion measured
// from when it was due, not from when it was sent, so a stall is
// charged to every item that queued behind it.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// lateness is how far behind its schedule the generator sent an item;
// an item sent early counts as on time.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// Linux fixes it at 100 for every architecture's user ABI.
const clockTicks = 100

// cpuNsPerReq converts a CPU-time delta in clock ticks into nanoseconds
// per request processed over the same interval.
func cpuNsPerReq(ticksBefore, ticksAfter, requests uint64) (float64, error) {
	if ticksAfter < ticksBefore {
		return 0, fmt.Errorf("cpu ticks went backwards: %d -> %d", ticksBefore, ticksAfter)
	}
	if requests == 0 {
		return 0, fmt.Errorf("no requests processed")
	}
	ns := float64(ticksAfter-ticksBefore) * (1e9 / clockTicks)
	return ns / float64(requests), nil
}
