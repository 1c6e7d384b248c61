package main

import (
	"math"
	"testing"
	"time"
)

func distOf(n int) *dist {
	d := &dist{unit: "ms"}
	for i := n; i >= 1; i-- { // unsorted on purpose
		d.add(float64(i))
	}
	return d
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		level      float64
		value      float64
		hasTail    bool
		wantBeyond int
	}{
		{n: 1000, level: 99, value: 990, hasTail: true, wantBeyond: 10},
		{n: 10000, level: 99.9, value: 9990, hasTail: true, wantBeyond: 10},
		{n: 999, level: 95, value: 950, hasTail: true, wantBeyond: 49}, // p99 would leave 9 beyond
		{n: 200, level: 95, value: 190, hasTail: true, wantBeyond: 10},
		{n: 100, level: 90, value: 90, hasTail: true, wantBeyond: 10},
		{n: 40, level: 75, value: 30, hasTail: true, wantBeyond: 10},
		{n: 39, hasTail: false}, // p75 leaves 9 beyond; the median is no tail
		{n: 0, hasTail: false},
	} {
		d := distOf(tc.n)
		lvl, v, ok := d.tail()
		if ok != tc.hasTail {
			t.Fatalf("n=%d: tail ok=%v, want %v", tc.n, ok, tc.hasTail)
		}
		if !ok {
			continue
		}
		if lvl != tc.level || v != tc.value {
			t.Errorf("n=%d: tail p%g=%g, want p%g=%g", tc.n, lvl, v, tc.level, tc.value)
		}
		beyond := 0
		for _, x := range d.vals {
			if x > v {
				beyond++
			}
		}
		if beyond != tc.wantBeyond || beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d (>= %d)", tc.n, beyond, tc.wantBeyond, minBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := distOf(5).median(); m != 3 {
		t.Errorf("median of 1..5 = %g, want 3", m)
	}
	if m := distOf(4).median(); m != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", m)
	}
	if m := distOf(0).median(); !math.IsNaN(m) {
		t.Errorf("median of nothing = %g, want NaN", m)
	}
}

func TestDueTimeLatencyChargesStalls(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 100) // one item every 10ms
	if got := s.due(3); !got.Equal(start.Add(30 * time.Millisecond)) {
		t.Fatalf("due(3) = %v, want start+30ms", got.Sub(start))
	}
	// The generator stalls 25ms at item 1, so items 1..3 go out late
	// and complete 1ms after sending. Latency from the due time keeps
	// the stall; latency from the send time would hide it.
	sent := []time.Duration{0, 35, 36, 37}
	want := []time.Duration{1, 26, 17, 8}
	for i := range sent {
		sentAt := start.Add(sent[i] * time.Millisecond)
		done := sentAt.Add(time.Millisecond)
		if got := dueLatency(s.due(i), done); got != want[i]*time.Millisecond {
			t.Errorf("item %d: latency %v, want %v", i, got, want[i]*time.Millisecond)
		}
	}
	if got := lateness(s.due(1), start.Add(35*time.Millisecond)); got != 25*time.Millisecond {
		t.Errorf("lateness = %v, want 25ms", got)
	}
	if got := lateness(s.due(2), start.Add(15*time.Millisecond)); got != 0 {
		t.Errorf("early send lateness = %v, want 0", got)
	}
}

func TestCPUNsPerReq(t *testing.T) {
	// 250 ticks of USER_HZ=100 is 2.5s of CPU; over 5M requests that
	// is 500ns each.
	got, err := cpuNsPerReq(1000, 1250, 5_000_000)
	if err != nil || got != 500 {
		t.Fatalf("cpuNsPerReq = %g, %v; want 500", got, err)
	}
	if _, err := cpuNsPerReq(10, 5, 1); err == nil {
		t.Error("ticks going backwards must be an error")
	}
	if _, err := cpuNsPerReq(0, 10, 0); err == nil {
		t.Error("zero requests must be an error")
	}
}
