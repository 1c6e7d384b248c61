package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"krr/internal/model"
	"krr/internal/trace"
	"krr/internal/wire"
)

// startWireTest opens a wire listener over a test server on a loopback
// port and returns its address.
func startWireTest(t *testing.T, s *server) (*wire.Server, string) {
	t.Helper()
	wsrv, err := wire.NewServer(wire.Config{Sink: fleetSink{s: s}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go wsrv.Serve(ln)
	t.Cleanup(func() { wsrv.Close() })
	wsrv.MetricsInto(s.set, "wire_")
	return wsrv, ln.Addr().String()
}

// TestWireIngestEndToEnd drives the binary ingest plane into the fleet
// and reads the result back over the HTTP API: tenant auto-created,
// every request counted once in wire_ metrics and not in the HTTP
// ingest counter.
func TestWireIngestEndToEnd(t *testing.T) {
	s, ts := testServer(t, model.Options{K: 5, Seed: 1})
	wsrv, addr := startWireTest(t, s)

	c, err := wire.Dial(addr, "wire-tenant")
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]trace.Request, 5000)
	for i := range reqs {
		reqs[i] = trace.Request{Key: uint64(i % 700), Size: 100, Op: trace.OpGet}
	}
	for off := 0; off < len(reqs); off += 512 {
		end := off + 512
		if end > len(reqs) {
			end = len(reqs)
		}
		if err := c.SendBatch(reqs[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.AckedRequests != uint64(len(reqs)) || st.DroppedRequests != 0 {
		t.Fatalf("stats %+v", st)
	}
	wsrv.Close() // drain queued frames into the fleet

	resp := get(t, ts.URL+"/tenants/wire-tenant/stats")
	var stats struct {
		Seen uint64 `json:"seen"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Seen != uint64(len(reqs)) {
		t.Fatalf("tenant saw %d requests, want %d", stats.Seen, len(reqs))
	}

	resp = get(t, ts.URL+"/metrics")
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("wire_requests_total %d", len(reqs)),
		"wire_dropped_requests_total 0",
		"wire_ingest_latency_seconds_bucket",
		"krrserve_ingest_requests_total 0", // HTTP ingest only

	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// The curve is readable and non-trivial.
	resp = get(t, ts.URL+"/tenants/wire-tenant/mrc?size=350")
	var mr struct {
		MissRatio float64 `json:"miss_ratio"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.MissRatio <= 0 || mr.MissRatio >= 1 {
		t.Fatalf("miss ratio %v out of (0, 1)", mr.MissRatio)
	}
}

// TestWireIngestAfterFinalize pins the shutdown path: once the server
// finalizes, wire frames are rejected (sink error -> StatusBad) rather
// than silently absorbed.
func TestWireIngestAfterFinalize(t *testing.T) {
	s, _ := testServer(t, model.Options{})
	_, addr := startWireTest(t, s)
	s.final.Store(true)

	c, err := wire.Dial(addr, "late")
	if err != nil {
		t.Fatal(err)
	}
	reqs := []trace.Request{{Key: 1, Size: 1, Op: trace.OpGet}}
	// Frames are acked at admission, so the sink error surfaces only
	// after the worker touches the first frame: keep sending until the
	// failure propagates back (StatusBad kills the ack stream).
	deadline := time.Now().Add(5 * time.Second)
	var sendErr error
	for time.Now().Before(deadline) {
		if sendErr = c.SendBatch(reqs); sendErr != nil {
			break
		}
		if sendErr = c.Flush(); sendErr != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	_, closeErr := c.Close()
	if sendErr == nil && closeErr == nil {
		t.Fatal("wire ingest into a finalized server reported no error")
	}
	if _, ok := s.reg.Get("late"); ok {
		t.Fatal("finalized server still created the tenant")
	}
}
