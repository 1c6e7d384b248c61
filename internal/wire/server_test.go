package wire

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"krr/internal/telemetry"
	"krr/internal/trace"
)

// collectSink records every ingested request per tenant.
type collectSink struct {
	mu   sync.Mutex
	got  map[string][]trace.Request
	errs error
}

func (cs *collectSink) IngestBatch(tenant string, reqs []trace.Request) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.got == nil {
		cs.got = make(map[string][]trace.Request)
	}
	cs.got[tenant] = append(cs.got[tenant], reqs...)
	return cs.errs
}

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// TestServerEndToEnd pins the full loop: client frames in, sink batches
// out, every request intact and in order, zero drops when the sink
// keeps up.
func TestServerEndToEnd(t *testing.T) {
	sink := &collectSink{}
	srv, addr := startServer(t, Config{Sink: sink})

	c, err := Dial(addr, "acme")
	if err != nil {
		t.Fatal(err)
	}
	c.Latency = telemetry.NewHistogram(telemetry.ExpBuckets(1e-6, 2, 21))
	want := testReqs(10_000)
	for off := 0; off < len(want); off += 777 {
		end := off + 777
		if end > len(want) {
			end = len(want)
		}
		if err := c.SendBatch(want[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != uint64(len(want)) || st.AckedRequests != uint64(len(want)) {
		t.Fatalf("stats: sent %d acked %d, want %d", st.Requests, st.AckedRequests, len(want))
	}
	if st.DroppedFrames != 0 || st.DroppedRequests != 0 {
		t.Fatalf("unexpected drops: %+v", st)
	}
	// The server has acked every frame, but the last sink call may still
	// be in flight; Close drains the workers.
	srv.Close()
	sink.mu.Lock()
	got := sink.got["acme"]
	sink.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("sink saw %d requests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if srv.Requests() != uint64(len(want)) || srv.Dropped() != 0 {
		t.Fatalf("server counters: requests %d dropped %d", srv.Requests(), srv.Dropped())
	}
	if c.Latency.Count() == 0 {
		t.Fatal("no ack latency samples recorded")
	}
}

// TestServerMultiTenant pins per-connection tenant routing.
func TestServerMultiTenant(t *testing.T) {
	sink := &collectSink{}
	srv, addr := startServer(t, Config{Sink: sink})

	var wg sync.WaitGroup
	for _, tenant := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			c, err := Dial(addr, tenant)
			if err != nil {
				t.Error(err)
				return
			}
			if err := c.SendBatch(testReqs(500)); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.Close(); err != nil {
				t.Error(err)
			}
		}(tenant)
	}
	wg.Wait()
	srv.Close()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, tenant := range []string{"a", "b", "c"} {
		if len(sink.got[tenant]) != 500 {
			t.Fatalf("tenant %q: %d requests, want 500", tenant, len(sink.got[tenant]))
		}
	}
}

// TestServerOverload pins deterministic shedding: a sink stalled behind
// a gate while a client pours in 10x more frames than the queue holds
// must produce counted drops on both sides, bounded queue occupancy,
// and exact conservation (accepted + dropped == sent).
func TestServerOverload(t *testing.T) {
	gate := make(chan struct{})
	var inflight, maxInflight atomic.Int64
	sink := SinkFunc(func(tenant string, reqs []trace.Request) error {
		cur := inflight.Add(1)
		for {
			max := maxInflight.Load()
			if cur <= max || maxInflight.CompareAndSwap(max, cur) {
				break
			}
		}
		<-gate
		inflight.Add(-1)
		return nil
	})
	const depth = 4
	srv, addr := startServer(t, Config{Sink: sink, QueueDepth: depth})

	c, err := Dial(addr, "flood")
	if err != nil {
		t.Fatal(err)
	}
	// 10x oversubscription: far more frames than the queue + worker can
	// hold while the sink is gated shut.
	const frames = 10 * (depth + 1)
	const perFrame = 256
	reqs := testReqs(perFrame)
	for i := 0; i < frames; i++ {
		if err := c.SendBatch(reqs); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the server has acked (accepted or shed) every frame, so
	// the drop accounting below is stable, then open the gate.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Stats()
		if st.AckedFrames+st.DroppedFrames == frames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("acks stalled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()

	if st.DroppedFrames == 0 {
		t.Fatal("10x oversubscription produced no drops")
	}
	if st.AckedFrames+st.DroppedFrames != frames {
		t.Fatalf("conservation: acked %d + dropped %d != sent %d", st.AckedFrames, st.DroppedFrames, frames)
	}
	if st.AckedRequests+st.DroppedRequests != frames*perFrame {
		t.Fatalf("request conservation: %+v", st)
	}
	// Server-side accounting must agree with the client's ack stream.
	if srv.Dropped() != st.DroppedRequests {
		t.Fatalf("server dropped %d, client saw %d", srv.Dropped(), st.DroppedRequests)
	}
	if srv.Requests() != st.AckedRequests {
		t.Fatalf("server accepted %d, client saw %d", srv.Requests(), st.AckedRequests)
	}
	// Boundedness: at most one batch in the sink at a time (per-conn
	// worker is serial), so memory stays queue-capped no matter the
	// oversubscription factor.
	if maxInflight.Load() > 1 {
		t.Fatalf("sink saw %d concurrent batches from one connection", maxInflight.Load())
	}
}

// TestServerSinkError pins the failure path: after the sink errors, the
// server stops accepting frames on that connection and reports
// StatusBad instead of silently dropping.
func TestServerSinkError(t *testing.T) {
	var calls atomic.Int64
	sink := SinkFunc(func(tenant string, reqs []trace.Request) error {
		calls.Add(1)
		return trace.ErrBadFormat
	})
	srv, addr := startServer(t, Config{Sink: sink})

	c, err := Dial(addr, "t")
	if err != nil {
		t.Fatal(err)
	}
	// Keep sending until the error propagates back; the first frame is
	// always accepted (the sink hasn't run yet at admission time).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.SendBatch(testReqs(64)); err != nil {
			break
		}
		if err := c.Flush(); err != nil {
			break
		}
		if ep := c.ackErr.Load(); ep != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sink error never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	st, err := c.Close()
	if err == nil {
		t.Fatalf("Close returned no error after sink failure; stats %+v", st)
	}
	srv.Close()
	if calls.Load() == 0 {
		t.Fatal("sink never called")
	}
	if srv.sinkErrs.Load() == 0 {
		t.Fatal("sink errors not counted")
	}
}

// TestServerBadHeader pins that garbage connections are rejected
// without wedging the accept loop.
func TestServerBadHeader(t *testing.T) {
	sink := &collectSink{}
	srv, addr := startServer(t, Config{Sink: sink})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err != nil || buf[0] != StatusBad {
		t.Fatalf("bad header response: %v %#x", err, buf[0])
	}
	conn.Close()

	// The server survives: a well-formed connection still works.
	c, err := Dial(addr, "ok")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(testReqs(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if srv.badFrames.Load() == 0 {
		t.Fatal("bad header not counted")
	}
}

// TestServerMetricsInto pins that the wire metrics land in a Set.
func TestServerMetricsInto(t *testing.T) {
	sink := &collectSink{}
	srv, addr := startServer(t, Config{Sink: sink})
	set := telemetry.NewSet()
	srv.MetricsInto(set, "wire_")

	c, err := Dial(addr, "m")
	if err != nil {
		t.Fatal(err)
	}
	c.SendBatch(testReqs(100))
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	var sb strings.Builder
	if err := set.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"wire_requests_total 100",
		"wire_connections_total 1",
		"wire_dropped_requests_total 0",
		"wire_ingest_latency_seconds_bucket",
		"wire_ingest_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// ackFirstConn holds every socket write until the client has counted
// the ack of each frame the write completed. That is the interleaving
// a fast server produces when a frame larger than the client's write
// buffer goes straight to the socket and is acked before the write
// call returns.
type ackFirstConn struct {
	net.Conn
	client     *Client
	hdrBytes   int
	frameBytes int
	written    int
}

func (a *ackFirstConn) Write(p []byte) (int, error) {
	n, err := a.Conn.Write(p)
	a.written += n
	frames := uint64((a.written - a.hdrBytes) / a.frameBytes)
	deadline := time.Now().Add(2 * time.Second)
	for a.client.ackedFrames.Load()+a.client.dropFrames.Load() < frames && time.Now().Before(deadline) {
		time.Sleep(20 * time.Microsecond)
	}
	return n, err
}

func (a *ackFirstConn) CloseWrite() error { return a.Conn.(*net.TCPConn).CloseWrite() }

// TestClientCountsAckBeforeWriteReturns sends 4096-record frames, each
// bigger than the client's 64 KiB write buffer, and lets every ack
// arrive before the write returns. The client must still charge each
// ack to its own frame: its acked+dropped totals equal what the server
// accepted and shed.
func TestClientCountsAckBeforeWriteReturns(t *testing.T) {
	srv, addr := startServer(t, Config{Sink: &collectSink{}})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	const tenant, frames, perFrame = "acme", 8, 4096
	reqs := testReqs(perFrame)
	conn := &ackFirstConn{
		Conn:       raw,
		hdrBytes:   headerSize + len(tenant),
		frameBytes: len(AppendFrame(nil, reqs)),
	}
	c, err := NewClient(conn, tenant)
	if err != nil {
		t.Fatal(err)
	}
	conn.client = c
	for i := 0; i < frames; i++ {
		if err := c.SendBatch(reqs); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.AckedFrames+st.DroppedFrames != frames {
		t.Fatalf("acked %d + dropped %d frames, sent %d", st.AckedFrames, st.DroppedFrames, frames)
	}
	got, server := st.AckedRequests+st.DroppedRequests, srv.Requests()+srv.Dropped()
	if got != server || got != frames*perFrame {
		t.Fatalf("client counted %d acked+dropped requests, server accepted+shed %d, sent %d",
			got, server, frames*perFrame)
	}
}
