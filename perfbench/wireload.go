package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"krr/internal/trace"
	"krr/internal/wire"
)

// frameRecords is the wire frame size. A 4096-record frame is 65,540
// bytes, larger than wire.Client's 64 KiB write buffer, which is what
// exposes that client's ack-accounting race; the benchmark keeps the
// size so the defect stays measurable.
const frameRecords = 4096

// frameRec is one frame's life on a connection. n and due are recorded
// before the frame's bytes are written, so an ack can never arrive for
// a frame the generator has not accounted for.
type frameRec struct {
	n      int
	due    time.Time
	sent   time.Time
	acked  time.Time
	status byte
}

// connPlan is one open-loop wire connection: a tenant, its uncycled
// stream, and a paced rate in requests per second.
type connPlan struct {
	tenant string
	reqs   []trace.Request
	rate   float64
}

func (p connPlan) frames() int { return (len(p.reqs) + frameRecords - 1) / frameRecords }

// connRun is what one connection observed.
type connRun struct {
	plan   connPlan
	frames []frameRec
	acks   int
	err    error
}

// driveConns runs every plan at once and returns when the server has
// acked every frame and closed each connection. One goroutine sends
// all frames in due-time order, so two connections' frames never go out
// in the same timer wake-up; connection i's schedule starts i/n of a
// frame interval after the first. One goroutine per connection reads
// its acks.
func driveConns(addr string, plans []connPlan) []connRun {
	runs := make([]connRun, len(plans))
	conns := make([]net.Conn, len(plans))
	sendErrs := make([]error, len(plans))
	ackErrs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i, p := range plans {
		runs[i] = connRun{plan: p, frames: make([]frameRec, p.frames())}
		conn, err := dialWire(addr, p.tenant)
		if err != nil {
			sendErrs[i] = err
			continue
		}
		conns[i] = conn
		wg.Add(1)
		go func() {
			defer wg.Done()
			ackErrs[i] = readAcks(conn, &runs[i])
		}()
	}

	start := time.Now().Add(20 * time.Millisecond)
	scheds := make([]schedule, len(plans))
	next := make([]int, len(plans))
	for i, p := range plans {
		offset := time.Duration(float64(time.Second) * frameRecords / p.rate * float64(i) / float64(len(plans)))
		scheds[i] = newSchedule(start.Add(offset), p.rate/frameRecords)
	}
	buf := make([]byte, 0, 4+frameRecords*wire.RecordSize)
	for {
		c := -1
		for i := range plans {
			if conns[i] != nil && sendErrs[i] == nil && next[i] < len(runs[i].frames) &&
				(c < 0 || scheds[i].due(next[i]).Before(scheds[c].due(next[c]))) {
				c = i
			}
		}
		if c < 0 {
			break
		}
		k := next[c]
		next[c]++
		lo := k * frameRecords
		hi := min(lo+frameRecords, len(plans[c].reqs))
		f := &runs[c].frames[k]
		f.n = hi - lo
		f.due = scheds[c].due(k)
		if d := time.Until(f.due); d > 0 {
			time.Sleep(d)
		}
		buf = wire.AppendFrame(buf[:0], plans[c].reqs[lo:hi])
		f.sent = time.Now()
		if _, err := conns[c].Write(buf); err != nil {
			sendErrs[c] = err
		}
	}
	for i, conn := range conns {
		if conn == nil {
			continue
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil && sendErrs[i] == nil {
			sendErrs[i] = err
		}
	}
	wg.Wait()
	for i := range runs {
		if conns[i] != nil {
			conns[i].Close()
		}
		r := &runs[i]
		r.err = errors.Join(sendErrs[i], ackErrs[i])
		if r.err == nil && r.acks != len(r.frames) {
			r.err = fmt.Errorf("%d of %d frames acked", r.acks, len(r.frames))
		}
	}
	return runs
}

// dialWire connects and writes the wire header for tenant.
func dialWire(addr, tenant string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	var hdr bytes.Buffer
	if err := wire.WriteHeader(&hdr, tenant); err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := conn.Write(hdr.Bytes()); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// readAcks records each ack's arrival and status against the next
// frame of run, until the server closes the connection.
func readAcks(conn net.Conn, run *connRun) error {
	br := bufio.NewReaderSize(conn, 1<<12)
	for {
		st, err := br.ReadByte()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("ack stream: %w", err)
		}
		if run.acks >= len(run.frames) {
			return errors.New("ack for a frame never sent")
		}
		f := &run.frames[run.acks]
		f.acked = time.Now()
		f.status = st
		run.acks++
	}
}

// wireTally folds connection runs into ack latency, generator lateness
// and frame outcomes.
type wireTally struct {
	ack, late            dist
	frames, shed, bad    uint64
	connErrs, okRequests uint64
}

func tallyWire(runs []connRun) wireTally {
	t := wireTally{ack: dist{unit: "ms"}, late: dist{unit: "ms"}}
	for _, r := range runs {
		if r.err != nil {
			t.connErrs++
		}
		for _, f := range r.frames[:r.acks] {
			t.frames++
			t.late.add(ms(lateness(f.due, f.sent)))
			switch f.status {
			case wire.StatusOK:
				t.okRequests += uint64(f.n)
				t.ack.add(ms(dueLatency(f.due, f.acked)))
			case wire.StatusOverloaded:
				t.shed++
			default:
				t.bad++
			}
		}
		// Frames the server never acked count as failed too.
		t.bad += uint64(len(r.frames) - r.acks)
		t.frames += uint64(len(r.frames) - r.acks)
	}
	return t
}

// accepted returns the requests of a run's frames the server accepted,
// in stream order: the exact stream the tenant's model saw.
func (r connRun) accepted() []trace.Request {
	out := make([]trace.Request, 0, len(r.plan.reqs))
	for i, f := range r.frames[:r.acks] {
		if f.status == wire.StatusOK {
			lo := i * frameRecords
			out = append(out, r.plan.reqs[lo:lo+f.n]...)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
