package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// command builds a child that dies with the benchmark, whose standard
// error goes to logPath.
func command(logPath, bin string, args ...string) (*exec.Cmd, *os.File, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd, logf, nil
}

// server is one krrserve child process.
type server struct {
	cmd     *exec.Cmd
	logf    *os.File
	httpURL string
	tcpAddr string
	client  *http.Client
}

// startServer launches krrserve with HTTP and wire listeners on free
// loopback ports and returns once /healthz answers.
func startServer(env *env, tag string) (*server, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	tcpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd, logf, err := command(filepath.Join(env.work, "krrserve-"+tag+".log"), env.krrserve,
		"-addr", httpAddr, "-tcp", tcpAddr, "-final", filepath.Join(env.work, "krrserve-"+tag+".final.json"))
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start krrserve: %w", err)
	}
	// One keep-alive connection: the generator's HTTP side never opens
	// a second one.
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	s := &server{cmd: cmd, logf: logf, httpURL: "http://" + httpAddr, tcpAddr: tcpAddr,
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := s.client.Get(s.httpURL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("krrserve not healthy after 20s: %v", err)
		}
		// Poll finely: a whole set-up takes a few milliseconds.
		time.Sleep(100 * time.Microsecond)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks krrserve to shut down, kills it if it lingers, and waits
// for it to exit.
func (s *server) stop() {
	if s.cmd.ProcessState == nil {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = s.cmd.Wait() // exit status after SIGTERM carries no information
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-done
		}
	}
	s.client.CloseIdleConnections()
	s.logf.Close()
}

// do sends one request and decodes a JSON answer into out (nil skips
// decoding). A non-2xx status is an error carrying the body.
func (s *server) do(method, path, ctype string, body io.Reader, out any) error {
	req, err := http.NewRequest(method, s.httpURL+path, body)
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// createTenant registers a tenant over POST /tenants.
func (s *server) createTenant(t tenantSpec) error {
	body, err := json.Marshal(t.createBody())
	if err != nil {
		return err
	}
	return s.do("POST", "/tenants", "application/json", bytes.NewReader(body), nil)
}

// seen returns a tenant's ingested request count from /stats.
func (s *server) seen(id string) (uint64, error) {
	var st struct {
		Seen uint64 `json:"seen"`
	}
	err := s.do("GET", "/tenants/"+id+"/stats", "", nil, &st)
	return st.Seen, err
}

// metrics scrapes the unlabeled series of /metrics.
func (s *server) metrics() (map[string]float64, error) {
	resp, err := s.client.Get(s.httpURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// parseProm reads the unlabeled samples of a Prometheus text
// exposition.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// procCPUTicks returns user+system CPU time of pid in clock ticks from
// /proc/<pid>/stat.
func procCPUTicks(pid int) (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields are counted from the last ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// procPeakRSSMiB returns VmHWM, the peak resident set of pid, in MiB.
func procPeakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
