package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// server is one mrserved child process listening on loopback.
type server struct {
	cmd   *exec.Cmd
	base  string
	flags []string
	done  chan error // receives cmd.Wait's result once the process exits
}

// liveServer is the running server child, which exitKillingServer kills
// when a signal or the run watchdog ends the benchmark early.
var liveServer atomic.Pointer[server]

// exitKillingServer kills the live server, if any, and exits with code.
func exitKillingServer(code int) {
	if s := liveServer.Load(); s != nil {
		_ = s.cmd.Process.Kill()
	}
	os.Exit(code)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// startServer execs the mrserved binary with the benchmark's flags and
// waits until /readyz answers 200. The access log goes to the null device.
func startServer(bin string, workers int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	flags := []string{"-addr", "127.0.0.1:" + port, "-pprof-addr", "", "-workers", strconv.Itoa(workers), "-drain-notice", "0s"}
	s := &server{cmd: exec.Command(bin, flags...), base: "http://127.0.0.1:" + port, flags: flags, done: make(chan error, 1)}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	liveServer.Store(s)
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("mrserved exited before ready: %v", err)
		default:
		}
		if resp, err := probe.Get(s.base + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, errors.New("mrserved not ready within 15s")
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain outlasts 20 seconds.
func (s *server) stop() {
	liveServer.CompareAndSwap(s, nil)
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// cpuMillis reads the process's user+system CPU time from /proc.
func (s *server) cpuMillis() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15 (proc(5)).
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) * 1000 / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// peakRSSMB reads VmHWM, the process's peak resident set, from /proc.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serverMetrics is the subset of GET /v1/metrics the benchmark reads.
type serverMetrics struct {
	CacheHits            int64 `json:"cacheHits"`
	CacheMisses          int64 `json:"cacheMisses"`
	ModelOuterIterations int64 `json:"modelOuterIterations"`
	ModelInnerIterations int64 `json:"modelInnerIterations"`
	WarmPredictions      int64 `json:"warmPredictions"`
	Admission            struct {
		ShedQueueFull int64 `json:"shedQueueFull"`
		ShedDeadline  int64 `json:"shedDeadline"`
		ShedDraining  int64 `json:"shedDraining"`
	} `json:"admission"`
}

// sub and add combine counter snapshots into deltas.
func (m serverMetrics) sub(o serverMetrics) serverMetrics { return m.combine(o, -1) }
func (m serverMetrics) add(o serverMetrics) serverMetrics { return m.combine(o, 1) }

func (m serverMetrics) combine(o serverMetrics, sign int64) serverMetrics {
	m.CacheHits += sign * o.CacheHits
	m.CacheMisses += sign * o.CacheMisses
	m.ModelOuterIterations += sign * o.ModelOuterIterations
	m.ModelInnerIterations += sign * o.ModelInnerIterations
	m.WarmPredictions += sign * o.WarmPredictions
	m.Admission.ShedQueueFull += sign * o.Admission.ShedQueueFull
	m.Admission.ShedDeadline += sign * o.Admission.ShedDeadline
	m.Admission.ShedDraining += sign * o.Admission.ShedDraining
	return m
}

func (m serverMetrics) shed() int64 {
	return m.Admission.ShedQueueFull + m.Admission.ShedDeadline + m.Admission.ShedDraining
}

func (s *server) metrics(c *http.Client) (serverMetrics, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+"/v1/metrics", nil)
	if err != nil {
		return serverMetrics{}, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return serverMetrics{}, err
	}
	defer resp.Body.Close()
	var m serverMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return serverMetrics{}, fmt.Errorf("decode /v1/metrics: %w", err)
	}
	return m, nil
}

// conns is the generator's connection budget: at most this many requests
// are in flight at once (the box's CPU count, fixed so runs compare).
const conns = 2

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// outcome is one request's fate. Times are offsets from the phase start:
// due is when the schedule wanted it sent, sent when the generator handed
// it to a connection, done when its response was read.
type outcome struct {
	due, sent, done time.Duration
	status          int
	body            []byte
	err             error // transport error, or a wrong answer found later
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

func send(c *http.Client, base string, req request) (int, []byte, error) {
	resp, err := c.Post(base+kindPaths[req.kind], "application/json", bytes.NewReader(req.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// openLoop sends reqs[i] at arrivals[i] after the phase start whether or not
// earlier requests have finished; a request waits for one of the conns
// connections and its latency counts from its due time. The arrivals lie
// within the phase length d, over which it also returns the interference
// windows.
func openLoop(c *http.Client, base string, reqs []request, arrivals []time.Duration, d time.Duration) ([]outcome, []window) {
	out := make([]outcome, len(reqs))
	work := make(chan int, len(reqs)) // one slot per send: the dispatcher never blocks
	var wg sync.WaitGroup
	t0 := time.Now()
	wins := sampleWindows(t0, d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				o := &out[i]
				o.status, o.body, o.err = send(c, base, reqs[i])
				o.done = time.Since(t0)
			}
		}()
	}
	for i := range reqs {
		if d := arrivals[i] - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		out[i].due = arrivals[i]
		out[i].sent = time.Since(t0)
		work <- i
	}
	close(work)
	wg.Wait()
	return out, <-wins
}

// closedLoop runs conns clients that each send the generator's next request
// as soon as their previous one completes, until d has passed. It also
// returns the interference windows over d.
func closedLoop(c *http.Client, base string, g *generator, d time.Duration) ([]request, []outcome, []window) {
	var (
		mu   sync.Mutex
		reqs []request
		outs []outcome
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	wins := sampleWindows(t0, d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if time.Since(t0) >= d {
					mu.Unlock()
					return
				}
				req := g.next()
				mu.Unlock()
				start := time.Since(t0)
				var o outcome
				o.status, o.body, o.err = send(c, base, req)
				o.due, o.sent, o.done = start, start, time.Since(t0)
				mu.Lock()
				reqs = append(reqs, req)
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return reqs, outs, <-wins
}
