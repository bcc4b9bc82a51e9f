// Command perfbench is the repository benchmark. It starts the mrserved
// built from the tree under test as a loopback subprocess, drives it from
// this single process with a seeded workload, checks the answers, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of an
// in-process traced run) as one JSON line. Run it through run.sh, which
// builds both binaries first:
//
//	bash perfbench/run.sh --workload predict-miss --seed 1 --seconds 50 --trace 0
//
// Each run sets the server up five times and reports the median set-up
// time. It then alternates five cycles of an open-loop segment at the rate
// fixed in workloads (three quarters of the time) and a closed-loop segment
// of conns clients that measures capacity (one quarter). Latency
// percentiles and server CPU per request are taken over every open-loop
// request and capacity over every closed-loop segment. Latency, capacity
// and set-up time are scaled to steal-free time, removing the CPU time the
// hypervisor gave to other tenants (see steal.go), and every time metric
// is divided by the host's slowdown, measured on fixed reference work (see
// probe.go). A correctness gate runs after the timed phases.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"hadoop2perf/internal/service"
	"hadoop2perf/internal/trace"
)

// workloadDef is one benchmark workload. The rate, latency limit and mix
// are fixed here and restated in the workload's "why" in BENCHMARK.json.
type workloadDef struct {
	name string
	// rate is the open-loop arrival rate (req/s): about a seventh of the
	// seed tree's capacity_rps on a 2-vCPU box. At higher load, queueing
	// multiplied the latency that CPU steal on a shared host adds.
	rate float64
	// limitMS is the latency limit within_limit_frac counts against.
	limitMS float64
	newGen  func(seed uint64, traces []calibrationTrace) *generator
	// warmup is how many requests of a differently-seeded stream set-up
	// sends before timing, so lazy allocation and pools are settled.
	warmup int
}

var workloads = []*workloadDef{
	{name: "predict-miss", rate: 80, limitMS: 200, warmup: 200,
		newGen: func(seed uint64, _ []calibrationTrace) *generator { return newMissGen(seed) }},
	{name: "plan-sim-calibrate", rate: 50, limitMS: 400, warmup: 100, newGen: newPSCGen},
}

func findWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"within_limit_frac", "frac"},
	{"capacity_rps", "1/s"},
	{"server_cpu_ms_per_req", "ms"},
	{"server_rss_mb", "MB"},
	{"success_frac", "frac"},
}

var perLayer = []metricDef{
	{"service.cache_hit_ratio", "frac"},
	{"service.misses_per_req", "count"},
	{"service.predicts_per_plan", "count"},
	{"service.http_self_us", "us"},
	{"service.predict_hit_us", "us"},
	{"service.predict_miss_ms", "ms"},
	{"service.plan_ms", "ms"},
	{"service.simulate_ms", "ms"},
	{"service.calibrate_ms", "ms"},
	{"admit.admit_done_ns", "ns"},
	{"admit.shed_frac", "frac"},
	{"core.predict_ms", "ms"},
	{"core.allocs_per_predict", "count"},
	{"core.bytes_per_predict", "B"},
	{"core.outer_iters_per_miss", "count"},
	{"core.inner_iters_per_miss", "count"},
	{"core.warm_share", "frac"},
	{"core.self_ms", "ms"},
	{"timeline.build_us", "us"},
	{"timeline.allocs_per_build", "count"},
	{"ptree.build_us", "us"},
	{"ptree.allocs_per_build", "count"},
	{"mva.step_us", "us"},
	{"mva.sweep_ns", "ns"},
	{"workflow.schedule_us", "us"},
	{"mrsim.run_ms", "ms"},
	{"mrsim.events_per_run", "count"},
	{"mrsim.event_ns", "ns"},
	{"trace.fit_ms", "ms"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.failed_frac", "frac"},
	{"bench.latency_samples", "count"},
}

// runLimit bounds one run's wall time.
const runLimit = 170 * time.Second

// setupRounds is how many times a run sets the server up; setup_s is the
// median.
const setupRounds = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (predict-miss, plan-sim-calibrate)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 50, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 = report per-layer metrics from the traced run")
		bin     = flag.String("server", "", "path to the mrserved binary under test")
		out     = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	// The generator keeps every response for the correctness checks; a
	// lazier collector keeps its GC from competing with the server.
	debug.SetGCPercent(400)
	// A run ends within runLimit even if the server hangs, and an
	// interrupted run takes its server down with it.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		exitKillingServer(1)
	})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		exitKillingServer(1)
	}()
	res, info, err := run(*name, *seed, *seconds, *traced == 1, *bin, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(info)
	_ = enc.Encode(res)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed")
		os.Exit(1)
	}
}

// runInfo is the line printed before the result: the environment record
// and the run's sample sizes, so numbers from different boxes never mix.
type runInfo struct {
	Env      map[string]any `json:"env"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	RateRPS  float64        `json:"rate_rps"`
	LimitMS  float64        `json:"limit_ms"`
	Samples  int            `json:"latency_samples"`
	LateP50  float64        `json:"gen_late_p50_ms"`
	LateP99  float64        `json:"gen_late_p99_ms"`
	// Stolen is the share of the CPU time the VM wanted during the timed
	// phases that the hypervisor gave to other tenants, from which the
	// steal-free metrics are scaled.
	Stolen float64 `json:"stolen_frac"`
	// ProbeMS is the reference work's median CPU time and Slowdown its
	// ratio to refMS, by which the time metrics are divided (see probe.go).
	ProbeMS  float64 `json:"probe_cpu_ms"`
	Slowdown float64 `json:"slowdown"`
	// Unscaled holds the time metrics as the clocks read them, before the
	// steal scaling and the slowdown.
	Unscaled map[string]float64 `json:"unscaled"`
	Closed   int                `json:"closed_loop_requests"`
	// ByKind summarises the open-loop latency of each request kind.
	ByKind  map[string]kindLatency `json:"latency_by_kind"`
	Checked int                    `json:"gate_checked"`
	Wrong   int                    `json:"gate_wrong"`
	Errors  []string               `json:"errors,omitempty"`
	Notes   string                 `json:"notes,omitempty"`
}

func run(name string, seed uint64, seconds int, traced bool, bin, outDir string) (result, runInfo, error) {
	w, err := findWorkload(name)
	if err != nil {
		return result{}, runInfo{}, err
	}
	if bin == "" || seconds < 1 {
		return result{}, runInfo{}, errors.New("need -server and a positive -seconds")
	}
	info := runInfo{Workload: name, Seed: seed, RateRPS: w.rate, LimitMS: w.limitMS}
	client := newClient()

	prb := startProber()
	// Set-up: exec → /readyz → priming, setupRounds times; the last server
	// stays up for the run.
	var (
		setups, wallSetups []float64
		srv                *server
		traces             []calibrationTrace
		vers               map[int64]int
	)
	for i := 0; i < setupRounds; i++ {
		if srv != nil {
			srv.stop()
		}
		start, t0 := time.Now(), hostTicks()
		if srv, err = startServer(bin, runtime.NumCPU()); err != nil {
			return result{}, info, err
		}
		if traces, vers, err = prime(w, seed, client, srv); err != nil {
			srv.stop()
			return result{}, info, fmt.Errorf("prime: %w", err)
		}
		d := time.Since(start)
		setups = append(setups, d.Seconds()*ticksWindow(t0, hostTicks(), d).got())
		wallSetups = append(wallSetups, d.Seconds())
	}
	defer srv.stop()
	info.Env = environment(srv, client)

	// The timed part alternates cycles of an open-loop segment at the fixed
	// rate and a closed-loop segment. The open-loop requests are drawn up
	// front, so they are the same for a seed however many requests the
	// timing-dependent closed loops draw after them.
	gen := w.newGen(seed, traces)
	total := time.Duration(seconds) * time.Second
	openSeg, closedSeg := total*3/4/cycles, total/4/cycles
	perSeg := int(w.rate * openSeg.Seconds())
	if perSeg*cycles < minSamples {
		return result{}, info, fmt.Errorf("%d open-loop requests at %v req/s: need %d, raise --seconds",
			perSeg*cycles, w.rate, minSamples)
	}
	reqs := gen.take(cycles * perSeg)
	var (
		outs, closedOuts     []outcome
		closedReqs           []request
		openWins, closedWins [][]window
		openLens, closedLens []int
		cpuMS                float64
		work                 serverMetrics // counter deltas over the open-loop segments
	)
	for c := 0; c < cycles; c++ {
		m0, err := srv.metrics(client)
		if err != nil {
			return result{}, info, err
		}
		cpu0, err := srv.cpuMillis()
		if err != nil {
			return result{}, info, err
		}
		o, ow := openLoop(client, srv.base, reqs[c*perSeg:(c+1)*perSeg], arrivalTimes(seed, uint64(c), perSeg, openSeg), openSeg)
		outs, openWins, openLens = append(outs, o...), append(openWins, ow), append(openLens, len(o))
		cpu1, err := srv.cpuMillis()
		if err != nil {
			return result{}, info, err
		}
		m1, err := srv.metrics(client)
		if err != nil {
			return result{}, info, err
		}
		cpuMS += cpu1 - cpu0
		work = work.add(m1.sub(m0))
		cr, co, cw := closedLoop(client, srv.base, gen, closedSeg)
		closedReqs, closedOuts = append(closedReqs, cr...), append(closedOuts, co...)
		closedWins, closedLens = append(closedWins, cw), append(closedLens, len(co))
	}
	info.ProbeMS = prb.finish()
	info.Slowdown = info.ProbeMS / refMS
	rss, err := srv.peakRSSMB()
	if err != nil {
		return result{}, info, err
	}

	// Correctness: every answer is validated, then the gate recomputes a
	// seeded sample. Both run after the timed phases.
	n := len(outs)
	allReqs := append(reqs[:n:n], closedReqs...)
	allOuts := append(outs[:n:n], closedOuts...)
	outs, closedOuts = allOuts[:n], allOuts[n:]
	for i := range allOuts {
		if err := validate(allReqs[i], &allOuts[i], vers); err != nil {
			allOuts[i].err = err
		}
	}
	g := &gate{traces: traces, versions: vers, fits: map[int]*trace.FitResult{}, services: map[int]*service.Service{}}
	info.Wrong = g.run(seed, allReqs, allOuts)
	info.Checked = g.checked

	failed := 0
	for i := range allOuts {
		if !allOuts[i].ok() {
			failed++
			if len(info.Errors) < 5 {
				info.Errors = append(info.Errors, errString(allOuts[i]))
			}
		}
	}
	completed := 0
	for i := range outs {
		if outs[i].status != 0 {
			completed++
		}
	}
	lat := stealFreeLatencies(openWins, split(outs, openLens))
	capFree, capWall := capacities(closedWins, split(closedOuts, closedLens))
	info.Samples, info.Closed = len(outs), len(closedOuts)
	info.Stolen = stolenShare(openWins, closedWins)
	info.Unscaled = map[string]float64{
		"latency_p50_ms":        reportable(percentile(latenciesMS(outs), 0.50)),
		"latency_p99_ms":        reportable(percentile(latenciesMS(outs), 0.99)),
		"capacity_rps":          capWall,
		"setup_s":               median(wallSetups),
		"server_cpu_ms_per_req": ratio(cpuMS, float64(completed)),
	}
	info.ByKind = latencyByKind(reqs, outs)
	late := make([]float64, len(outs))
	for i := range outs {
		late[i] = ms(outs[i].sent - outs[i].due)
	}
	info.LateP99 = percentile(late, 0.99)
	info.LateP50 = percentile(late, 0.50)
	res := result{Correct: failed == 0, Attempted: len(allOuts), Failed: failed, Metrics: map[string]metricValue{}}
	put := func(defs []metricDef, vals map[string]float64) error {
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metric %s not measured (%v)", d.name, v)
			}
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
		return nil
	}
	if !traced {
		return res, info, put(endToEnd, map[string]float64{
			"setup_s":               median(setups) / info.Slowdown,
			"latency_p50_ms":        reportable(percentile(lat, 0.50) / info.Slowdown),
			"latency_p99_ms":        reportable(percentile(lat, 0.99) / info.Slowdown),
			"within_limit_frac":     withinFrac(outs, w.limitMS),
			"capacity_rps":          capFree * info.Slowdown,
			"server_cpu_ms_per_req": ratio(cpuMS, float64(completed)) / info.Slowdown,
			"server_rss_mb":         rss,
			"success_frac":          1 - float64(failed)/float64(len(allOuts)),
		})
	}

	// Per-layer: counters over the open-loop phase (a fixed request set,
	// so the work counters repeat exactly per seed), then the traced run.
	hits, misses := float64(work.CacheHits), float64(work.CacheMisses)
	vals, err := tracedRun(w, seed, traces, filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", name, seed)))
	if err != nil {
		return result{}, info, fmt.Errorf("traced run: %w", err)
	}
	vals["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	vals["service.misses_per_req"] = misses / float64(len(outs))
	vals["admit.shed_frac"] = float64(work.shed()) / float64(len(outs))
	vals["core.outer_iters_per_miss"] = ratio(float64(work.ModelOuterIterations), misses)
	vals["core.inner_iters_per_miss"] = ratio(float64(work.ModelInnerIterations), misses)
	vals["core.warm_share"] = ratio(float64(work.WarmPredictions), misses)
	vals["bench.gen_late_p99_ms"] = info.LateP99
	vals["bench.failed_frac"] = float64(failed) / float64(len(allOuts))
	vals["bench.latency_samples"] = float64(len(outs))
	info.Notes = "core.self_ms is an estimate: core.predict_ms minus outer iterations x (timeline + ptree + mva replay)"
	return res, info, put(perLayer, vals)
}

func errString(o outcome) string {
	if o.err != nil {
		return o.err.Error()
	}
	return fmt.Sprintf("HTTP %d: %.200s", o.status, o.body)
}

// arrivalTimes draws cycle c's n Poisson arrivals over d — a Poisson
// process conditioned on its count, i.e. sorted uniform times — so every
// seed sends the same number of requests. The same seed gives the same
// schedule.
func arrivalTimes(seed, c uint64, n int, d time.Duration) []time.Duration {
	r := seededRand(seed, 100+c)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.Int64N(int64(d)))
	}
	slices.Sort(out)
	return out
}

// prime finishes a fresh server's set-up for workload w: plan-sim-calibrate
// calibrates the first version of each profile from its traces, and every
// workload sends warm-up requests from a differently-seeded stream. It
// returns the traces and the profile versions the calibrations created.
func prime(w *workloadDef, seed uint64, c *http.Client, srv *server) ([]calibrationTrace, map[int64]int, error) {
	versions := map[int64]int{}
	var (
		traces []calibrationTrace
		reqs   []request
		err    error
	)
	if w.name == "plan-sim-calibrate" {
		if traces, err = loadTraces(); err != nil {
			return nil, nil, err
		}
		for k, t := range traces {
			if k%tracesPerProfile == 0 {
				reqs = append(reqs, request{kind: kindCalibrate, body: t.body, traceIdx: k})
			}
		}
	}
	warm := w.newGen(seed^warmupSalt, traces)
	for n := 0; n < w.warmup; {
		if r := warm.next(); r.kind != kindCalibrate {
			reqs = append(reqs, r)
			n++
		}
	}
	// The calibrations go first and alone, so the rest see their versions.
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sendChecked := func(r request) {
		var o outcome
		o.status, o.body, o.err = send(c, srv.base, r)
		mu.Lock()
		if err := validate(r, &o, versions); err != nil && firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var rest []request
	for _, r := range reqs {
		if r.kind == kindCalibrate {
			sendChecked(r)
		} else {
			rest = append(rest, r)
		}
	}
	work := make(chan request, len(rest)) // one slot per request
	for _, r := range rest {
		work <- r
	}
	close(work)
	for n := 0; n < conns; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				sendChecked(r)
			}
		}()
	}
	wg.Wait()
	return traces, versions, firstErr
}

// warmupSalt separates the warm-up stream from the measured one.
const warmupSalt = 0x5eed

// environment records what the numbers were measured on.
func environment(srv *server, c *http.Client) map[string]any {
	env := map[string]any{
		"schema":       "perfbench/1",
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"commit":       "unknown",
		"server_flags": strings.Join(srv.flags, " "),
		"conns":        conns,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["commit_modified"] = s.Value
			}
		}
	}
	if resp, err := c.Get(srv.base + "/healthz"); err == nil {
		var h struct {
			GoVersion string `json:"goVersion"`
		}
		if json.NewDecoder(resp.Body).Decode(&h) == nil {
			env["server_go_version"] = h.GoVersion
		}
		resp.Body.Close()
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
