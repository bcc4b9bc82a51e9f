package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"hadoop2perf/internal/admit"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/mva"
	"hadoop2perf/internal/obs"
	"hadoop2perf/internal/ptree"
	"hadoop2perf/internal/service"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/trace"
	"hadoop2perf/internal/workflow"
	"hadoop2perf/internal/workload"
)

// span is one timed call into a layer. Spans of one request share Request;
// Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"startNs"`
	End     int64  `json:"endNs"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 4096)} }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Request: req, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// medianSelf returns the median self time of the spans named name, in the
// given unit.
func medianSelf(spans []span, self []time.Duration, name string, unit time.Duration) float64 {
	var xs []float64
	for i, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(self[i])/float64(unit))
		}
	}
	return median(xs)
}

// Traced-run sample sizes.
const (
	tracedPredicts = 24
	tracedPlans    = 6
	tracedSims     = 6
	admitPairs     = 20000
	schedulePasses = 200
)

// tracedSample is the slice of the workload the traced run replays: the
// workload's own predictions, and plans, simulations and calibrations from
// the plan-sim-calibrate stream of the same seed (the only stream that
// sends them).
type tracedSample struct {
	predicts, plans, sims []request
}

func sampleFor(w *workloadDef, seed uint64, traces []calibrationTrace) tracedSample {
	var s tracedSample
	seen := map[string]bool{}
	g := w.newGen(seed, traces)
	for i := 0; i < 10000 && len(s.predicts) < tracedPredicts; i++ {
		if r := g.next(); r.kind == kindPredict && !seen[string(r.body)] {
			seen[string(r.body)] = true
			s.predicts = append(s.predicts, r)
		}
	}
	p := newPSCGen(seed, traces)
	for i := 0; i < 10000 && (len(s.plans) < tracedPlans || len(s.sims) < tracedSims); i++ {
		switch r := p.next(); {
		case r.kind == kindPlan && len(s.plans) < tracedPlans:
			s.plans = append(s.plans, r)
		case r.kind == kindSimulate && len(s.sims) < tracedSims:
			s.sims = append(s.sims, r)
		}
	}
	return s
}

func (p predictWire) serviceRequest() (service.PredictRequest, error) {
	cfg, err := p.coreConfig(nil)
	if err != nil {
		return service.PredictRequest{}, err
	}
	return service.PredictRequest{Spec: cfg.Spec, Job: cfg.Job, NumJobs: cfg.NumJobs,
		Estimator: cfg.Estimator, Profile: p.Profile}, nil
}

func (p planWire) serviceRequest() (service.PlanRequest, error) {
	est, err := core.ParseEstimator(p.Estimator)
	if err != nil {
		return service.PlanRequest{}, err
	}
	req := service.PlanRequest{Spec: p.Cluster.spec(), NumJobs: p.NumJobs, Estimator: est,
		Nodes: p.Nodes, DeadlineSec: p.DeadlineSec, Exhaustive: p.Exhaustive, Profile: p.Profile}
	if p.Workflow != nil {
		req.Workflow = &service.Workflow{Edges: p.Workflow.Edges}
		for _, st := range p.Workflow.Stages {
			job, err := st.Job.job()
			if err != nil {
				return service.PlanRequest{}, err
			}
			req.Workflow.Stages = append(req.Workflow.Stages, service.WorkflowStage{Name: st.Name, Job: job})
		}
		return req, nil
	}
	req.Job, err = p.Job.job()
	return req, err
}

func (s simulateWire) config() (mrsim.Config, error) {
	job, err := s.Job.job()
	if err != nil {
		return mrsim.Config{}, err
	}
	return mrsim.Config{Spec: s.Cluster.spec(), Jobs: []workload.Job{job}, Seed: s.Seed}, nil
}

// allocsOf runs fn and returns its heap allocation count and bytes.
func allocsOf(fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// replayInput rebuilds the A2 timeline input of a converged prediction from
// its final round: the same task counts, per-node lanes and class
// durations the model's last round placed.
func replayInput(cfg core.Config, pred core.Prediction) timeline.Input {
	spec := cfg.Spec
	classes := spec.ClassView()
	nodes := spec.TotalNodes()
	n := max(cfg.NumJobs, 1)
	in := timeline.Input{NumNodes: nodes, MapSlotsByNode: make([]int, nodes), ReduceSlotsByNode: make([]int, nodes),
		SlowStart: cfg.Job.SlowStart}
	for node := 0; node < nodes; node++ {
		c := classes[spec.ClassOfNode(node)]
		in.MapSlotsByNode[node] = max(spec.MaxMapsOf(c)/n, 1)
		in.ReduceSlotsByNode[node] = max(spec.MaxReducesOf(c)/n, 1)
	}
	m, r := cfg.Job.NumMaps(), cfg.Job.NumReduces
	ss := pred.ClassResponse[timeline.ClassShuffleSort]
	for i := 0; i < m; i++ {
		in.Maps = append(in.Maps, timeline.MapTask{ID: i, Duration: pred.ClassResponse[timeline.ClassMap],
			ShuffleDuration: ss / 2 * float64(r) / float64(m)})
	}
	for i := 0; i < r; i++ {
		in.Reduces = append(in.Reduces, timeline.ReduceTask{ID: i, ShuffleSortBase: ss / 2,
			MergeDuration: pred.ClassResponse[timeline.ClassMerge]})
	}
	return in
}

// replayOverlap builds an A5 operand of the prediction's shape from its
// final timeline: one task per placed task, a CPU and disk center per node
// class plus the shared network, time-overlap α (per-node centers only for
// co-located pairs) and β = α. Demands split each task's duration 50/30/20
// over CPU, disk and network. A4 itself has no public entry point, so this
// stands in for its output.
func replayOverlap(cfg core.Config, tl *timeline.Timeline) mva.OverlapInput {
	spec := cfg.Spec
	classes := spec.ClassView()
	nt, nc := len(tl.Tasks), 2*len(classes)+1
	net := nc - 1
	mat := func() [][][]float64 {
		m := make([][][]float64, nc)
		for c := range m {
			m[c] = make([][]float64, nt)
			for i := range m[c] {
				m[c][i] = make([]float64, nt)
			}
		}
		return m
	}
	alpha, beta := mat(), mat()
	in := mva.OverlapInput{Tasks: make([]mva.TaskDemand, nt), Alpha: alpha, Beta: beta, OtherJobs: max(cfg.NumJobs, 1) - 1}
	for _, c := range classes {
		in.Servers = append(in.Servers, float64(c.CPUs), float64(c.Disks))
	}
	in.Servers = append(in.Servers, max(float64(spec.TotalNodes())/2, 1))
	for i, ti := range tl.Tasks {
		cls := spec.ClassOfNode(ti.Node)
		d := make([]float64, nc)
		d[2*cls], d[2*cls+1], d[net] = 0.5*ti.Duration(), 0.3*ti.Duration(), 0.2*ti.Duration()
		in.Tasks[i] = mva.TaskDemand{Demands: d}
		for j, tj := range tl.Tasks {
			ov := 0.0
			if ti.Duration() > 0 {
				ov = timeline.Overlap(ti, tj) / ti.Duration()
			}
			if i != j {
				alpha[net][i][j] = ov
			}
			beta[net][i][j] = ov
			if ti.Node == tj.Node {
				for _, c := range []int{2 * cls, 2*cls + 1} {
					if i != j {
						alpha[c][i][j] = ov
					}
					beta[c][i][j] = ov
				}
			}
		}
	}
	return in
}

// tracedRun replays a seeded sample of the workload in process, timing calls
// into each layer's public functions as spans, and returns the per-layer
// times and counts it measures.
func tracedRun(w *workloadDef, seed uint64, traces []calibrationTrace, spanFile string) (map[string]float64, error) {
	ctx := context.Background()
	if traces == nil { // only plan-sim-calibrate loads them in set-up
		var err error
		if traces, err = loadTraces(); err != nil {
			return nil, err
		}
	}
	sample := sampleFor(w, seed, traces)
	out := map[string]float64{}
	tr := newTracer()
	req := 0
	logger, err := obs.NewLogger(io.Discard, obs.LogFormatText, slog.LevelInfo)
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Options{Workers: conns})
	h := service.NewHandler(svc, service.ServerConfig{AccessLog: logger})

	// Calibrate: the fit alone, then the service path that stores it. The
	// first trace of each profile is live afterwards, as after set-up.
	fits := map[string]*trace.FitResult{}
	for k, ct := range traces {
		root := tr.begin("request", -1, req)
		sp := tr.begin("trace.fit", root, req)
		fit, err := trace.Fit(ct.result, trace.FitOptions{CVFloor: calibrateCVFloor})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if k%tracesPerProfile == 0 {
			fits[ct.name] = &fit
		}
		sp = tr.begin("service.calibrate", root, req)
		_, err = svc.Calibrate(ctx, service.CalibrateRequest{Name: ct.name, Result: ct.result,
			Fit: trace.FitOptions{CVFloor: calibrateCVFloor}})
		tr.end(sp)
		tr.end(root)
		req++
		if err != nil {
			return nil, err
		}
	}
	if err := calibrateFirst(svc, traces); err != nil { // as after set-up
		return nil, err
	}

	var (
		pred                                   = core.NewPredictor()
		solver                                 mva.OverlapSolver
		allocs, allocBytes, tlAllocs, ptAllocs []float64
		selfEst, sweepNs, stepUs               []float64
	)
	for _, r := range sample.predicts {
		preq, err := r.predict.serviceRequest()
		if err != nil {
			return nil, err
		}
		cfg, err := r.predict.coreConfig(fits[r.predict.Profile])
		if err != nil {
			return nil, err
		}
		root := tr.begin("request", -1, req)
		timed := func(name string, fn func() error) (time.Duration, error) {
			sp := tr.begin(name, root, req)
			err := fn()
			tr.end(sp)
			return time.Duration(tr.spans[sp].End - tr.spans[sp].Start), err
		}
		if _, err := timed("service.predict_miss", func() error { _, err := svc.Predict(ctx, preq); return err }); err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, kindPaths[kindPredict], bytes.NewReader(r.body))
		timed("service.http_hit", func() error { h.ServeHTTP(rec, hreq); return nil })
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process predict: HTTP %d: %s", rec.Code, rec.Body.String())
		}
		if _, err := timed("service.predict_hit", func() error { _, err := svc.Predict(ctx, preq); return err }); err != nil {
			return nil, err
		}
		var p core.Prediction
		var predDur time.Duration
		a, b := allocsOf(func() {
			predDur, err = timed("core.predict", func() error { p, err = pred.Predict(cfg); return err })
		})
		if err != nil {
			return nil, err
		}
		allocs, allocBytes = append(allocs, a), append(allocBytes, b)

		in := replayInput(cfg, p)
		var tlDur, ptDur, stepDur time.Duration
		a, _ = allocsOf(func() {
			tlDur, err = timed("timeline.build", func() error { _, err := timeline.Build(in); return err })
		})
		if err != nil {
			return nil, err
		}
		tlAllocs = append(tlAllocs, a)
		a, _ = allocsOf(func() {
			ptDur, err = timed("ptree.build", func() error { _, err := ptree.Build(p.Timeline); return err })
		})
		if err != nil {
			return nil, err
		}
		ptAllocs = append(ptAllocs, a)
		ov := replayOverlap(cfg, p.Timeline)
		var step mva.OverlapResult
		if stepDur, err = timed("mva.step", func() error { step, err = solver.Step(ov); return err }); err != nil {
			return nil, err
		}
		// The replayed operand's sweep count differs from the model's, so
		// A5 is priced per sweep and scaled to the sweeps the prediction
		// actually ran (InnerIterations over its outer rounds).
		sweep := float64(stepDur) / float64(max(step.Iterations, 1))
		sweepNs = append(sweepNs, sweep)
		stepUs = append(stepUs, sweep*float64(p.InnerIterations)/float64(max(p.Iterations, 1))/1e3)
		selfEst = append(selfEst, (float64(predDur-time.Duration(p.Iterations)*(tlDur+ptDur))-sweep*float64(p.InnerIterations))/1e6)
		tr.end(root)
		req++
	}
	out["core.allocs_per_predict"] = median(allocs)
	out["core.bytes_per_predict"] = median(allocBytes)
	out["timeline.allocs_per_build"] = median(tlAllocs)
	out["ptree.allocs_per_build"] = median(ptAllocs)
	out["core.self_ms"] = median(selfEst)
	out["mva.sweep_ns"] = median(sweepNs)
	out["mva.step_us"] = median(stepUs)

	var predictsPerPlan []float64
	for _, r := range sample.plans {
		preq, err := r.plan.serviceRequest()
		if err != nil {
			return nil, err
		}
		before := svc.Metrics().CacheMisses
		root := tr.begin("request", -1, req)
		sp := tr.begin("service.plan", root, req)
		_, err = svc.Plan(ctx, preq)
		tr.end(sp)
		tr.end(root)
		req++
		if err != nil {
			return nil, err
		}
		predictsPerPlan = append(predictsPerPlan, float64(svc.Metrics().CacheMisses-before))
	}
	out["service.predicts_per_plan"] = mean(predictsPerPlan)

	var events, eventNs []float64
	for _, r := range sample.sims {
		cfg, err := r.sim.config()
		if err != nil {
			return nil, err
		}
		root := tr.begin("request", -1, req)
		sp := tr.begin("service.simulate", root, req)
		_, err = svc.Simulate(ctx, service.SimulateRequest{Spec: cfg.Spec, Jobs: cfg.Jobs, Seed: cfg.Seed, Reps: r.sim.Reps})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("mrsim.run", root, req)
		res, err := mrsim.Run(cfg)
		tr.end(sp)
		tr.end(root)
		req++
		if err != nil {
			return nil, err
		}
		events = append(events, float64(res.Events))
		eventNs = append(eventNs, float64(tr.spans[sp].End-tr.spans[sp].Start)/float64(max(res.Events, 1)))
	}
	out["mrsim.events_per_run"] = mean(events)
	out["mrsim.event_ns"] = median(eventNs)

	// Admission and the workflow critical-path schedule cost microseconds
	// or less per call, so each span covers a loop of calls.
	ctl := admit.NewController(admit.Config{Capacity: conns})
	root := tr.begin("request", -1, req)
	sp := tr.begin("admit.admit_done", root, req)
	for i := 0; i < admitPairs; i++ {
		t, err := ctl.Admit(ctx, admit.ClassCheap)
		if err != nil {
			return nil, err
		}
		t.Done()
	}
	tr.end(sp)
	out["admit.admit_done_ns"] = float64(tr.spans[sp].End-tr.spans[sp].Start) / admitPairs
	names := make([]string, 20)
	durs := make([]float64, 20)
	r := seededRand(seed, 11)
	for i := range names {
		names[i], durs[i] = "s"+strconv.Itoa(i), 30+300*r.Float64()
	}
	dag := workflow.Chain(names...)
	sp = tr.begin("workflow.schedule", root, req)
	for i := 0; i < schedulePasses; i++ {
		if _, err := dag.ComputeSchedule(durs); err != nil {
			return nil, err
		}
	}
	tr.end(sp)
	tr.end(root)
	req++
	out["workflow.schedule_us"] = float64(tr.spans[sp].End-tr.spans[sp].Start) / schedulePasses / 1e3

	overhead, err := traceOverhead(sample, traces, logger)
	if err != nil {
		return nil, err
	}
	out["bench.trace_overhead_frac"] = overhead

	self := selfTimes(tr.spans)
	for _, m := range []struct {
		metric, span string
		unit         time.Duration
	}{
		{"service.predict_miss_ms", "service.predict_miss", time.Millisecond},
		{"service.predict_hit_us", "service.predict_hit", time.Microsecond},
		{"service.plan_ms", "service.plan", time.Millisecond},
		{"service.simulate_ms", "service.simulate", time.Millisecond},
		{"service.calibrate_ms", "service.calibrate", time.Millisecond},
		{"core.predict_ms", "core.predict", time.Millisecond},
		{"timeline.build_us", "timeline.build", time.Microsecond},
		{"ptree.build_us", "ptree.build", time.Microsecond},
		{"mrsim.run_ms", "mrsim.run", time.Millisecond},
		{"trace.fit_ms", "trace.fit", time.Millisecond},
	} {
		out[m.metric] = medianSelf(tr.spans, self, m.span, m.unit)
	}
	// ServeHTTP minus the Service method, both on a cache hit of the same
	// request: the HTTP layer's own cost.
	out["service.http_self_us"] = medianSelf(tr.spans, self, "service.http_hit", time.Microsecond) - out["service.predict_hit_us"]
	return out, writeSpans(spanFile, tr.spans)
}

// calibrateFirst stores the first trace of every profile, the state
// set-up leaves the server in.
func calibrateFirst(svc *service.Service, traces []calibrationTrace) error {
	for k, ct := range traces {
		if k%tracesPerProfile == 0 {
			if _, err := svc.Calibrate(context.Background(), service.CalibrateRequest{Name: ct.name, Result: ct.result,
				Fit: trace.FitOptions{CVFloor: calibrateCVFloor}}); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceOverhead replays the sample through fresh in-process handlers three
// times each, alternating untraced and traced passes after one discarded
// warm-up, and returns the traced median wall time over the untraced one,
// minus 1.
func traceOverhead(s tracedSample, traces []calibrationTrace, logger *slog.Logger) (float64, error) {
	stream := append(append(append([]request(nil), s.predicts...), s.plans...), s.sims...)
	pass := func(tr *tracer) (time.Duration, error) {
		svc := service.New(service.Options{Workers: conns})
		if err := calibrateFirst(svc, traces); err != nil {
			return 0, err
		}
		h := service.NewHandler(svc, service.ServerConfig{AccessLog: logger})
		start := time.Now()
		for i, r := range stream {
			sp := -1
			if tr != nil {
				sp = tr.begin("service.http", -1, i)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, kindPaths[r.kind], bytes.NewReader(r.body)))
			if tr != nil {
				tr.end(sp)
			}
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("in-process %s: HTTP %d", kindPaths[r.kind], rec.Code)
			}
		}
		return time.Since(start), nil
	}
	var plain, traced []float64
	if _, err := pass(nil); err != nil { // warm-up, discarded
		return 0, err
	}
	for i := 0; i < 3; i++ {
		d, err := pass(nil)
		if err != nil {
			return 0, err
		}
		plain = append(plain, float64(d))
		if d, err = pass(newTracer()); err != nil {
			return 0, err
		}
		traced = append(traced, float64(d))
	}
	return median(traced)/median(plain) - 1, nil
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
