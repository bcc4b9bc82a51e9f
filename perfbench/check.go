package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"

	"hadoop2perf/internal/core"
	"hadoop2perf/internal/service"
	"hadoop2perf/internal/trace"
)

// Response shapes the benchmark reads back (subsets of docs/API.md).

type predictResp struct {
	ResponseTime   float64 `json:"responseTime"`
	Converged      bool    `json:"converged"`
	Profile        string  `json:"profile"`
	ProfileVersion int64   `json:"profileVersion"`
}

type planCandidate struct {
	Nodes        int     `json:"nodes"`
	ResponseTime float64 `json:"responseTime"`
	NodeSeconds  float64 `json:"nodeSeconds"`
	Feasible     bool    `json:"feasible"`
	Err          string  `json:"err"`
}

type planResp struct {
	Candidates       []planCandidate `json:"candidates"`
	Best             *planCandidate  `json:"best"`
	Evaluated        int             `json:"evaluated"`
	Strategy         string          `json:"strategy"`
	DeadlineExceeded bool            `json:"deadlineExceeded"`
}

type simulateResp struct {
	Makespan float64 `json:"makespan"`
	Events   int     `json:"events"`
}

type calibrateResp struct {
	Profile struct {
		Name    string `json:"name"`
		Version int64  `json:"version"`
	} `json:"profile"`
}

func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// validate checks one answer's status and internal sanity. Calibrations
// record which trace produced each profile version in versions.
func validate(req request, o *outcome, versions map[int64]int) error {
	if o.err != nil {
		return o.err
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", o.status, o.body)
	}
	switch req.kind {
	case kindPredict:
		var r predictResp
		if err := json.Unmarshal(o.body, &r); err != nil {
			return err
		}
		if !positiveFinite(r.ResponseTime) || r.Profile != req.predict.Profile {
			return fmt.Errorf("bad predict answer %+v", r)
		}
	case kindPlan:
		var r planResp
		if err := json.Unmarshal(o.body, &r); err != nil {
			return err
		}
		if r.Evaluated == 0 || r.DeadlineExceeded || (r.Best != nil && !r.Best.Feasible) {
			return fmt.Errorf("bad plan answer: evaluated %d, deadlineExceeded %v", r.Evaluated, r.DeadlineExceeded)
		}
	case kindSimulate:
		var r simulateResp
		if err := json.Unmarshal(o.body, &r); err != nil {
			return err
		}
		if !positiveFinite(r.Makespan) || r.Events <= 0 {
			return fmt.Errorf("bad simulate answer %+v", r)
		}
	case kindCalibrate:
		var r calibrateResp
		if err := json.Unmarshal(o.body, &r); err != nil {
			return err
		}
		if r.Profile.Version <= 0 {
			return fmt.Errorf("bad calibrate answer %+v", r)
		}
		versions[r.Profile.Version] = req.traceIdx
	}
	return nil
}

// gate is the correctness gate run after the timed phases. It recomputes a
// seeded sample of answers independently and marks every wrong one failed.
type gate struct {
	traces   []calibrationTrace
	versions map[int64]int
	fits     map[int]*trace.FitResult
	services map[int]*service.Service
	checked  int
}

// Sample sizes per kind.
const (
	gatePredicts  = 60
	gatePlans     = 4
	gateSimulates = 3
)

// relTol is the agreement bound between a served and a recomputed answer:
// the core warm-start contract (warm and cold solves agree within 1e-6).
const relTol = 1e-6

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// run checks a sample of the successful outcomes (the same seed picks the
// same sample) and returns the number of wrong answers it found.
func (g *gate) run(seed uint64, reqs []request, outs []outcome) int {
	var byKind [numKinds][]int
	for i := range outs {
		if outs[i].ok() {
			byKind[reqs[i].kind] = append(byKind[reqs[i].kind], i)
		}
	}
	r := seededRand(seed, 7)
	wrong := 0
	check := func(k kind, n int, fn func(request, *outcome) error) {
		idx := byKind[k]
		r.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for _, i := range idx[:min(n, len(idx))] {
			g.checked++
			if err := fn(reqs[i], &outs[i]); err != nil {
				outs[i].err = fmt.Errorf("wrong answer: %w", err)
				wrong++
			}
		}
	}
	check(kindPredict, gatePredicts, g.checkPredict)
	check(kindPlan, gatePlans, g.checkPlan)
	check(kindSimulate, gateSimulates, g.checkSimulate)
	return wrong
}

// fit returns the in-process calibration of trace k.
func (g *gate) fit(k int) (*trace.FitResult, error) {
	if f, ok := g.fits[k]; ok {
		return f, nil
	}
	f, err := trace.Fit(g.traces[k].result, trace.FitOptions{CVFloor: calibrateCVFloor})
	if err != nil {
		return nil, err
	}
	g.fits[k] = &f
	return &f, nil
}

// checkPredict recomputes a prediction with core.Predict — after an
// in-process Calibrate of the trace behind the answer's profile version for
// profile-backed requests — and requires the same response time within
// relTol and the same convergence flag.
func (g *gate) checkPredict(req request, o *outcome) error {
	var got predictResp
	if err := json.Unmarshal(o.body, &got); err != nil {
		return err
	}
	var hist *trace.FitResult
	if req.predict.Profile != "" {
		k, ok := g.versions[got.ProfileVersion]
		if !ok {
			return fmt.Errorf("answer cites unknown profile version %d", got.ProfileVersion)
		}
		if g.traces[k].name != req.predict.Profile {
			return fmt.Errorf("profile %q answered from %q's version %d", req.predict.Profile, g.traces[k].name, got.ProfileVersion)
		}
		var err error
		if hist, err = g.fit(k); err != nil {
			return err
		}
	}
	cfg, err := req.predict.coreConfig(hist)
	if err != nil {
		return err
	}
	want, err := core.Predict(cfg)
	if err != nil {
		return err
	}
	if relDiff(got.ResponseTime, want.ResponseTime) > relTol || got.Converged != want.Converged {
		return fmt.Errorf("predict %s: served %v (converged %v), recomputed %v (converged %v)",
			req.body, got.ResponseTime, got.Converged, want.ResponseTime, want.Converged)
	}
	return nil
}

// checkPlan recomputes the exhaustive grid of the same deadline plan on an
// in-process service and requires the served search's best to match the
// grid's best. A plan response does not name the profile version it used,
// so a profile-backed plan is checked against the grid under each version
// of its profile the run calibrated, and must match one of them.
func (g *gate) checkPlan(req request, o *outcome) error {
	var got planResp
	if err := json.Unmarshal(o.body, &got); err != nil {
		return err
	}
	preq, err := req.plan.serviceRequest()
	if err != nil {
		return err
	}
	preq.Exhaustive = true
	var grids []string
	for _, k := range g.liveTraces(req.plan.Profile) {
		svc, err := g.service(k)
		if err != nil {
			return err
		}
		want, err := svc.Plan(context.Background(), preq)
		if err != nil {
			return fmt.Errorf("exhaustive plan: %w", err)
		}
		if want.Strategy != service.StrategyGrid {
			return fmt.Errorf("exhaustive plan used strategy %q", want.Strategy)
		}
		if (got.Best == nil) == (want.Best == nil) && (got.Best == nil ||
			relDiff(got.Best.NodeSeconds, want.Best.NodeSeconds) <= relTol &&
				relDiff(got.Best.ResponseTime, want.Best.ResponseTime) <= relTol) {
			return nil
		}
		grids = append(grids, fmt.Sprintf("%+v", want.Best))
	}
	return fmt.Errorf("plan %s: search best %+v, grid best %v", req.body, got.Best, grids)
}

// liveTraces returns the traces whose fits could have answered a request
// naming profile: every trace of it the run calibrated, or -1 (no profile).
func (g *gate) liveTraces(profile string) []int {
	if profile == "" {
		return []int{-1}
	}
	var out []int
	for k := range g.traces {
		if g.traces[k].name != profile {
			continue
		}
		for _, v := range g.versions {
			if v == k {
				out = append(out, k)
				break
			}
		}
	}
	return out
}

// service returns an in-process service holding trace k's calibration of
// its profile (no calibration for k < 0), made once per k.
func (g *gate) service(k int) (*service.Service, error) {
	if svc, ok := g.services[k]; ok {
		return svc, nil
	}
	svc := service.New(service.Options{Workers: conns})
	if k >= 0 {
		ct := g.traces[k]
		if _, err := svc.Calibrate(context.Background(), service.CalibrateRequest{Name: ct.name, Result: ct.result,
			Fit: trace.FitOptions{CVFloor: calibrateCVFloor}}); err != nil {
			return nil, err
		}
	}
	g.services[k] = svc
	return svc, nil
}

// volatile matches the response fields that legitimately differ between two
// computations of one simulation: the request ID and the cache flag.
var volatile = regexp.MustCompile(`"(requestId|cached)": ("[^"]*"|true|false)`)

// checkSimulate repeats the seeded simulation on a fresh in-process service
// and requires a byte-identical body apart from the volatile fields.
func (g *gate) checkSimulate(req request, o *outcome) error {
	h := service.NewHandler(service.New(service.Options{Workers: 1}), service.ServerConfig{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, kindPaths[kindSimulate], strings.NewReader(string(req.body))))
	a := volatile.ReplaceAllString(string(o.body), `"$1": -`)
	b := volatile.ReplaceAllString(rec.Body.String(), `"$1": -`)
	if rec.Code != http.StatusOK || a != b {
		return fmt.Errorf("simulate %s: served and repeated bodies differ:\n%s\n%s", req.body, a, b)
	}
	return nil
}
