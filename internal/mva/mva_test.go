package mva

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestExactSingleCustomer(t *testing.T) {
	// One customer never queues: response = sum of demands.
	centers := []Center{{Name: "cpu", Demand: 2}, {Name: "disk", Demand: 3}}
	res, err := ExactSingleClass(centers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.ResponseTime, 5, 1e-12) {
		t.Errorf("R(1) = %v, want 5", res.ResponseTime)
	}
	if !almostEq(res.Throughput, 0.2, 1e-12) {
		t.Errorf("X(1) = %v, want 0.2", res.Throughput)
	}
}

func TestExactTwoCustomersBalanced(t *testing.T) {
	// Classic textbook case: two balanced queues, N=2.
	// N=1: R=2, X=0.5, q=[0.5,0.5].
	// N=2: R_k = 1*(1+0.5) = 1.5 each, R=3, X=2/3, q=[1,1].
	centers := []Center{{Name: "a", Demand: 1}, {Name: "b", Demand: 1}}
	res, err := ExactSingleClass(centers, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.ResponseTime, 3, 1e-12) {
		t.Errorf("R(2) = %v, want 3", res.ResponseTime)
	}
	if !almostEq(res.Throughput, 2.0/3, 1e-12) {
		t.Errorf("X(2) = %v, want 2/3", res.Throughput)
	}
	for k, q := range res.QueueLen {
		if !almostEq(q, 1, 1e-12) {
			t.Errorf("q[%d] = %v, want 1", k, q)
		}
	}
}

func TestExactDelayCenterNeverQueues(t *testing.T) {
	centers := []Center{
		{Name: "think", Demand: 10, Delay: true},
		{Name: "cpu", Demand: 1},
	}
	res, err := ExactSingleClass(centers, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Residence at the delay center stays exactly its demand.
	if !almostEq(res.Residence[0], 10, 1e-12) {
		t.Errorf("delay residence = %v", res.Residence[0])
	}
	if res.Residence[1] <= 1 {
		t.Errorf("queueing center should inflate: %v", res.Residence[1])
	}
}

func TestExactThroughputSaturation(t *testing.T) {
	// Throughput is bounded by 1/maxDemand; response grows ~linearly at
	// saturation (asymptotic bound analysis).
	centers := []Center{{Name: "bottleneck", Demand: 2}, {Name: "other", Demand: 1}}
	prevR := 0.0
	for n := 1; n <= 50; n++ {
		res, err := ExactSingleClass(centers, n)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput > 0.5+1e-9 {
			t.Fatalf("X(%d) = %v exceeds bottleneck bound 0.5", n, res.Throughput)
		}
		if res.ResponseTime < prevR-1e-9 {
			t.Fatalf("R not monotone at N=%d", n)
		}
		prevR = res.ResponseTime
	}
	res, _ := ExactSingleClass(centers, 50)
	if !almostEq(res.Throughput, 0.5, 0.01) {
		t.Errorf("X(50) = %v, want ~0.5", res.Throughput)
	}
}

func TestExactValidation(t *testing.T) {
	if _, err := ExactSingleClass(nil, 1); err == nil {
		t.Error("no centers accepted")
	}
	if _, err := ExactSingleClass([]Center{{Demand: 1}}, 0); err == nil {
		t.Error("zero customers accepted")
	}
	if _, err := ExactSingleClass([]Center{{Demand: -1}}, 1); err == nil {
		t.Error("negative demand accepted")
	}
}

func TestSchweitzerBardMatchesExactSingleClass(t *testing.T) {
	// For one class, Schweitzer-Bard should be close to exact MVA.
	centers := []Center{{Demand: 1}, {Demand: 2}, {Demand: 0.5}}
	for _, n := range []int{1, 2, 5, 10} {
		exact, err := ExactSingleClass(centers, n)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := SchweitzerBard([]ClassSpec{{
			Name: "c", Population: n, Demands: []float64{1, 2, 0.5},
		}}, 3, 1e-10, 0)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(approx.ResponseTime[0]-exact.ResponseTime) / exact.ResponseTime
		if rel > 0.12 {
			t.Errorf("N=%d: approx %v vs exact %v (%.1f%% off)",
				n, approx.ResponseTime[0], exact.ResponseTime, 100*rel)
		}
	}
}

func TestSchweitzerBardMulticlass(t *testing.T) {
	classes := []ClassSpec{
		{Name: "a", Population: 2, Demands: []float64{1, 0.5}},
		{Name: "b", Population: 3, Demands: []float64{0.5, 1}},
	}
	res, err := SchweitzerBard(classes, 2, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := range classes {
		min := classes[c].Demands[0] + classes[c].Demands[1]
		if res.ResponseTime[c] <= min {
			t.Errorf("class %d response %v not above demand %v", c, res.ResponseTime[c], min)
		}
	}
	// Populations are conserved: sum_k q_ck == N_c (Little's law fixpoint).
	for c, spec := range classes {
		var tot float64
		for k := 0; k < 2; k++ {
			tot += res.QueueLen[c][k]
		}
		if !almostEq(tot, float64(spec.Population), 0.01) {
			t.Errorf("class %d population = %v, want %d", c, tot, spec.Population)
		}
	}
}

func TestSchweitzerBardValidation(t *testing.T) {
	if _, err := SchweitzerBard(nil, 1, 0, 0); err == nil {
		t.Error("no classes accepted")
	}
	if _, err := SchweitzerBard([]ClassSpec{{Population: 0, Demands: []float64{1}}}, 1, 0, 0); err == nil {
		t.Error("zero population accepted")
	}
	if _, err := SchweitzerBard([]ClassSpec{{Population: 1, Demands: []float64{1, 2}}}, 1, 0, 0); err == nil {
		t.Error("demand/center mismatch accepted")
	}
	if _, err := SchweitzerBard([]ClassSpec{{Population: 1, Demands: []float64{1}}}, 0, 0, 0); err == nil {
		t.Error("zero centers accepted")
	}
}

func overlapInput(n int, d float64, alphaVal float64, servers []float64) OverlapInput {
	tasks := make([]TaskDemand, n)
	for i := range tasks {
		tasks[i] = TaskDemand{Demands: []float64{d}}
	}
	alpha := [][][]float64{make([][]float64, n)}
	beta := [][][]float64{make([][]float64, n)}
	for i := 0; i < n; i++ {
		alpha[0][i] = make([]float64, n)
		beta[0][i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i != j {
				alpha[0][i][j] = alphaVal
			}
		}
	}
	return OverlapInput{Tasks: tasks, Alpha: alpha, Beta: beta, Servers: servers}
}

func TestOverlapStepNoOverlapNoInflation(t *testing.T) {
	res, err := OverlapStep(overlapInput(4, 10, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Response {
		if !almostEq(r, 10, 1e-9) {
			t.Errorf("task %d response = %v, want 10", i, r)
		}
	}
}

func TestOverlapStepFullOverlapSingleServer(t *testing.T) {
	// n tasks fully overlapping on one server: each sees n-1 competitors all
	// resident at the only center (rho=1): slowdown = n.
	n := 4
	res, err := OverlapStep(overlapInput(n, 10, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Response {
		if !almostEq(r, 40, 1e-6) {
			t.Errorf("task %d response = %v, want 40", i, r)
		}
	}
}

func TestOverlapStepMultiServerAbsorbs(t *testing.T) {
	// 4 fully-overlapping tasks on a 4-server center: no slowdown.
	res, err := OverlapStep(overlapInput(4, 10, 1, []float64{4}))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Response {
		if !almostEq(r, 10, 1e-9) {
			t.Errorf("task %d response = %v, want 10", i, r)
		}
	}
	// ...but 8 tasks on 4 servers slow down 2x.
	res8, err := OverlapStep(overlapInput(8, 10, 1, []float64{4}))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res8.Response[0], 20, 1e-6) {
		t.Errorf("8 tasks on 4 servers: %v, want 20", res8.Response[0])
	}
}

func TestOverlapStepInterJob(t *testing.T) {
	// One task per job, OtherJobs identical twins fully aligned: slowdown =
	// 1 + OtherJobs.
	in := overlapInput(1, 10, 0, nil)
	in.Beta[0][0][0] = 1
	in.OtherJobs = 3
	res, err := OverlapStep(in)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Response[0], 40, 1e-6) {
		t.Errorf("response = %v, want 40", res.Response[0])
	}
}

func TestOverlapStepValidation(t *testing.T) {
	if _, err := OverlapStep(OverlapInput{}); err == nil {
		t.Error("empty input accepted")
	}
	in := overlapInput(2, 10, 0.5, nil)
	in.Alpha = in.Alpha[:0]
	if _, err := OverlapStep(in); err == nil {
		t.Error("missing alpha layer accepted")
	}
	in2 := overlapInput(2, 10, 0.5, []float64{1, 2})
	if _, err := OverlapStep(in2); err == nil {
		t.Error("servers length mismatch accepted")
	}
	in3 := overlapInput(2, 0, 0.5, nil)
	if _, err := OverlapStep(in3); err == nil {
		t.Error("zero-demand task accepted")
	}
	in4 := overlapInput(2, 10, 0.5, nil)
	in4.Tasks[0].Demands = []float64{-1}
	if _, err := OverlapStep(in4); err == nil {
		t.Error("negative demand accepted")
	}
}

// Property: response is always >= demand, monotone in the overlap level, and
// monotone in the number of competing jobs.
func TestOverlapStepMonotonicityProperty(t *testing.T) {
	f := func(nQ uint8, aQ, dQ uint8, jobsQ uint8) bool {
		n := int(nQ)%6 + 2
		alphaLo := float64(aQ%50) / 100
		alphaHi := alphaLo + 0.3
		d := float64(dQ%20) + 1
		jobs := int(jobsQ) % 4

		lo, err := OverlapStep(overlapInput(n, d, alphaLo, nil))
		if err != nil {
			return false
		}
		hi, err := OverlapStep(overlapInput(n, d, alphaHi, nil))
		if err != nil {
			return false
		}
		for i := range lo.Response {
			if lo.Response[i] < d-1e-9 {
				return false
			}
			if hi.Response[i] < lo.Response[i]-1e-9 {
				return false
			}
		}
		inJobs := overlapInput(n, d, alphaLo, nil)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				inJobs.Beta[0][i][j] = 0.5
			}
		}
		inJobs.OtherJobs = jobs
		withJobs, err := OverlapStep(inJobs)
		if err != nil {
			return false
		}
		for i := range withJobs.Response {
			if withJobs.Response[i] < lo.Response[i]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// warmUp solves one input cold and returns a deep copy of its queue matrix
// (the returned QueueLen is freshly allocated per solve, but copy anyway so
// the test owns its seed).
func warmUp(t *testing.T, classes []ClassSpec, centers int) ([][]float64, ApproxResult) {
	t.Helper()
	cold, err := SchweitzerBard(classes, centers, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := make([][]float64, len(cold.QueueLen))
	for c, row := range cold.QueueLen {
		warm[c] = append([]float64(nil), row...)
	}
	return warm, cold
}

func TestSchweitzerBardWarmMatchesCold(t *testing.T) {
	classes := []ClassSpec{
		{Name: "a", Population: 6, Demands: []float64{3, 1, 0.5}},
		{Name: "b", Population: 3, Demands: []float64{0.5, 2, 1}},
	}
	warm, cold := warmUp(t, classes, 3)

	// Perturb the populations slightly — the neighbor-seeding scenario.
	near := []ClassSpec{
		{Name: "a", Population: 7, Demands: classes[0].Demands},
		{Name: "b", Population: 3, Demands: classes[1].Demands},
	}
	coldNear, err := SchweitzerBard(near, 3, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []SBOptions{{Warm: warm}, {Warm: warm, Accelerate: true}} {
		warmNear, err := SchweitzerBardOpt(near, 3, 1e-12, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		for c := range warmNear.ResponseTime {
			if !almostEq(warmNear.ResponseTime[c], coldNear.ResponseTime[c], 1e-8) {
				t.Errorf("opts %+v class %d: warm response %v vs cold %v",
					opts, c, warmNear.ResponseTime[c], coldNear.ResponseTime[c])
			}
		}
		if warmNear.Iterations > coldNear.Iterations {
			t.Errorf("opts %+v: warm start used %d iterations, cold %d",
				opts, warmNear.Iterations, coldNear.Iterations)
		}
	}
	_ = cold
}

func TestSchweitzerBardWarmRejectsDegenerate(t *testing.T) {
	classes := []ClassSpec{{Name: "a", Population: 4, Demands: []float64{2, 1}}}
	cold, err := SchweitzerBard(classes, 2, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, warm := range map[string][][]float64{
		"misshapen": {{1, 2, 3}},
		"negative":  {{-1, 2}},
		"nan":       {{math.NaN(), 1}},
		"zero":      {{0, 0}},
		"short":     {},
	} {
		got, err := SchweitzerBardOpt(classes, 2, 1e-12, 0, SBOptions{Warm: warm})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !almostEq(got.ResponseTime[0], cold.ResponseTime[0], 1e-9) {
			t.Errorf("%s warm row: response %v, want cold %v", name, got.ResponseTime[0], cold.ResponseTime[0])
		}
	}
}

// contendedInput builds a slowly-converging overlap fixed point: heavy
// intra- and inter-job contention over two centers of unequal demand.
func contendedInput(n int) OverlapInput {
	tasks := make([]TaskDemand, n)
	for i := range tasks {
		tasks[i] = TaskDemand{Demands: []float64{10, 2}}
	}
	alpha := make([][][]float64, 2)
	beta := make([][][]float64, 2)
	for k := 0; k < 2; k++ {
		alpha[k] = make([][]float64, n)
		beta[k] = make([][]float64, n)
		for i := 0; i < n; i++ {
			alpha[k][i] = make([]float64, n)
			beta[k][i] = make([]float64, n)
			for j := 0; j < n; j++ {
				if i != j {
					alpha[k][i][j] = 0.9
				}
				beta[k][i][j] = 0.4
			}
		}
	}
	return OverlapInput{Tasks: tasks, Alpha: alpha, Beta: beta, OtherJobs: 3, Tol: 1e-12}
}

func TestOverlapSolverWarmMatchesCold(t *testing.T) {
	in := contendedInput(12)
	var cold OverlapSolver
	ref, err := cold.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	refResp := append([]float64(nil), ref.Response...)
	warmSeed := make([][]float64, len(ref.Residence))
	for i, row := range ref.Residence {
		warmSeed[i] = append([]float64(nil), row...)
	}

	// Same input warm-started from its own fixed point: near-instant, same
	// answer.
	var s OverlapSolver
	warmIn := in
	warmIn.Warm = warmSeed
	got, err := s.Step(warmIn)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations >= ref.Iterations {
		t.Errorf("warm restart used %d sweeps, cold %d", got.Iterations, ref.Iterations)
	}
	for i := range refResp {
		if !almostEq(got.Response[i], refResp[i], 1e-9) {
			t.Errorf("task %d: warm %v vs cold %v", i, got.Response[i], refResp[i])
		}
	}

	// A perturbed input (one extra competing job) warm-started from the
	// neighbor: same fixed point as its own cold solve.
	pert := in
	pert.OtherJobs = 4
	var coldP OverlapSolver
	refP, err := coldP.Step(pert)
	if err != nil {
		t.Fatal(err)
	}
	refPResp := append([]float64(nil), refP.Response...)
	pertWarm := pert
	pertWarm.Warm = warmSeed
	var sP OverlapSolver
	gotP, err := sP.Step(pertWarm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refPResp {
		if !almostEq(gotP.Response[i], refPResp[i], 1e-8) {
			t.Errorf("perturbed task %d: warm %v vs cold %v", i, gotP.Response[i], refPResp[i])
		}
	}
}

func TestOverlapSolverAccelerateMatchesPlain(t *testing.T) {
	in := contendedInput(16)
	plain, err := OverlapStep(in)
	if err != nil {
		t.Fatal(err)
	}
	plainResp := append([]float64(nil), plain.Response...)
	accIn := in
	accIn.Accelerate = true
	var s OverlapSolver
	acc, err := s.Step(accIn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plainResp {
		if !almostEq(acc.Response[i], plainResp[i], 1e-8) {
			t.Errorf("task %d: accelerated %v vs plain %v", i, acc.Response[i], plainResp[i])
		}
	}
	if acc.Iterations > plain.Iterations {
		t.Errorf("acceleration used %d sweeps, plain %d", acc.Iterations, plain.Iterations)
	}
	t.Logf("plain %d sweeps, accelerated %d", plain.Iterations, acc.Iterations)
}

// The solver's own previous result may be passed back as the warm seed
// (aliasing its internal buffers) — the documented reuse pattern of the
// model's outer loop.
func TestOverlapSolverWarmAliasPrevious(t *testing.T) {
	var s OverlapSolver
	in := contendedInput(8)
	first, err := s.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	firstResp := append([]float64(nil), first.Response...)
	again := in
	again.Warm = first.Residence // aliases s's internal state
	second, err := s.Step(again)
	if err != nil {
		t.Fatal(err)
	}
	if second.Iterations > 2 {
		t.Errorf("restart from own fixed point took %d sweeps", second.Iterations)
	}
	for i := range firstResp {
		if !almostEq(second.Response[i], firstResp[i], 1e-9) {
			t.Errorf("task %d drifted: %v vs %v", i, second.Response[i], firstResp[i])
		}
	}
}

// randomOverlap builds a randomized contended overlap spec of shape (n, k):
// per-task demands in [0.5, 4.5) (occasionally zeroed at one center when
// k > 1, exercising the skipped-row path), dense random α/β, random small
// server multiplicities.
func randomOverlap(rng *rand.Rand, n, k, otherJobs int) OverlapInput {
	tasks := make([]TaskDemand, n)
	for i := range tasks {
		d := make([]float64, k)
		for c := range d {
			d[c] = 0.5 + 4*rng.Float64()
		}
		if k > 1 && rng.Float64() < 0.25 {
			d[rng.Intn(k)] = 0
		}
		tasks[i] = TaskDemand{Demands: d}
	}
	alpha := make([][][]float64, k)
	beta := make([][][]float64, k)
	for c := 0; c < k; c++ {
		alpha[c] = make([][]float64, n)
		beta[c] = make([][]float64, n)
		for i := 0; i < n; i++ {
			alpha[c][i] = make([]float64, n)
			beta[c][i] = make([]float64, n)
			for j := 0; j < n; j++ {
				if i != j {
					alpha[c][i][j] = rng.Float64()
				}
				beta[c][i][j] = 0.5 * rng.Float64()
			}
		}
	}
	servers := make([]float64, k)
	for c := range servers {
		servers[c] = float64(1 + rng.Intn(4))
	}
	return OverlapInput{Tasks: tasks, Alpha: alpha, Beta: beta, Servers: servers, OtherJobs: otherJobs, Tol: 1e-11}
}

func copyResult(res OverlapResult) OverlapResult {
	out := OverlapResult{
		Residence:  make([][]float64, len(res.Residence)),
		Response:   append([]float64(nil), res.Response...),
		Iterations: res.Iterations,
	}
	for i, row := range res.Residence {
		out.Residence[i] = append([]float64(nil), row...)
	}
	return out
}

// referenceStep solves an Alpha/Beta input with the element-wise sweep
// below instead of the fused kernel: the same setup, fixed point and
// acceleration, but per-(i,j) α/β loads with the j != i branch — the
// formula of Step's doc comment written out literally.
func referenceStep(in OverlapInput) (OverlapResult, error) {
	var s OverlapSolver
	tol, maxIter, err := s.prepare(&in)
	if err != nil {
		return OverlapResult{}, err
	}
	it := s.sweepReference(&in, tol, maxIter)
	return OverlapResult{Residence: s.res, Response: s.resp, Iterations: it + 1}, nil
}

// sweepReference is the element-wise sweep behind referenceStep.
func (s *OverlapSolver) sweepReference(in *OverlapInput, tol float64, maxIter int) int {
	n, k := s.n, s.k
	otherJobs := float64(in.OtherJobs)
	rho := make([]float64, n*k) // task-major visit probabilities
	var it int
	for it = 0; it < maxIter; it++ {
		maxDelta := 0.0
		for j := 0; j < n; j++ {
			for c := 0; c < k; c++ {
				rho[j*k+c] = s.res[j][c] / s.resp[j]
			}
		}
		for i := 0; i < n; i++ {
			for c := 0; c < k; c++ {
				d := in.Tasks[i].Demands[c]
				if d == 0 {
					s.next[i][c] = 0
					continue
				}
				alphaRow := in.Alpha[c][i]
				betaRow := in.Beta[c][i]
				arr := 0.0
				for j := 0; j < n; j++ {
					r := rho[j*k+c]
					if j != i {
						arr += alphaRow[j] * r
					}
					arr += otherJobs * betaRow[j] * r
				}
				slowdown := (1 + arr) / s.servers[c]
				if slowdown < 1 {
					slowdown = 1
				}
				s.next[i][c] = d * slowdown
			}
		}
		for i := 0; i < n; i++ {
			var tot float64
			for c := 0; c < k; c++ {
				tot += s.next[i][c]
			}
			if delta := math.Abs(tot - s.resp[i]); delta > maxDelta {
				maxDelta = delta
			}
			s.resp[i] = tot
		}
		s.res, s.next = s.next, s.res
		s.resFlat, s.nextFlat = s.nextFlat, s.resFlat
		if maxDelta < tol {
			break
		}
		if in.Accelerate {
			if s.acc.Observe(s.resFlat, func(idx int) float64 { return in.Tasks[idx/k].Demands[idx%k] }) {
				for i := 0; i < n; i++ {
					tot := 0.0
					for c := 0; c < k; c++ {
						tot += s.res[i][c]
					}
					s.resp[i] = tot
				}
			}
		}
	}
	return it
}

// The fused SoA sweep and the element-wise reference sweep are different
// summation orders of the same fixed point: they must agree to 1e-10
// relative on every residence entry, over randomized flat and multi-class
// contended specs.
func TestOverlapFusedMatchesScalarProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(14)
		k := 1 + rng.Intn(5)
		in := randomOverlap(rng, n, k, rng.Intn(5))
		in.Accelerate = rng.Float64() < 0.5

		var fs OverlapSolver
		fused, err := fs.Step(in)
		if err != nil {
			t.Fatalf("trial %d: fused: %v", trial, err)
		}
		fusedCopy := copyResult(fused)

		ref, err := referenceStep(in)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		for i := range ref.Response {
			if rel := math.Abs(fusedCopy.Response[i]-ref.Response[i]) / ref.Response[i]; rel > 1e-10 {
				t.Errorf("trial %d (n=%d k=%d) task %d: fused %v vs scalar %v (rel %g)",
					trial, n, k, i, fusedCopy.Response[i], ref.Response[i], rel)
			}
			for c := range ref.Residence[i] {
				want := ref.Residence[i][c]
				got := fusedCopy.Residence[i][c]
				if want == 0 {
					if got != 0 {
						t.Errorf("trial %d task %d center %d: fused %v, scalar 0", trial, i, c, got)
					}
					continue
				}
				if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-10 {
					t.Errorf("trial %d task %d center %d: fused %v vs scalar %v (rel %g)", trial, i, c, got, want, rel)
				}
			}
		}
	}
}

// packBlocked lays out W = α + (N−1)β (diagonal (N−1)β) by the documented
// OverlapInput.Weights rule, independently of the solver: per center the
// demanded rows in task order, four to a block, j-major inside the block.
// Padding lanes hold pad.
func packBlocked(in OverlapInput, pad float64) []float64 {
	n, k := len(in.Tasks), len(in.Tasks[0].Demands)
	otherJobs := float64(in.OtherJobs)
	var w []float64
	for c := 0; c < k; c++ {
		var rows [][]float64
		for i := 0; i < n; i++ {
			if in.Tasks[i].Demands[c] == 0 {
				continue
			}
			row := make([]float64, n)
			for j := range row {
				row[j] = in.Alpha[c][i][j] + otherJobs*in.Beta[c][i][j]
			}
			row[i] = otherJobs * in.Beta[c][i][i]
			rows = append(rows, row)
		}
		for b := 0; b < len(rows); b += 4 {
			blk := make([]float64, 4*n)
			for lane := 0; lane < 4; lane++ {
				for j := 0; j < n; j++ {
					blk[4*j+lane] = pad
					if b+lane < len(rows) {
						blk[4*j+lane] = rows[b+lane][j]
					}
				}
			}
			w = append(w, blk...)
		}
	}
	return w
}

// Prebuilt fused weights are the same operand as the Alpha/Beta pair the
// solver fuses itself: a Step fed W = α + (N−1)β (diagonal (N−1)β) in the
// blocked layout must follow the identical trajectory, bit for bit. The
// padding lanes are filled with NaN to prove no padding result leaks into
// a residence, and the row offsets Weights returns must address the same
// entries.
func TestOverlapPrebuiltWeightsMatchAlphaBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(15)
		k := 1 + rng.Intn(5)
		in := randomOverlap(rng, n, k, rng.Intn(5))
		in.Accelerate = rng.Float64() < 0.5
		w := packBlocked(in, math.NaN())

		var ls OverlapSolver
		lw, base, err := ls.Weights(in.Tasks)
		if err != nil {
			t.Fatal(err)
		}
		if len(lw) != len(w) {
			t.Fatalf("trial %d: Weights sized %d, documented layout %d", trial, len(lw), len(w))
		}
		otherJobs := float64(in.OtherJobs)
		for c := 0; c < k; c++ {
			for i := 0; i < n; i++ {
				b := base[c*n+i]
				if (b < 0) != (in.Tasks[i].Demands[c] == 0) {
					t.Fatalf("trial %d: row (%d,%d) offset %d with demand %v", trial, c, i, b, in.Tasks[i].Demands[c])
				}
				if b < 0 {
					continue
				}
				for j := 0; j < n; j++ {
					want := in.Alpha[c][i][j] + otherJobs*in.Beta[c][i][j]
					if j == i {
						want = otherJobs * in.Beta[c][i][i]
					}
					if math.Float64bits(w[b+4*j]) != math.Float64bits(want) {
						t.Fatalf("trial %d: offset of W[%d][%d][%d] holds %v, want %v", trial, c, i, j, w[b+4*j], want)
					}
				}
			}
		}

		var as OverlapSolver
		want, err := as.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		pre := in
		pre.Weights = w
		pre.Alpha, pre.Beta = nil, nil
		var ws OverlapSolver
		got, err := ws.Step(pre)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != want.Iterations {
			t.Errorf("trial %d: %d sweeps with prebuilt weights, %d with alpha/beta", trial, got.Iterations, want.Iterations)
		}
		for i := range want.Residence {
			for c := range want.Residence[i] {
				if math.Float64bits(got.Residence[i][c]) != math.Float64bits(want.Residence[i][c]) {
					t.Errorf("trial %d res[%d][%d]: prebuilt %x, alpha/beta %x", trial, i, c, got.Residence[i][c], want.Residence[i][c])
				}
			}
		}
	}
	var s OverlapSolver
	bad := randomOverlap(rng, 3, 2, 1)
	bad.Weights = make([]float64, len(packBlocked(bad, 0))-1)
	if _, err := s.Step(bad); err == nil {
		t.Error("misshapen Weights accepted")
	}
}

// A Step handed the buffer Weights returned reuses that layout instead of
// laying the tasks out again; it must answer like a Step given the same
// weights in a foreign buffer, and refuse tasks that no longer match the
// layout or a buffer whose layout a later Step replaced.
func TestOverlapOwnWeightsReuseLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := randomOverlap(rng, 9, 3, 2)
	in.Tasks[2].Demands[0] = 2
	in.Tasks[3].Demands[2] = 1.5
	in.Tasks[4].Demands[1] = 0
	packed := packBlocked(in, 0)

	var s OverlapSolver
	w, rowBase, err := s.Weights(in.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		for i := 0; i < 9; i++ {
			if b := rowBase[c*9+i]; b >= 0 {
				for j := 0; j < 9; j++ {
					w[b+WeightStride*j] = packed[b+WeightStride*j]
				}
			}
		}
	}
	own := in
	own.Alpha, own.Beta, own.Weights = nil, nil, w
	foreign := own
	foreign.Weights = packed
	var fs OverlapSolver
	want, err := fs.Step(foreign)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		got, err := s.Step(own)
		if err != nil {
			t.Fatalf("step %d on the solver's own buffer: %v", rep, err)
		}
		if got.Iterations != want.Iterations || math.Float64bits(got.Response[0]) != math.Float64bits(want.Response[0]) {
			t.Fatalf("step %d on the solver's own buffer differs from a foreign one", rep)
		}
	}

	tasks := func(i, c int, d float64) []TaskDemand {
		out := make([]TaskDemand, len(in.Tasks))
		for k, td := range in.Tasks {
			out[k] = TaskDemand{Demands: append([]float64(nil), td.Demands...)}
		}
		out[i].Demands[c] = d
		return out
	}
	for name, ts := range map[string][]TaskDemand{
		"changed demand":     tasks(2, 0, in.Tasks[2].Demands[0]*2),
		"new zero demand":    tasks(3, 2, 0),
		"new nonzero demand": tasks(4, 1, 1),
		"NaN demand":         tasks(5, 1, math.NaN()),
		"fewer tasks":        in.Tasks[:8],
	} {
		bad := own
		bad.Tasks = ts
		if _, err := s.Step(bad); err == nil {
			t.Errorf("%s accepted against the laid-out weights", name)
		}
	}

	// A Step that lays out another operand retires the handed-out buffer.
	if _, err := s.Step(in); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(own); err == nil {
		t.Error("stale solver buffer accepted after a relayout")
	}
}

// oracleStep solves an Alpha/Beta input with the paired-row scalar sweep
// the blocked kernels replaced, over the k·n·n center-major weights it
// read: the bitwise oracle for every blockKernel.
func oracleStep(in OverlapInput) (OverlapResult, error) {
	var s OverlapSolver
	tol, maxIter, err := s.prepare(&in)
	if err != nil {
		return OverlapResult{}, err
	}
	it := s.sweepPairedRows(&in, centerMajorWeights(&in), tol, maxIter)
	return OverlapResult{Residence: s.res, Response: s.resp, Iterations: it + 1}, nil
}

// centerMajorWeights fuses Alpha/Beta into the center-major layout:
// W^c_ij at (c·n+i)·n+j, every row stored.
func centerMajorWeights(in *OverlapInput) []float64 {
	n, k := len(in.Tasks), len(in.Tasks[0].Demands)
	w := make([]float64, k*n*n)
	otherJobs := float64(in.OtherJobs)
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			wRow := w[(c*n+i)*n : (c*n+i+1)*n]
			for j := range wRow {
				wRow[j] = in.Alpha[c][i][j] + otherJobs*in.Beta[c][i][j]
			}
			wRow[i] = otherJobs * in.Beta[c][i][i]
		}
	}
	return w
}

// sweepPairedRows is the scalar struct-of-arrays sweep over center-major
// weights: the dot products run two rows at a time over four accumulator
// chains, each row keeping its even/odd accumulation order.
func (s *OverlapSolver) sweepPairedRows(in *OverlapInput, w []float64, tol float64, maxIter int) int {
	n, k := s.n, s.k
	for i := range s.rowDirty {
		s.rowDirty[i] = true
	}
	var it int
	for it = 0; it < maxIter; it++ {
		maxDelta := 0.0
		for j := 0; j < n; j++ {
			if !s.rowDirty[j] {
				continue
			}
			row := s.res[j]
			inv := s.resp[j]
			for c := 0; c < k; c++ {
				s.rhoC[c*n+j] = row[c] / inv
			}
		}
		for c := 0; c < k; c++ {
			rc := s.rhoC[c*n : (c+1)*n]
			base := c * n
			i := 0
			for ; i+1 < n; i += 2 {
				d0 := in.Tasks[i].Demands[c]
				d1 := in.Tasks[i+1].Demands[c]
				if d0 == 0 || d1 == 0 {
					if d0 == 0 {
						s.next[i][c] = 0
					} else {
						s.next[i][c] = d0 * rowSlowdown(w[(base+i)*n:(base+i+1)*n], rc, s.servers[c])
					}
					if d1 == 0 {
						s.next[i+1][c] = 0
					} else {
						s.next[i+1][c] = d1 * rowSlowdown(w[(base+i+1)*n:(base+i+2)*n], rc, s.servers[c])
					}
					continue
				}
				w0 := w[(base+i)*n : (base+i+1)*n]
				w1 := w[(base+i+1)*n : (base+i+2)*n]
				var a0, a1, b0, b1 float64
				var j int
				for ; j+1 < n; j += 2 {
					rj, rj1 := rc[j], rc[j+1]
					a0 += float64(w0[j] * rj)
					a1 += float64(w0[j+1] * rj1)
					b0 += float64(w1[j] * rj)
					b1 += float64(w1[j+1] * rj1)
				}
				if j < n {
					rj := rc[j]
					a0 += float64(w0[j] * rj)
					b0 += float64(w1[j] * rj)
				}
				s0 := (1 + (a0 + a1)) / s.servers[c]
				if s0 < 1 {
					s0 = 1
				}
				s.next[i][c] = d0 * s0
				s1 := (1 + (b0 + b1)) / s.servers[c]
				if s1 < 1 {
					s1 = 1
				}
				s.next[i+1][c] = d1 * s1
			}
			if i < n {
				if d := in.Tasks[i].Demands[c]; d == 0 {
					s.next[i][c] = 0
				} else {
					s.next[i][c] = d * rowSlowdown(w[(base+i)*n:(base+i+1)*n], rc, s.servers[c])
				}
			}
		}
		for i := 0; i < n; i++ {
			var tot float64
			changed := false
			nextRow, resRow := s.next[i], s.res[i]
			for c := 0; c < k; c++ {
				tot += nextRow[c]
				if nextRow[c] != resRow[c] {
					changed = true
				}
			}
			if delta := math.Abs(tot - s.resp[i]); delta > maxDelta {
				maxDelta = delta
			}
			s.resp[i] = tot
			s.rowDirty[i] = changed
		}
		s.res, s.next = s.next, s.res
		s.resFlat, s.nextFlat = s.nextFlat, s.resFlat
		if maxDelta < tol {
			break
		}
		if in.Accelerate {
			if s.acc.Observe(s.resFlat, func(idx int) float64 { return in.Tasks[idx/k].Demands[idx%k] }) {
				for i := 0; i < n; i++ {
					tot := 0.0
					for c := 0; c < k; c++ {
						tot += s.res[i][c]
					}
					s.resp[i] = tot
					s.rowDirty[i] = true
				}
			}
		}
	}
	return it
}

// rowSlowdown is one row of sweepPairedRows' walk, with the identical
// even/odd accumulation order.
func rowSlowdown(wRow, rc []float64, servers float64) float64 {
	n := len(wRow)
	var a0, a1 float64
	var j int
	for ; j+1 < n; j += 2 {
		a0 += float64(wRow[j] * rc[j])
		a1 += float64(wRow[j+1] * rc[j+1])
	}
	if j < n {
		a0 += float64(wRow[j] * rc[j])
	}
	slowdown := (1 + (a0 + a1)) / servers
	if slowdown < 1 {
		slowdown = 1
	}
	return slowdown
}

// kernelCase builds a randomized A5 operand of the model's shape: K node
// classes give 2K+1 centers, each task demands its class's CPU and disk
// centers and, with some probability, the shared network (zero elsewhere,
// so demanded-row counts per center are rarely a multiple of 4). Weights
// are dense random α/β.
func kernelCase(rng *rand.Rand, n, classes int) OverlapInput {
	k := 2*classes + 1
	in := randomOverlap(rng, n, k, rng.Intn(4))
	netShare := rng.Float64()
	for i := range in.Tasks {
		d := in.Tasks[i].Demands
		cls := rng.Intn(classes)
		for c := range d {
			if c != 2*cls && c != 2*cls+1 && c != k-1 {
				d[c] = 0
			}
		}
		if rng.Float64() > netShare {
			d[k-1] = 0
		}
		if rng.Intn(8) == 0 {
			d[2*cls+rng.Intn(2)] = 0 // a zero CPU or disk demand
		}
		if d[2*cls]+d[2*cls+1]+d[k-1] == 0 {
			d[2*cls] = 1
		}
	}
	return in
}

// namedKernel is one blockKernel implementation under test (testKernels
// lists the ones this machine can run).
type namedKernel struct {
	name string
	fn   blockKernel
}

// sweepWith runs one Step of in through the given block kernel.
func sweepWith(in OverlapInput, kernel blockKernel) (OverlapResult, error) {
	var s OverlapSolver
	tol, maxIter, err := s.prepare(&in)
	if err != nil {
		return OverlapResult{}, err
	}
	s.buildFusedWeights(&in)
	it, err := s.sweep(&in, s.w, tol, maxIter, kernel)
	if err != nil {
		return OverlapResult{}, err
	}
	return OverlapResult{Residence: s.res, Response: s.resp, Iterations: it + 1}, nil
}

// Every block kernel must reproduce the paired-row scalar sweep bit for
// bit — residences, responses and sweep counts — over n from 1 to 70, 1–3
// node classes, zero-demand rows, warm starts and acceleration on and off.
func TestOverlapKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 140; trial++ {
		n := 1 + trial%70
		in := kernelCase(rng, n, 1+rng.Intn(3))
		in.Accelerate = rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			in.Warm = make([][]float64, n)
			for i, tk := range in.Tasks {
				in.Warm[i] = make([]float64, len(tk.Demands))
				for c, d := range tk.Demands {
					in.Warm[i][c] = d * (1 + 2*rng.Float64())
				}
			}
		}
		want, err := oracleStep(in)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		want = copyResult(want)
		for _, kern := range testKernels(t) {
			got, err := sweepWith(in, kern.fn)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, kern.name, err)
			}
			if got.Iterations != want.Iterations {
				t.Errorf("trial %d (n=%d) %s: %d sweeps, oracle %d", trial, n, kern.name, got.Iterations, want.Iterations)
			}
			for i := range want.Residence {
				if math.Float64bits(got.Response[i]) != math.Float64bits(want.Response[i]) {
					t.Errorf("trial %d (n=%d) %s: response[%d] %x, oracle %x", trial, n, kern.name, i, got.Response[i], want.Response[i])
				}
				for c := range want.Residence[i] {
					if math.Float64bits(got.Residence[i][c]) != math.Float64bits(want.Residence[i][c]) {
						t.Errorf("trial %d (n=%d) %s: res[%d][%d] %x, oracle %x", trial, n, kern.name, i, c, got.Residence[i][c], want.Residence[i][c])
					}
				}
			}
		}
	}
}

// sameBits compares two kernel outputs: equal bits, or both NaN (NaN
// payloads are not part of the contract).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzOverlapKernels feeds arbitrary weight and ρ bits — NaN, infinities,
// subnormals, negative values — through every block kernel and checks each
// row against the oracle's row walk.
func FuzzOverlapKernels(f *testing.F) {
	f.Add(uint8(5), uint8(3), 2.0, []byte{1, 2, 3, 4, 5, 6, 7, 8, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(1), uint8(1), 1.0, []byte{0xff, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Add(uint8(70), uint8(9), 4.0, []byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, nQ, rowsQ uint8, servers float64, data []byte) {
		n := 1 + int(nQ)%70
		rows := 1 + int(rowsQ)%12
		slots := (rows + 3) &^ 3
		val := func(i int) float64 {
			if len(data) < 8 {
				return float64(i%7) * 0.25
			}
			off := (8 * i) % (len(data) - len(data)%8)
			return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		}
		rho := make([]float64, n)
		for j := range rho {
			rho[j] = val(j)
		}
		w := make([]float64, slots*n)
		rowW := make([][]float64, slots)
		for r := range rowW {
			rowW[r] = make([]float64, n)
			for j := range rowW[r] {
				v := val(n + r*n + j)
				rowW[r][j] = v
				w[(r&^3)*n+r&3+4*j] = v
			}
		}
		for _, kern := range testKernels(t) {
			out := make([]float64, slots)
			kern.fn(out, w, rho, servers)
			for r := 0; r < rows; r++ {
				if want := rowSlowdown(rowW[r], rho, servers); !sameBits(out[r], want) {
					t.Fatalf("%s: row %d of %d (n=%d): %x, oracle %x", kern.name, r, rows, n, out[r], want)
				}
			}
		}
	})
}

// A NaN or infinite demand is rejected up front, and weights that drive a
// residence to NaN or infinity fail the step instead of converging on it.
func TestOverlapStepRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		mod  func(in *OverlapInput)
	}{
		{"nan demand", func(in *OverlapInput) { in.Tasks[1].Demands[0] = math.NaN() }},
		{"inf demand", func(in *OverlapInput) { in.Tasks[0].Demands[1] = math.Inf(1) }},
		{"nan alpha", func(in *OverlapInput) { in.Alpha[0][0][1] = math.NaN() }},
		{"inf beta", func(in *OverlapInput) { in.Beta[1][2][2] = math.Inf(1) }},
		{"overflowing weight", func(in *OverlapInput) { in.Alpha[0][1][0] = math.MaxFloat64 }},
		{"nan prebuilt weight", func(in *OverlapInput) {
			in.Weights = packBlocked(*in, 0)
			in.Weights[5] = math.NaN()
		}},
	}
	for _, tc := range cases {
		for _, acc := range []bool{false, true} {
			in := contendedInput(4)
			in.Accelerate = acc
			tc.mod(&in)
			var s OverlapSolver
			res, err := s.Step(in)
			if err == nil {
				t.Errorf("%s (accelerate %v): converged to %v in %d sweeps, want an error", tc.name, acc, res.Response, res.Iterations)
			}
		}
	}
}

// SchweitzerBardOpt's allocation count must stay fixed regardless of how
// many sweeps the fixed point takes: the historical loop allocated a fresh
// queue matrix and residual slice per iteration.
func TestSchweitzerBardAllocBudget(t *testing.T) {
	classes := []ClassSpec{
		{Name: "maps", Population: 64, Demands: []float64{12, 3, 1}},
		{Name: "reduces", Population: 16, Demands: []float64{4, 9, 2}},
	}
	// Warm up any lazy runtime state, and confirm the spec actually iterates.
	res, err := SchweitzerBard(classes, 3, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 10 {
		t.Fatalf("spec converged in %d sweeps; too fast to expose per-sweep allocations", res.Iterations)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := SchweitzerBard(classes, 3, 1e-12, 0); err != nil {
			t.Error(err)
		}
	})
	// Fixed setup cost: q + its rows, nextQ + flat backing, resp, thr, resid,
	// and the result struct's slices. Anything scaling with Iterations (~60
	// here) would blow straight past this.
	const budget = 16
	if allocs > budget {
		t.Errorf("SchweitzerBard allocated %.0f per run, budget %d (iterations=%d)", allocs, budget, res.Iterations)
	}
}
