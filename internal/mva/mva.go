// Package mva provides Mean Value Analysis solvers for closed queueing
// networks:
//
//   - Exact single-class MVA (Reiser & Lavenberg [7]) — the classical
//     recursion, used as a verified substrate and in tests;
//   - Schweitzer–Bard approximate multiclass MVA — the O(C²N²K)-style
//     fixed-point iteration the paper's complexity analysis refers to;
//   - the overlap-weighted residence-time step (Mak & Lundstrom [5], Liang &
//     Tripathi [4]) used by the paper's model: the queueing delay of a task
//     at a center is proportional to the overlap between tasks
//     (α for tasks of the same job, β across jobs).
package mva

import (
	"errors"
	"fmt"
	"math"
)

// Center is a service center of a closed network.
type Center struct {
	Name string
	// Demand is the per-visit service demand of one customer (seconds).
	Demand float64
	// Delay marks a pure delay (infinite-server) center with no queueing.
	Delay bool
}

// ExactResult holds the output of the exact single-class solver.
type ExactResult struct {
	// ResponseTime is the end-to-end response time with N customers.
	ResponseTime float64
	// Throughput is the system throughput X(N).
	Throughput float64
	// QueueLen[k] is the mean number of customers at center k.
	QueueLen []float64
	// Residence[k] is the response time at center k.
	Residence []float64
}

// ExactSingleClass runs the exact MVA recursion for n customers over the
// centers. It returns an error for invalid inputs.
func ExactSingleClass(centers []Center, n int) (ExactResult, error) {
	if n <= 0 {
		return ExactResult{}, errors.New("mva: customer count must be positive")
	}
	if len(centers) == 0 {
		return ExactResult{}, errors.New("mva: need at least one center")
	}
	for _, c := range centers {
		if c.Demand < 0 {
			return ExactResult{}, fmt.Errorf("mva: center %q has negative demand", c.Name)
		}
	}
	k := len(centers)
	q := make([]float64, k)
	res := ExactResult{}
	for pop := 1; pop <= n; pop++ {
		resid := make([]float64, k)
		var total float64
		for i, c := range centers {
			if c.Delay {
				resid[i] = c.Demand
			} else {
				resid[i] = c.Demand * (1 + q[i])
			}
			total += resid[i]
		}
		x := float64(pop) / total
		for i := range centers {
			q[i] = x * resid[i]
		}
		res = ExactResult{ResponseTime: total, Throughput: x, QueueLen: q, Residence: resid}
	}
	// Copy queue lengths so callers can't alias internal state.
	qc := make([]float64, k)
	copy(qc, res.QueueLen)
	res.QueueLen = qc
	return res, nil
}

// ClassSpec describes one customer class of the approximate multiclass
// solver.
type ClassSpec struct {
	Name string
	// Population is the number of class customers.
	Population int
	// Demands[k] is the class's service demand at center k.
	Demands []float64
}

// ApproxResult holds the Schweitzer–Bard output.
type ApproxResult struct {
	// ResponseTime[c] is the per-class response time.
	ResponseTime []float64
	// Throughput[c] is the per-class throughput.
	Throughput []float64
	// QueueLen[c][k] is the mean class-c population at center k.
	QueueLen [][]float64
	// Iterations is the number of fixed-point sweeps used.
	Iterations int
}

// SBOptions tunes the Schweitzer–Bard fixed point beyond the classic knobs.
type SBOptions struct {
	// Warm seeds the per-class queue lengths (one row of `centers` values per
	// class) instead of the uniform spread — e.g. the QueueLen of a previous
	// solve at a nearby population. Rows are renormalized to the class
	// population (the iteration's invariant); a missing, misshapen or
	// degenerate row falls back to the uniform cold start for that class.
	Warm [][]float64
	// Accelerate enables safeguarded Aitken Δ² extrapolation on the queue
	// lengths: every third sweep the geometric tail is extrapolated, falling
	// back to the plain iterate wherever the safeguards reject the step.
	Accelerate bool
}

// SchweitzerBard runs the approximate multiclass MVA fixed point: the
// arrival-instant queue length of class c at center k is approximated by
// sum_j q_jk - q_ck/N_c. Iterates until queue lengths move less than tol.
func SchweitzerBard(classes []ClassSpec, centers int, tol float64, maxIter int) (ApproxResult, error) {
	return SchweitzerBardOpt(classes, centers, tol, maxIter, SBOptions{})
}

// SchweitzerBardOpt is SchweitzerBard with warm-start and acceleration
// options; the zero SBOptions reproduces SchweitzerBard exactly.
func SchweitzerBardOpt(classes []ClassSpec, centers int, tol float64, maxIter int, opts SBOptions) (ApproxResult, error) {
	if len(classes) == 0 {
		return ApproxResult{}, errors.New("mva: need at least one class")
	}
	if centers <= 0 {
		return ApproxResult{}, errors.New("mva: need at least one center")
	}
	if tol <= 0 {
		tol = 1e-9
	}
	if maxIter <= 0 {
		maxIter = 10_000
	}
	for _, c := range classes {
		if c.Population <= 0 {
			return ApproxResult{}, fmt.Errorf("mva: class %q has non-positive population", c.Name)
		}
		if len(c.Demands) != centers {
			return ApproxResult{}, fmt.Errorf("mva: class %q has %d demands, want %d", c.Name, len(c.Demands), centers)
		}
	}
	nc := len(classes)
	q := make([][]float64, nc)
	for c := range q {
		q[c] = make([]float64, centers)
		pop := float64(classes[c].Population)
		if !warmRow(q[c], opts.Warm, c, pop) {
			// Spread the class population evenly as the starting point.
			for k := 0; k < centers; k++ {
				q[c][k] = pop / float64(centers)
			}
		}
	}
	resp := make([]float64, nc)
	thr := make([]float64, nc)
	var acc Aitken
	if opts.Accelerate {
		acc.Init(nc * centers)
	}
	// Double-buffer the queue lengths over flat backing: the historical loop
	// allocated newQ and resid on every sweep, which dominated the allocation
	// profile of long fixed points (TestSchweitzerBardAllocBudget pins the
	// fixed budget).
	nextQ := make([][]float64, nc)
	nextFlat := make([]float64, nc*centers)
	for c := range nextQ {
		nextQ[c] = nextFlat[c*centers : (c+1)*centers : (c+1)*centers]
	}
	resid := make([]float64, centers)
	var it int
	for it = 0; it < maxIter; it++ {
		maxDelta := 0.0
		for c := range classes {
			var total float64
			for k := 0; k < centers; k++ {
				// Arrival theorem approximation.
				arr := 0.0
				for j := range classes {
					arr += q[j][k]
				}
				arr -= q[c][k] / float64(classes[c].Population)
				resid[k] = classes[c].Demands[k] * (1 + arr)
				total += resid[k]
			}
			x := float64(classes[c].Population) / total
			resp[c] = total
			thr[c] = x
			for k := 0; k < centers; k++ {
				nextQ[c][k] = x * resid[k]
				if d := math.Abs(nextQ[c][k] - q[c][k]); d > maxDelta {
					maxDelta = d
				}
			}
		}
		q, nextQ = nextQ, q
		if maxDelta < tol {
			break
		}
		if opts.Accelerate {
			// Queue lengths are nonnegative; the renormalizing sweep above
			// restores the per-class population invariant after any
			// extrapolation, so the floor is the only safeguard needed here.
			acc.ObserveRows(q, func(int) float64 { return 0 })
		}
	}
	return ApproxResult{ResponseTime: resp, Throughput: thr, QueueLen: q, Iterations: it + 1}, nil
}

// warmRow seeds one class's queue-length row from a warm matrix, normalized
// to the class population. It reports false (leaving dst untouched) when the
// warm row is absent, misshapen or degenerate.
func warmRow(dst []float64, warm [][]float64, c int, pop float64) bool {
	if c >= len(warm) || len(warm[c]) != len(dst) {
		return false
	}
	sum := 0.0
	for _, v := range warm[c] {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		sum += v
	}
	if sum <= 0 {
		return false
	}
	scale := pop / sum
	for k, v := range warm[c] {
		dst[k] = v * scale
	}
	return true
}

// Aitken is the shared safeguarded Δ² accelerator behind every
// fixed-point loop in the model (the overlap solver, Schweitzer–Bard, and
// core's outer class-response iteration): it records two plain iterates
// (x0, x1), and on the third (x2) extrapolates each component's geometric
// tail — x* = x2 − (Δx1)²/(Δ²x0) — wherever the safeguards hold: a
// non-degenerate second difference, a bounded step (≤ 8·|Δx1|, so a
// near-stalled denominator cannot fling the iterate), a finite result and a
// caller-supplied component floor. Components failing any check keep the
// plain iterate — the "safeguarded fallback to plain damping". Convergence
// must always be declared on plain sweep deltas, never on an extrapolated
// one: callers Observe *after* their tolerance check. The zero Aitken is
// not ready; call Init first.
type Aitken struct {
	x0, x1 []float64
	phase  int
}

// Init sizes the accelerator for n-component iterates and resets its phase.
func (a *Aitken) Init(n int) {
	a.x0 = make([]float64, n)
	a.x1 = make([]float64, n)
	a.phase = 0
}

// Observe feeds the current iterate (flat, same length as Init); on every
// third call it writes the extrapolated components back into cur. floor(i)
// is the smallest admissible value of component i. Extrapolated reports
// whether this call changed cur.
func (a *Aitken) Observe(cur []float64, floor func(int) float64) (extrapolated bool) {
	switch a.phase {
	case 0:
		copy(a.x0, cur)
		a.phase = 1
	case 1:
		copy(a.x1, cur)
		a.phase = 2
	default:
		for i, x2 := range cur {
			x0, x1 := a.x0[i], a.x1[i]
			d1, d2 := x1-x0, x2-x1
			den := d2 - d1
			if math.Abs(den) <= 1e-12*(1+math.Abs(x2)) {
				continue // stalled or already converged component
			}
			x := x2 - d2*d2/den
			if math.IsNaN(x) || math.IsInf(x, 0) || x < floor(i) || math.Abs(x-x2) > 8*math.Abs(d2) {
				continue // safeguard: keep the plain iterate
			}
			cur[i] = x
			extrapolated = true
		}
		a.phase = 0
	}
	return extrapolated
}

// ObserveRows is Observe over a row-matrix iterate (flattened view).
func (a *Aitken) ObserveRows(rows [][]float64, floor func(int) float64) {
	// Flatten through a scratch-free two-pass: copy into the phase buffers
	// or extrapolate in place, reusing observe's logic per row segment.
	off := 0
	switch a.phase {
	case 0:
		for _, r := range rows {
			copy(a.x0[off:off+len(r)], r)
			off += len(r)
		}
		a.phase = 1
	case 1:
		for _, r := range rows {
			copy(a.x1[off:off+len(r)], r)
			off += len(r)
		}
		a.phase = 2
	default:
		for _, r := range rows {
			for k, x2 := range r {
				i := off + k
				x0, x1 := a.x0[i], a.x1[i]
				d1, d2 := x1-x0, x2-x1
				den := d2 - d1
				if math.Abs(den) <= 1e-12*(1+math.Abs(x2)) {
					continue
				}
				x := x2 - d2*d2/den
				if math.IsNaN(x) || math.IsInf(x, 0) || x < floor(i) || math.Abs(x-x2) > 8*math.Abs(d2) {
					continue
				}
				r[k] = x
			}
			off += len(r)
		}
		a.phase = 0
	}
}

// TaskDemand describes one task (a leaf of the precedence tree) to the
// overlap-weighted solver: its service demand at each center.
type TaskDemand struct {
	Demands []float64
}

// WeightStride is the distance between W^c_ij and W^c_i,j+1 in the
// blocked OverlapInput.Weights layout: the number of rows a block
// interleaves.
const WeightStride = 4

// OverlapInput drives one overlap-weighted residence-time step. The
// overlap enters either as the fused weights (Weights) or as the α/β pair
// the solver fuses itself (Alpha, Beta).
type OverlapInput struct {
	Tasks []TaskDemand
	// Weights, when non-nil, holds the fused weights
	// W^c_ij = α^c_ij + (N−1)β^c_ij (diagonal (N−1)β^c_ii only) in the
	// blocked row layout the sweep kernel reads. Only rows (c, i) whose task
	// i has nonzero demand at center c are stored: per center in task order,
	// packed four (WeightStride) rows to a block of 4n entries, j-major
	// inside the block, so the r-th stored row of center c puts W^c_ij at
	// (B_c + ⌊r/4⌋)·4n + r mod 4 + 4j, where B_c counts the blocks of the
	// centers before c. Each center's final partial block is padded to four
	// lanes; the padding lanes' contents never reach a result.
	// OverlapSolver.Weights returns a buffer in this layout with each row's
	// offset; a Step handed that buffer back reuses the layout and only
	// checks that Tasks still match it. Alpha and Beta are ignored when
	// Weights is set.
	Weights []float64
	// Alpha[k][i][j] is the intra-job overlap factor between tasks i and j as
	// seen by center k (per-node centers zero out pairs on different nodes).
	Alpha [][][]float64
	// Beta[k][i][j] is the inter-job overlap contribution of task j of *one*
	// other (statistically identical) job on task i at center k.
	Beta [][][]float64
	// Servers[k] is the service multiplicity of center k (cores per node,
	// disks per node, network fabric width). Zero or negative defaults to 1.
	Servers []float64
	// OtherJobs is N-1: how many identical competing jobs to account for.
	OtherJobs int
	// Tol and MaxIter bound the inner fixed point.
	Tol     float64
	MaxIter int
	// Warm optionally seeds the fixed point with a prior residence matrix
	// (one row of per-center residence times per task) instead of the cold
	// residence=demand start — e.g. the previous outer iteration's converged
	// Residence, or a neighboring configuration's. Entries are clamped from
	// below by the task demand (a valid residence never undercuts it, since
	// the slowdown factor is ≥ 1); a misshapen or non-finite row falls back
	// to the cold start for that task. Warm may alias the solver's own
	// previous result.
	Warm [][]float64
	// Accelerate enables safeguarded Aitken Δ² extrapolation of the
	// residence iterates (every third sweep, component-wise, falling back to
	// the plain damped iterate wherever the safeguards reject the step).
	// Convergence is still only ever declared on a plain sweep's delta.
	Accelerate bool
}

// OverlapResult holds per-task response and residence times.
type OverlapResult struct {
	// Residence[i][k] is task i's residence time at center k.
	Residence [][]float64
	// Response[i] = sum_k Residence[i][k].
	Response []float64
	// Iterations is the number of sweeps used.
	Iterations int
}

// OverlapSolver runs overlap-weighted residence-time steps with reusable
// scratch buffers: the residence matrices are double-buffered over flat
// backing arrays, so repeated Step calls — the outer loop of the paper's
// model iterates the step to a fixed point, and batched predictions solve
// many steps of the same shape — allocate nothing once warmed up.
//
// A solver is not safe for concurrent use. The matrices inside the returned
// OverlapResult alias solver-owned memory and are valid until the next Step
// call; callers that retain them across steps must copy.
type OverlapSolver struct {
	resFlat  []float64 // n×k residence matrix backing, current iterate
	nextFlat []float64 // n×k residence matrix backing, next iterate
	res      [][]float64
	next     [][]float64
	resp     []float64
	servers  []float64
	rhoC     []float64 // k×n center-major visit probabilities
	rowSum   []float64 // per-task residence total of the sweep in progress
	// rowDirty marks the tasks whose residence changed on the last sweep;
	// the sweep in progress marks rowChanged, and the two swap.
	rowDirty, rowChanged []bool
	acc                  Aitken // Δ² accelerator scratch (Accelerate inputs only)
	n, k                 int

	// The blocked weight layout of the current task set (see
	// OverlapInput.Weights). Row slots count four per block; every center
	// starts on a block boundary.
	w       []float64 // solver-owned weights (Weights, or fused from Alpha/Beta)
	rowBase []int     // k×n: offset of W^c_i0, or -1 where task i has no demand at c
	blkOff  []int     // k+1: center c owns blocks blkOff[c] .. blkOff[c+1]-1
	rowsAt  []int     // k: demanded rows per center (the rest are padding)
	rowTask []int     // per row slot: its task, or -1 for a padding lane
	rowDem  []float64 // per row slot: that task's demand at the slot's center
	slow    []float64 // one center's kernel output, a slowdown per row slot
	// fromWeights reports that w and the layout are those the last
	// Weights call handed out, so a Step given w may reuse the layout.
	fromWeights bool
}

// ensure sizes the residence scratch for n tasks over k centers, reusing
// capacity.
func (s *OverlapSolver) ensure(n, k int) {
	if s.n == n && s.k == k {
		return
	}
	s.n, s.k = n, k
	need := n * k
	if cap(s.resFlat) < need {
		s.resFlat = make([]float64, need)
		s.nextFlat = make([]float64, need)
		s.rhoC = make([]float64, need)
	}
	s.resFlat = s.resFlat[:need]
	s.nextFlat = s.nextFlat[:need]
	s.rhoC = s.rhoC[:need]
	if cap(s.rowDirty) < n {
		s.rowDirty = make([]bool, n)
		s.rowChanged = make([]bool, n)
	}
	s.rowDirty = s.rowDirty[:n]
	s.rowChanged = s.rowChanged[:n]
	if cap(s.res) < n {
		s.res = make([][]float64, n)
		s.next = make([][]float64, n)
	}
	s.res = s.res[:n]
	s.next = s.next[:n]
	for i := 0; i < n; i++ {
		s.res[i] = s.resFlat[i*k : (i+1)*k : (i+1)*k]
		s.next[i] = s.nextFlat[i*k : (i+1)*k : (i+1)*k]
	}
	s.resp = growFloats(s.resp, n)
	s.rowSum = growFloats(s.rowSum, n)
	s.servers = growFloats(s.servers, k)
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// validateTasks checks a task set's demand vectors: at least one task, one
// common nonzero center count, finite nonnegative demands and a positive
// total demand per task.
func validateTasks(tasks []TaskDemand) error {
	if len(tasks) == 0 {
		return errors.New("mva: no tasks")
	}
	k := len(tasks[0].Demands)
	if k == 0 {
		return errors.New("mva: tasks need at least one center demand")
	}
	for i, t := range tasks {
		if len(t.Demands) != k {
			return fmt.Errorf("mva: task %d has %d demands, want %d", i, len(t.Demands), k)
		}
		tot := 0.0
		for _, d := range t.Demands {
			if d < 0 {
				return fmt.Errorf("mva: task %d has negative demand", i)
			}
			if math.IsNaN(d) || math.IsInf(d, 0) {
				return fmt.Errorf("mva: task %d has non-finite demand %v", i, d)
			}
			tot += d
		}
		if tot <= 0 {
			return fmt.Errorf("mva: task %d has zero total demand", i)
		}
	}
	return nil
}

// layout lays out the blocked weight rows of a validated task set and
// returns the number of weights they span.
func (s *OverlapSolver) layout(tasks []TaskDemand) int {
	n, k := len(tasks), len(tasks[0].Demands)
	s.rowBase = growInts(s.rowBase, k*n)
	s.blkOff = growInts(s.blkOff, k+1)
	s.rowsAt = growInts(s.rowsAt, k)
	// Capacity follows the shape, not the demand pattern: at most n rows
	// per center, padded by up to 3. A solver reused across the patterns
	// of one shape then never reallocates.
	if slots := k * (n + 3); cap(s.rowTask) < slots {
		s.rowTask, s.rowDem = make([]int, 0, slots), make([]float64, 0, slots)
	}
	s.rowTask, s.rowDem = s.rowTask[:0], s.rowDem[:0]
	maxSlots := 0
	for c := 0; c < k; c++ {
		first := len(s.rowTask)
		s.blkOff[c] = first / WeightStride
		for i := range tasks {
			d := tasks[i].Demands[c]
			if d == 0 {
				s.rowBase[c*n+i] = -1
				continue
			}
			r := len(s.rowTask)
			s.rowBase[c*n+i] = r/WeightStride*WeightStride*n + r%WeightStride
			s.rowTask = append(s.rowTask, i)
			s.rowDem = append(s.rowDem, d)
		}
		s.rowsAt[c] = len(s.rowTask) - first
		for len(s.rowTask)%WeightStride != 0 {
			s.rowTask = append(s.rowTask, -1)
			s.rowDem = append(s.rowDem, 0)
		}
		maxSlots = max(maxSlots, len(s.rowTask)-first)
	}
	s.blkOff[k] = len(s.rowTask) / WeightStride
	s.slow = growFloats(s.slow, n+3)[:maxSlots]
	return len(s.rowTask) * n
}

// Weights lays out the solver's own weight buffer for tasks in the blocked
// OverlapInput.Weights layout and returns it with the row offsets:
// W^c_ij belongs at w[rowBase[c·n+i] + WeightStride·j], and rowBase[c·n+i]
// is -1 where task i has no demand at center c (the sweep never reads that
// row, so it is not stored). The caller writes every stored row and passes
// w back as OverlapInput.Weights with the same Tasks; the padding lanes
// come zeroed. Step then reuses this layout, and fails if the Tasks it is
// given differ from these. Both slices are solver scratch, valid until the
// next Weights call or the next Step that is not given w.
func (s *OverlapSolver) Weights(tasks []TaskDemand) (w []float64, rowBase []int, err error) {
	if err := validateTasks(tasks); err != nil {
		return nil, nil, err
	}
	s.sizeWeights(len(tasks), s.layout(tasks))
	s.fromWeights = true
	return s.w, s.rowBase, nil
}

// ownsWeights reports whether w is the solver's own weight buffer.
func (s *OverlapSolver) ownsWeights(w []float64) bool {
	return len(w) > 0 && len(s.w) > 0 && &w[0] == &s.w[0]
}

var errLayoutMismatch = errors.New("mva: Tasks differ from the task set the Weights buffer was laid out for")

// matchLayout checks that tasks are the task set the current layout was
// built from: the same shape, a stored row exactly where a demand is
// nonzero, and each stored row's demand unchanged. The layout's tasks were
// validated, so a match needs no further validation (a NaN matches
// nothing).
func (s *OverlapSolver) matchLayout(tasks []TaskDemand) error {
	k := len(s.blkOff) - 1
	n := len(s.rowBase) / k
	if len(tasks) != n {
		return errLayoutMismatch
	}
	for _, t := range tasks {
		if len(t.Demands) != k {
			return errLayoutMismatch
		}
	}
	for c := 0; c < k; c++ {
		r := WeightStride * s.blkOff[c]
		for i := range tasks {
			d := tasks[i].Demands[c]
			if (d == 0) != (s.rowBase[c*n+i] < 0) {
				return errLayoutMismatch
			}
			if d != 0 {
				if s.rowDem[r] != d {
					return errLayoutMismatch
				}
				r++
			}
		}
	}
	return nil
}

// sizeWeights sizes the solver-owned weight buffer to the current layout
// of n tasks (size weights) and zeroes its padding lanes.
func (s *OverlapSolver) sizeWeights(n, size int) {
	if c := cap(s.rowTask) * n; cap(s.w) < size {
		s.w = make([]float64, size, c) // the layout's capacity bound
	}
	s.w = s.w[:size]
	for r, i := range s.rowTask {
		if i < 0 {
			pad := s.w[(r&^3)*n : (r&^3+4)*n]
			for j := r & 3; j < len(pad); j += 4 {
				pad[j] = 0
			}
		}
	}
}

// Step solves the overlap-weighted residence-time fixed point
// (Mak–Lundstrom arrival queue lengths over processor-sharing multi-server
// centers):
//
//	arr_ik = sum_{j≠i} α^k_ij ρ_jk + (N-1) sum_j β^k_ij ρ_jk
//	R_ik   = D_ik * max(1, (1 + arr_ik) / c_k)
//
// with ρ_jk = R_jk / R_j the probability that an active task j resides at
// center k, and c_k the center's service multiplicity. For c_k = 1 this is
// the classical single-server inflation D_ik*(1+arr); for c_k > 1 it is the
// fluid processor-sharing law: no slowdown until the expected concurrency
// exceeds the server count. Iterates until response times are stable.
// The arrival sum is evaluated as sum_j W^k_ij ρ_jk over the fused weights
// (OverlapInput.Weights, or built once per Step from Alpha and Beta). A
// sweep that produces a non-finite residence — overflowing or NaN weights —
// fails the step instead of reporting it converged.
func (s *OverlapSolver) Step(in OverlapInput) (OverlapResult, error) {
	tol, maxIter, err := s.prepare(&in)
	if err != nil {
		return OverlapResult{}, err
	}
	w := in.Weights
	if w == nil {
		s.buildFusedWeights(&in)
		w = s.w
	}
	it, err := s.sweep(&in, w, tol, maxIter, slowdowns)
	if err != nil {
		return OverlapResult{}, err
	}
	return OverlapResult{Residence: s.res, Response: s.resp, Iterations: it + 1}, nil
}

// prepare validates a Step input, sizes the scratch, lays out the weight
// rows (or, for the solver's own Weights buffer, checks the tasks against
// the layout it was handed out with) and loads the starting residence
// matrix. It returns the resolved tolerance and sweep budget.
func (s *OverlapSolver) prepare(in *OverlapInput) (tol float64, maxIter int, err error) {
	if s.ownsWeights(in.Weights) {
		if !s.fromWeights || len(in.Weights) != len(s.w) {
			return 0, 0, errors.New("mva: Weights is a solver buffer from before its last relayout; call Weights again")
		}
		if err := s.matchLayout(in.Tasks); err != nil {
			return 0, 0, err
		}
	} else {
		if err := validateTasks(in.Tasks); err != nil {
			return 0, 0, err
		}
		s.fromWeights = false
		size := s.layout(in.Tasks)
		if in.Weights != nil && len(in.Weights) != size {
			return 0, 0, fmt.Errorf("mva: Weights has %d entries, want %d (blocks of 4 demanded rows × tasks)", len(in.Weights), size)
		}
	}
	n, k := len(in.Tasks), len(in.Tasks[0].Demands)
	if in.Weights == nil {
		if len(in.Alpha) != k || len(in.Beta) != k {
			return 0, 0, errors.New("mva: overlap matrices must have one layer per center")
		}
		for c := 0; c < k; c++ {
			if len(in.Alpha[c]) != n || len(in.Beta[c]) != n {
				return 0, 0, errors.New("mva: overlap matrix size mismatch")
			}
		}
	}
	if in.Servers != nil && len(in.Servers) != k {
		return 0, 0, errors.New("mva: Servers must have one entry per center")
	}
	s.ensure(n, k)
	for c := 0; c < k; c++ {
		s.servers[c] = 1
		if in.Servers != nil && in.Servers[c] > 0 {
			s.servers[c] = in.Servers[c]
		}
	}
	tol = in.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter = in.MaxIter
	if maxIter <= 0 {
		maxIter = 500
	}

	// Initialize residence = demand, or from the warm matrix where it
	// supplies a valid (≥ demand, finite) value. Note the warm rows may
	// alias s.res itself (the previous Step's result): the element-wise
	// max below is alias-safe because entry (i,c) only reads entry (i,c).
	// Entries with zero demand stay zero in both residence buffers and in
	// ρ: the sweep writes only demanded entries.
	clear(s.rhoC)
	for i := 0; i < n; i++ {
		var row []float64
		if i < len(in.Warm) && len(in.Warm[i]) == k {
			row = in.Warm[i]
		}
		tot := 0.0
		for c, d := range in.Tasks[i].Demands {
			v := d
			if row != nil && d > 0 && row[c] > d && !math.IsInf(row[c], 0) && !math.IsNaN(row[c]) {
				v = row[c]
			}
			if d == 0 {
				v = 0
				s.next[i][c] = 0
			}
			s.res[i][c] = v
			tot += v
		}
		s.resp[i] = tot
	}

	if in.Accelerate {
		if len(s.acc.x0) != n*k {
			s.acc.Init(n * k)
		} else {
			s.acc.phase = 0
		}
	}
	return tol, maxIter, nil
}

// buildFusedWeights packs W[c] = Alpha[c] + (N-1)·Beta[c] into the
// solver-owned buffer in the blocked OverlapInput.Weights layout. The
// diagonal keeps only the β self-term: α excludes a task's overlap with
// itself, while the twin of task i in another job contends fully. Rows
// whose task demand at the center is zero are not stored.
func (s *OverlapSolver) buildFusedWeights(in *OverlapInput) {
	n, k := s.n, s.k
	s.sizeWeights(n, len(s.rowTask)*n)
	otherJobs := float64(in.OtherJobs)
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			base := s.rowBase[c*n+i]
			if base < 0 {
				continue
			}
			alphaRow := in.Alpha[c][i]
			betaRow := in.Beta[c][i]
			for j := 0; j < n; j++ {
				s.w[base+WeightStride*j] = alphaRow[j] + otherJobs*betaRow[j]
			}
			s.w[base+WeightStride*i] = otherJobs * betaRow[i]
		}
	}
}

// sweep iterates the residence fixed point over blocked weights w. Per
// center it refreshes ρ (center-major) for the demanded rows, runs the
// block kernel over them four at a time and scatters the new residences,
// accumulating each task's row total as it goes: centers run in
// increasing order, so every total adds its terms in the same order as a
// row-wise sum, and skipping the zero terms of undemanded centers changes
// no bit. A row's slowdown depends on nothing but its own weights and ρ,
// so the kernel choice cannot change a result either.
func (s *OverlapSolver) sweep(in *OverlapInput, w []float64, tol float64, maxIter int, kernel blockKernel) (int, error) {
	n, k := s.n, s.k
	// All rows start dirty: ρ has never been computed for this iterate.
	for i := range s.rowDirty {
		s.rowDirty[i] = true
	}
	var it int
	for it = 0; it < maxIter; it++ {
		res, next, resp := s.resFlat, s.nextFlat, s.resp
		dirty, changed, sum := s.rowDirty, s.rowChanged, s.rowSum
		clear(sum)
		clear(changed)
		for c := 0; c < k; c++ {
			lo, hi := 4*s.blkOff[c], 4*s.blkOff[c+1]
			if lo == hi {
				continue
			}
			rows := s.rowTask[lo : lo+s.rowsAt[c]]
			// ρ_jc = R_jc / R_j. Rows whose residence was bit-unchanged by
			// the previous sweep divide to the same value, so only dirty
			// rows are recomputed; undemanded entries stay zero.
			rc := s.rhoC[c*n : (c+1)*n]
			for _, i := range rows {
				if dirty[i] {
					rc[i] = res[i*k+c] / resp[i]
				}
			}
			out := s.slow[:hi-lo]
			kernel(out, w[lo*n:hi*n], rc, s.servers[c])
			dem := s.rowDem[lo:hi]
			for r, i := range rows {
				// Round the product: a fused multiply-add into the row
				// total would disagree with the residence stored.
				v := float64(dem[r] * out[r])
				next[i*k+c] = v
				sum[i] += v
				if v != res[i*k+c] {
					changed[i] = true
				}
			}
		}
		maxDelta := 0.0
		for i, tot := range sum {
			// NaN compares false both ways: a NaN delta becomes maxDelta.
			if delta := math.Abs(tot - resp[i]); !(delta <= maxDelta) {
				maxDelta = delta
			}
			resp[i] = tot
		}
		if math.IsNaN(maxDelta) || math.IsInf(maxDelta, 0) {
			return it, fmt.Errorf("mva: overlap fixed point diverged to a non-finite residence on sweep %d", it+1)
		}
		s.res, s.next = s.next, s.res
		s.resFlat, s.nextFlat = s.nextFlat, s.resFlat
		s.rowDirty, s.rowChanged = s.rowChanged, s.rowDirty
		if maxDelta < tol {
			break
		}
		if in.Accelerate {
			if s.acc.Observe(s.resFlat, func(idx int) float64 { return in.Tasks[idx/k].Demands[idx%k] }) {
				// The extrapolated matrix changed the row sums the next
				// sweep's visit probabilities divide by — and every row, so
				// the dirty bitmap resets.
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
	return it, nil
}

// OverlapStep solves one overlap-weighted residence-time step with a fresh
// solver (see OverlapSolver.Step). The result's matrices are freshly owned
// by the caller.
func OverlapStep(in OverlapInput) (OverlapResult, error) {
	var s OverlapSolver
	return s.Step(in)
}
