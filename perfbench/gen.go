package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/trace"
	"hadoop2perf/internal/workflow"
	"hadoop2perf/internal/workload"
)

// kind is the endpoint a generated request targets.
type kind int

const (
	kindPredict kind = iota
	kindPlan
	kindSimulate
	kindCalibrate
	numKinds
)

var kindPaths = [numKinds]string{"/v1/predict", "/v1/plan", "/v1/simulate", "/v1/calibrate"}

// The wire shapes below mirror the mrserved request bodies (docs/API.md).
// They are declared here rather than imported so that a wire-decoding bug
// in the server shows up as a wrong answer instead of cancelling out.

type clusterWire struct {
	Nodes   int                 `json:"nodes,omitempty"`
	Classes []cluster.NodeClass `json:"classes,omitempty"`
}

type jobWire struct {
	InputMB     float64 `json:"inputMB"`
	BlockSizeMB float64 `json:"blockSizeMB,omitempty"`
	Reduces     int     `json:"reduces,omitempty"`
	Profile     string  `json:"profile,omitempty"`
}

type predictWire struct {
	Cluster   clusterWire `json:"cluster"`
	Job       jobWire     `json:"job"`
	NumJobs   int         `json:"numJobs,omitempty"`
	Estimator string      `json:"estimator,omitempty"`
	Profile   string      `json:"profile,omitempty"`
}

type stageWire struct {
	Name string  `json:"name"`
	Job  jobWire `json:"job"`
}

type workflowWire struct {
	Stages []stageWire     `json:"stages"`
	Edges  []workflow.Edge `json:"edges,omitempty"`
}

type planWire struct {
	Cluster     clusterWire   `json:"cluster"`
	Job         *jobWire      `json:"job,omitempty"`
	NumJobs     int           `json:"numJobs,omitempty"`
	Estimator   string        `json:"estimator,omitempty"`
	Nodes       []int         `json:"nodes"`
	DeadlineSec float64       `json:"deadlineSec"`
	Exhaustive  bool          `json:"exhaustive,omitempty"`
	Profile     string        `json:"profile,omitempty"`
	Workflow    *workflowWire `json:"workflow,omitempty"`
}

type simulateWire struct {
	Cluster clusterWire `json:"cluster"`
	Job     jobWire     `json:"job"`
	Seed    int64       `json:"seed"`
	Reps    int         `json:"reps"`
}

type calibrateWire struct {
	Name    string          `json:"name"`
	Trace   json.RawMessage `json:"trace"`
	CVFloor float64         `json:"cvFloor"`
}

// calibrateCVFloor is the fit option every generated calibration sends.
const calibrateCVFloor = 0.05

// request is one generated request: its endpoint, its exact body, and the
// decoded form the correctness gate recomputes it from.
type request struct {
	kind    kind
	body    []byte
	predict *predictWire
	plan    *planWire
	sim     *simulateWire
	// traceIdx is the calibration trace a calibrate request sends.
	traceIdx int
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode request: %v", err)) // static shapes: a bug
	}
	return b
}

func newPredict(p predictWire) request {
	return request{kind: kindPredict, body: mustJSON(p), predict: &p}
}

func newPlan(p planWire) request {
	return request{kind: kindPlan, body: mustJSON(p), plan: &p}
}

// estimators are the tree estimators the mixes vary. Tripathi is left out:
// its moment propagation costs 50 ms or more per outer round (100–1500 ms
// per prediction, against 0.2–12 ms for the others), so a small share of
// it would swamp every other layer's cost in the mix.
var (
	estimators  = []string{"fork/join", "paper-literal"}
	jobProfiles = []string{"wordcount", "grep", "terasort"}
	blockSizes  = []float64{64, 128, 256}
)

// randCluster draws a cluster: about a quarter are 2-class heterogeneous
// specs (K = 2), the rest flat clusters of 2–16 nodes.
func randCluster(r *rand.Rand) clusterWire {
	if r.IntN(4) == 0 {
		return clusterWire{Classes: []cluster.NodeClass{
			{Name: "fast", Count: 1 + r.IntN(8), Capacity: cluster.Resource{MemoryMB: 32768, VCores: 32},
				CPUs: 8, Disks: 2, DiskMBps: 240, NetworkMBps: 110, Speed: 1.5},
			{Name: "slow", Count: 1 + r.IntN(8), Capacity: cluster.Resource{MemoryMB: 16384, VCores: 16},
				CPUs: 4, Disks: 1, DiskMBps: 160, NetworkMBps: 110, Speed: 0.8},
		}}
	}
	return clusterWire{Nodes: 2 + r.IntN(15)}
}

// randPredict draws one prediction over the axes the model's cost depends
// on: task count (input and block size), reducers 1–8, concurrent jobs
// 1–4, estimator and cluster shape. Each axis is uniform over its range,
// an assumption in the absence of recorded traffic; 4–48 maps run from
// under one wave to several on the clusters drawn. uniq makes the body
// distinct from every other uniq value without changing the task count
// (see shave).
func randPredict(r *rand.Rand, uniq int) predictWire {
	block := blockSizes[r.IntN(len(blockSizes))]
	maps := 4 + r.IntN(45)
	return predictWire{
		Cluster: randCluster(r),
		Job: jobWire{
			InputMB:     float64(maps)*block - 0.25 - shave(uniq),
			BlockSizeMB: block,
			Reduces:     1 + r.IntN(8),
			Profile:     jobProfiles[r.IntN(len(jobProfiles))],
		},
		NumJobs:   1 + r.IntN(4),
		Estimator: estimators[r.IntN(len(estimators))],
	}
}

// generator yields a workload's request stream, a function of the seed
// alone: the same seed gives the same stream byte for byte.
type generator struct {
	r    *rand.Rand
	i    int
	draw func(g *generator) request
	// traces are plan-sim-calibrate's calibration bodies; shapes is the
	// workload's fixed corpus of prediction shapes (in plan-sim-calibrate,
	// repeats make cache hits).
	traces []calibrationTrace
	shapes []predictWire
	plans  []planTemplate
	cals   int
	// Decks stratify plan-sim-calibrate's draws: request kinds, single-job
	// (template, deadline stratum) pairs, the other plans' deadline strata
	// and the prediction shapes.
	kinds, singles, jobs4, chains, shapeDeck *deck
}

func (g *generator) next() request {
	req := g.draw(g)
	g.i++
	return req
}

// take returns the next n requests.
func (g *generator) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func seededRand(seed uint64, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, salt))
}

// shave is how much uniq takes off a job's input: at most 10 MB, so the
// input stays inside the same whole number of blocks.
func shave(uniq int) float64 { return float64(uniq%1_000_000) * 1e-5 }

// missCorpus is the number of predict-miss shapes, the open-loop request
// count of a 50 s run. The shapes are a fixed corpus, the same for every
// seed, which the seed deals in a shuffled order: drawn per seed, the
// shapes' mean model cost moved by up to 30% from one seed to the next.
const missCorpus = 3000

// newMissGen builds the predict-miss stream: the corpus in a per-seed
// shuffle, each request made unique by shaving its stream index off the
// input.
func newMissGen(seed uint64) *generator {
	sr := seededRand(0, 1)
	shapes := make([]predictWire, missCorpus)
	for i := range shapes {
		shapes[i] = randPredict(sr, 0)
	}
	r := seededRand(seed, 1)
	return &generator{r: r, shapes: shapes, shapeDeck: newDeck(r, uniform(missCorpus)...), draw: func(g *generator) request {
		p := g.shapes[g.shapeDeck.deal()]
		p.Job.InputMB -= shave(g.i)
		return newPredict(p)
	}}
}

// calibrationTrace is one job-history trace plan-sim-calibrate calibrates
// from: the parsed run and the calibrate body built from it.
type calibrationTrace struct {
	name   string
	result mrsim.Result
	body   []byte
}

// profileNames are the calibrated profiles plan-sim-calibrate maintains;
// each is re-versioned by cycling through tracesPerProfile traces.
var profileNames = []string{"etl", "adhoc"}

const tracesPerProfile = 3

// traceFiles are the calibration traces, traces/<profile>-<k>.json: trace
// documents of simulated 512 MB runs on 4 nodes with 2 reducers (etl:
// wordcount, adhoc: terasort), each with its own seeded jitter so every
// trace fits to distinct statistics. They are files rather than simulated
// at set-up so that the request stream is a function of the seed alone: a
// change to the simulator must not change the workload it is measured on.
//
//go:embed traces/*.json
var traceFiles embed.FS

// loadTraces reads the calibration traces in profile order.
func loadTraces() ([]calibrationTrace, error) {
	var out []calibrationTrace
	for _, name := range profileNames {
		for k := 1; k <= tracesPerProfile; k++ {
			doc, err := traceFiles.ReadFile(fmt.Sprintf("traces/%s-%d.json", name, k))
			if err != nil {
				return nil, err
			}
			res, err := trace.Read(bytes.NewReader(doc))
			if err != nil {
				return nil, fmt.Errorf("calibration trace %s-%d: %w", name, k, err)
			}
			body := mustJSON(calibrateWire{Name: name, Trace: bytes.TrimSpace(doc), CVFloor: calibrateCVFloor})
			out = append(out, calibrationTrace{name: name, result: res, body: body})
		}
	}
	return out, nil
}

// The plan-sim-calibrate mix: cards per 100 requests. No record of real
// mrserved traffic exists, so the weights are assumptions, each chosen so
// its layer gets a share of the server's time without drowning the rest:
// single-job searches are taken as the common plan, with 4-job and chain
// plans rarer; small simulations are cheap but run the whole event loop;
// a calibration every 50 requests lets each profile version serve about a
// hundred reads before its cache keys change; and predictions, the
// cheapest reads, fill the rest.
const (
	pscPlanSingle = 15 // deadline plan, one job, 64-point node axis
	pscPlanJobs4  = 10 // deadline plan, 4 contended jobs, 64-point axis
	pscPlanChain  = 5  // deadline plan, 20-stage workflow chain
	pscSimulate   = 24 // small seeded simulation
	pscCalibrate  = 2  // re-version a profile
	pscPredict    = 44 // profile-backed prediction
)

// pscShapes is the number of distinct profile-backed prediction shapes;
// between recalibrations repeated shapes hit the cache.
const pscShapes = 64

// planNodes is the deadline plans' node axis: 2..65, 64 points.
var planNodes = func() []int {
	out := make([]int, 64)
	for i := range out {
		out[i] = 2 + i
	}
	return out
}()

// planTemplate is one plan shape of the mix with its response-time range
// over the node axis. Deadlines are drawn inside the range, so searches
// bisect to an interior frontier instead of stopping at an axis end.
type planTemplate struct {
	plan   planWire
	lo, hi float64
}

// Plan template kinds, indexing the result of planTemplates.
const (
	planSingle = iota // then one template per (job, profile) pair
	planJobs4  = 6
	planChain  = 7
)

// planRanges are the templates' response times (s) at 65 and at 2 nodes,
// in planTemplates order, measured once with core.Predict (and
// core.PredictWorkflow for the chain) on the tree the benchmark was written
// against, with the first version of each profile. They are constants so
// that the deadlines, and so the request stream, depend on the seed alone:
// a change to the model must not move the workload it is measured on.
var planRanges = [...][2]float64{
	{468.85231019541095, 501.45842715942433},
	{67.33620857135877, 115.31531879293772},
	{51.44242865595549, 63.729404212852145},
	{254.79328796654755, 258.9322198358638},
	{66.37133588461232, 75.93232033772944},
	{51.22203355645207, 55.04367617218038},
	{253.7309160964009, 348.0910628406291},
	{5072.7587542917545, 5259.084393259344},
}

// planTemplates builds the plan shapes: single-job wordcount 4 GB and
// terasort 2 GB,
// each plain and against either profile; four contended 2 GB wordcounts;
// and a chain of twenty 2 GB wordcount stages, all over the 64-point node
// axis. (Larger single jobs make the search fall back to the full grid.)
func planTemplates() []planTemplate {
	var out []planTemplate
	for _, job := range []jobWire{{InputMB: 4096, Reduces: 1}, {InputMB: 2048, Reduces: 1, Profile: "terasort"}} {
		for _, prof := range append([]string{""}, profileNames...) {
			j := job
			out = append(out, planTemplate{plan: planWire{Cluster: clusterWire{Nodes: 4}, Job: &j, Profile: prof}})
		}
	}
	out = append(out, planTemplate{plan: planWire{Cluster: clusterWire{Nodes: 4}, Job: &jobWire{InputMB: 2048, Reduces: 1}, NumJobs: 4}})
	chain := &workflowWire{}
	for i := 0; i < 20; i++ {
		name := "s" + strconv.Itoa(i)
		chain.Stages = append(chain.Stages, stageWire{Name: name, Job: jobWire{InputMB: 2048, Reduces: 1}})
		if i > 0 {
			chain.Edges = append(chain.Edges, workflow.Edge{From: chain.Stages[i-1].Name, To: name})
		}
	}
	out = append(out, planTemplate{plan: planWire{Cluster: clusterWire{Nodes: 4}, Workflow: chain}})
	for t := range out {
		out[t].plan.Nodes = planNodes
		out[t].lo, out[t].hi = planRanges[t][0], planRanges[t][1]
	}
	return out
}

// newPSCGen builds the plan-sim-calibrate stream. Its profile-backed
// prediction shapes are a fixed corpus like the traces; the seed draws the
// sequence, the plan sizes and deadlines, and the simulations.
func newPSCGen(seed uint64, traces []calibrationTrace) *generator {
	sr := seededRand(0, 4)
	shapes := make([]predictWire, pscShapes)
	for i := range shapes {
		shapes[i] = randPredict(sr, i)
		shapes[i].Profile = profileNames[i%len(profileNames)]
	}
	r := seededRand(seed, 5)
	return &generator{r: r, traces: traces, shapes: shapes, plans: planTemplates(), draw: drawPSC,
		kinds:     newDeck(r, pscPlanSingle, pscPlanJobs4, pscPlanChain, pscSimulate, pscCalibrate, pscPredict),
		singles:   newDeck(r, uniform((planJobs4-planSingle)*deadlineStrata)...),
		jobs4:     newDeck(r, uniform(deadlineStrata)...),
		chains:    newDeck(r, uniform(deadlineStrata)...),
		shapeDeck: newDeck(r, uniform(pscShapes)...)}
}

// deck deals its cards in a fresh seeded shuffle each time through, so
// every stretch of len(cards) draws holds each card exactly once: the mix
// proportions are exact per seed instead of binomial.
type deck struct {
	cards []int
	pos   int
	r     *rand.Rand
}

func newDeck(r *rand.Rand, counts ...int) *deck {
	d := &deck{r: r}
	for card, n := range counts {
		for ; n > 0; n-- {
			d.cards = append(d.cards, card)
		}
	}
	return d
}

func (d *deck) deal() int {
	if d.pos == 0 {
		d.r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return c
}

// deadlineStrata is how many equal slices of a template's range deadlines
// are stratified over.
const deadlineStrata = 5

func uniform(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// drawPlan instantiates template t with deadline stratum st: a distinct
// input size (so every candidate is a cache miss) and a deadline inside the
// middle 80% of the template's range.
func (g *generator) drawPlan(t, st int) request {
	tp := g.plans[t]
	p := tp.plan
	uniq := shave(g.i)
	if p.Workflow != nil {
		wf := &workflowWire{Edges: p.Workflow.Edges, Stages: append([]stageWire(nil), p.Workflow.Stages...)}
		for i := range wf.Stages {
			wf.Stages[i].Job.InputMB += uniq
		}
		p.Workflow = wf
	} else {
		j := *p.Job
		j.InputMB += uniq
		p.Job = &j
	}
	f := (float64(st) + g.r.Float64()) / deadlineStrata
	p.DeadlineSec = tp.lo + (0.1+0.8*f)*(tp.hi-tp.lo)
	return newPlan(p)
}

// Cards of the plan-sim-calibrate kind deck.
const (
	cardPlanSingle = iota
	cardPlanJobs4
	cardPlanChain
	cardSimulate
	cardCalibrate
	cardPredict
)

func drawPSC(g *generator) request {
	r := g.r
	switch g.kinds.deal() {
	case cardPlanSingle:
		c := g.singles.deal()
		return g.drawPlan(planSingle+c/deadlineStrata, c%deadlineStrata)
	case cardPlanJobs4:
		return g.drawPlan(planJobs4, g.jobs4.deal())
	case cardPlanChain:
		return g.drawPlan(planChain, g.chains.deal())
	case cardSimulate:
		s := simulateWire{
			Cluster: clusterWire{Nodes: 2 + r.IntN(5)},
			Job:     jobWire{InputMB: 128 + float64(r.IntN(640)), Reduces: 1 + r.IntN(2)},
			Seed:    int64(1 + g.i),
			Reps:    1 + r.IntN(2),
		}
		return request{kind: kindSimulate, body: mustJSON(s), sim: &s}
	case cardCalibrate:
		// Cycle every profile through its traces so each calibration
		// changes the fitted content (and so the cache keys) of its name.
		k := g.cals%len(profileNames)*tracesPerProfile + (g.cals/len(profileNames)+1)%tracesPerProfile
		g.cals++
		return request{kind: kindCalibrate, body: g.traces[k].body, traceIdx: k}
	default:
		return newPredict(g.shapes[g.shapeDeck.deal()])
	}
}

// spec resolves the cluster exactly as the server documents it: the
// calibrated default scaled to nodes, or its container sizing plus classes.
func (c clusterWire) spec() cluster.Spec {
	if len(c.Classes) > 0 {
		spec := cluster.Default(0)
		spec.Classes = c.Classes
		return spec
	}
	return cluster.Default(c.Nodes)
}

// job resolves a job body with the server's documented defaults (128 MB
// blocks, one reducer, wordcount).
func (j jobWire) job() (workload.Job, error) {
	prof := workload.WordCount()
	switch j.Profile {
	case "grep":
		prof = workload.Grep()
	case "terasort":
		prof = workload.TeraSort()
	}
	block, reduces := j.BlockSizeMB, j.Reduces
	if block == 0 {
		block = 128
	}
	if reduces == 0 {
		reduces = 1
	}
	return workload.NewJob(0, j.InputMB, block, reduces, prof)
}

// coreConfig converts a predict body into the core.Config the server must
// evaluate for it, with history from a calibrated profile when non-nil.
func (p predictWire) coreConfig(history *trace.FitResult) (core.Config, error) {
	job, err := p.Job.job()
	if err != nil {
		return core.Config{}, err
	}
	est, err := core.ParseEstimator(p.Estimator)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{Spec: p.Cluster.spec(), Job: job, NumJobs: p.NumJobs, Estimator: est}
	if history != nil {
		cfg.History = history.History
	}
	return cfg, nil
}
