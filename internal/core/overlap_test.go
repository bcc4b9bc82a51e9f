package core

import (
	"math"
	"math/rand"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/mva"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workload"
)

// refLaneKey identifies one container lane for the reference: reduce
// subtasks (shuffle-sort and merge) share their reducer's lane; maps have
// their own lane pool.
type refLaneKey struct {
	mapPool    bool
	node, slot int
}

// refLanes groups tasks into lanes by hashing (pool, node, slot), with no
// knowledge of the slot counts: laneOf[i] is task i's lane and wins holds
// each lane's busy envelope and total task duration.
func refLanes(tl *timeline.Timeline) (laneOf []int, wins []laneWindow) {
	ids := map[refLaneKey]int{}
	laneOf = make([]int, len(tl.Tasks))
	for i, t := range tl.Tasks {
		k := refLaneKey{t.Class == timeline.ClassMap, t.Node, t.Slot}
		id, ok := ids[k]
		if !ok {
			id = len(wins)
			ids[k] = id
			wins = append(wins, laneWindow{placed: t})
		}
		w := &wins[id]
		w.placed.Start = math.Min(w.placed.Start, t.Start)
		w.placed.End = math.Max(w.placed.End, t.End)
		w.total += t.Duration()
		laneOf[i] = id
	}
	return laneOf, wins
}

// refOverlapFactors is the reference A4: the intra-job (α) and inter-job
// (β) overlap factors as separate jagged per-center matrices, the operand
// the fused writer (overlapFactors) replaces. Every entry is computed as
// the α/β definitions in overlapFactors' doc comment state them.
func refOverlapFactors(p *Predictor, tl *timeline.Timeline) (alpha, beta [][][]float64) {
	hw := &p.hw
	n := len(tl.Tasks)
	mat := func() [][][]float64 {
		m := make([][][]float64, hw.nc)
		for c := range m {
			m[c] = make([][]float64, n)
			for i := range m[c] {
				m[c][i] = make([]float64, n)
			}
		}
		return m
	}
	alpha, beta = mat(), mat()
	laneOf, wins := refLanes(tl)
	netC := hw.netCenter()
	for i := 0; i < n; i++ {
		ti := tl.Tasks[i]
		ci := hw.classOf[ti.Node]
		cpuC, diskC := hw.cpuCenter(ci), hw.diskCenter(ci)
		di := ti.Duration()
		li := laneOf[i]
		invWMap, invWRed := hw.invWMap[ci], hw.invWRed[ci]
		aNet, bNet := alpha[netC][i], beta[netC][i]
		aCPU, aDisk := alpha[cpuC][i], alpha[diskC][i]
		bCPU, bDisk := beta[cpuC][i], beta[diskC][i]
		bNet[i] = 1
		selfW := invWMap
		if ti.Class != timeline.ClassMap {
			selfW = invWRed
		}
		bCPU[i] = 1 / selfW
		bDisk[i] = 1 / selfW
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			tj := &tl.Tasks[j]
			ov := 0.0
			if di > 0 {
				lo, hi := ti.Start, ti.End
				if tj.Start > lo {
					lo = tj.Start
				}
				if tj.End < hi {
					hi = tj.End
				}
				if hi > lo {
					ov = (hi - lo) / di
				}
			}
			aNet[j] = ov
			invW := invWMap
			if tj.Class != timeline.ClassMap {
				invW = invWRed
			}
			bNet[j] = ov
			bCPU[j] = ov / invW
			bDisk[j] = ov / invW
			if ti.Node == tj.Node {
				lj := laneOf[j]
				lov := ov
				if lj != li {
					if w := &wins[lj]; w.total > 0 && di > 0 {
						lov = timeline.Overlap(ti, w.placed) / di * (tj.Duration() / w.total)
					}
				} else {
					lov = 0
				}
				aCPU[j] = lov
				aDisk[j] = lov
			}
		}
	}
	return alpha, beta
}

// The fused A4 writer must equal the reference α + (N−1)β bit for bit
// (diagonal (N−1)β alone) on every row the MVA sweep reads — every (center,
// task) pair with nonzero demand — over randomized flat and 2-class specs,
// 1–4 concurrent jobs, slow start on and off, and a 1-node 1-slot cluster.
// Several outer rounds run per spec, with the class responses jittered
// between them, so the oracle sees a spread of timelines per shape.
func TestOverlapFactorsMatchAlphaBetaOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tiny := cluster.Default(1)
	tiny.NodeCapacity = cluster.Resource{MemoryMB: 4096, VCores: 4}
	trials := 30
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		var spec cluster.Spec
		switch {
		case trial == 0:
			spec = tiny
		case trial%2 == 0:
			spec = cluster.Default(1 + rng.Intn(8))
		default:
			spec = randomTwoClassSpec(rng, 1+rng.Intn(4), 1+rng.Intn(4))
		}
		job := randomJob(t, rng)
		job.SlowStart = rng.Intn(2) == 0
		cfg := Config{Spec: spec, Job: job, NumJobs: 1 + rng.Intn(4)}

		p := NewPredictor()
		cfg, classes, err := p.beginPredict(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		nj := float64(cfg.NumJobs - 1)
		for round := 0; round < 3; round++ {
			tl, _, in, err := p.roundArtifacts(cfg, classes, nil, false)
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			alpha, beta := refOverlapFactors(p, tl)
			n := len(tl.Tasks)
			// Row offsets of the blocked layout from a solver of its own,
			// so the check does not read the predictor's solver state.
			var ref mva.OverlapSolver
			layout, rowBase, err := ref.Weights(in.Tasks)
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			if len(in.Weights) != len(layout) {
				t.Fatalf("trial %d round %d: %d weights, layout has %d", trial, round, len(in.Weights), len(layout))
			}
			checked := 0
			for c := 0; c < p.hw.nc; c++ {
				for i := 0; i < n; i++ {
					base := rowBase[c*n+i]
					if base < 0 {
						continue
					}
					checked++
					for j := 0; j < n; j++ {
						got := in.Weights[base+mva.WeightStride*j]
						want := alpha[c][i][j] + nj*beta[c][i][j]
						if j == i {
							want = nj * beta[c][i][i]
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("trial %d round %d: W[%d][%d][%d] = %x, reference α+(N−1)β = %x",
								trial, round, c, i, j, got, want)
						}
					}
				}
			}
			if checked == 0 {
				t.Fatalf("trial %d: no rows with demand", trial)
			}
			for _, cd := range classes {
				cd.response *= 0.5 + rng.Float64()
			}
		}
	}
}

// A task whose slot lies outside its node's container pool would share a
// lane with the next node's first slots; laneWindows must refuse it rather
// than fold it into the wrong lane.
func TestLaneWindowsRejectsSlotOutsidePool(t *testing.T) {
	job, err := workload.NewJob(0, 2048, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPredictor()
	cfg, classes, err := p.beginPredict(Config{Spec: cluster.Default(3), Job: job, NumJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tl, _, _, err := p.roundArtifacts(cfg, classes, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.laneWindows(tl); err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}
	for _, class := range []timeline.Class{timeline.ClassMap, timeline.ClassMerge} {
		bad := *tl
		bad.Tasks = append([]timeline.Placed(nil), tl.Tasks...)
		i := 0
		for bad.Tasks[i].Class != class {
			i++
		}
		slots := p.mapSlotsBy
		if class != timeline.ClassMap {
			slots = p.redSlotsBy
		}
		bad.Tasks[i].Slot = slots[bad.Tasks[i].Node]
		if _, _, err := p.laneWindows(&bad); err == nil {
			t.Fatalf("%s task with slot %d of %d accepted", class, bad.Tasks[i].Slot, slots[bad.Tasks[i].Node])
		}
	}
}
