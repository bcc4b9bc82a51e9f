package bench

import (
	"strings"
	"testing"
)

func TestTable1(t *testing.T) {
	out, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "map") || !strings.Contains(out, "reduce") {
		t.Errorf("table missing rows:\n%s", out)
	}
	if !strings.Contains(out, "20") || !strings.Contains(out, "10") {
		t.Errorf("table missing priorities:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("table missing wildcard locality:\n%s", out)
	}
}

func TestRunningExample(t *testing.T) {
	tl, tree, err := RunningExample()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tl.Tasks); got != 6 {
		t.Fatalf("placed %d tasks", got)
	}
	// Paper Figure 7 shape.
	if got := tree.String(); got != "S(S(P(m0,P(m1,m2)),P(m3,s0)),g0)" {
		t.Errorf("tree = %s", got)
	}
	out := FormatTimeline(tl)
	if !strings.Contains(out, "node 1:") || !strings.Contains(out, "border=") {
		t.Errorf("formatted timeline missing pieces:\n%s", out)
	}
}

func TestFigureSpecsCoverPaper(t *testing.T) {
	specs := FigureSpecs()
	want := map[string]bool{
		"fig10": false, "fig11": false, "fig12": false,
		"fig13": false, "fig14": false, "fig15": false,
	}
	for _, s := range specs {
		if _, ok := want[s.ID]; !ok {
			t.Errorf("unexpected figure %s", s.ID)
		}
		want[s.ID] = true
		if s.InputMB <= 0 || s.BlockSizeMB <= 0 {
			t.Errorf("%s has zero config", s.ID)
		}
		if len(s.Nodes) == 0 && len(s.Jobs) == 0 {
			t.Errorf("%s sweeps nothing", s.ID)
		}
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("figure %s missing", id)
		}
	}
}

func TestRunPointSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed point in -short mode")
	}
	p, err := RunPoint(2, 1, 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sim <= 0 || p.ForkJoin <= 0 || p.Tripathi <= 0 {
		t.Errorf("point = %+v", p)
	}
	if p.ForkJoin >= p.Tripathi {
		t.Errorf("estimator ordering violated: fj %v >= tp %v", p.ForkJoin, p.Tripathi)
	}
}

// TestErrorBands is the calibration guard: the reproduction's headline
// claims. Fork/join must track the simulator more closely than Tripathi,
// both must overestimate in (almost) every configuration, and the error
// bands must stay near the paper's (11–13.5% / 19–23%). The guard bounds
// are deliberately wider than the paper's point estimates — the substrate
// is a simulator, not the authors' testbed (see DESIGN.md §4).
func TestErrorBands(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure suite in -short mode")
	}
	singleJob := []Spec{}
	for _, s := range FigureSpecs() {
		if s.FixedJobs == 1 && s.XName == "nodes" {
			singleJob = append(singleJob, s)
		}
	}
	var figs []Figure
	for _, s := range singleJob {
		fig, err := RunFigure(s)
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, fig)
	}
	b := Bands(figs)
	if b.Total == 0 {
		t.Fatal("no points")
	}
	// Overestimation dominates (the paper: "with both approaches we
	// overestimate the execution time"). The model's deterministic wave
	// structure underestimates stochastic backfill contention at a minority
	// of points (see `go run ./cmd/experiments -md`), so the guard requires
	// a clear majority plus positive mean error rather than unanimity.
	if 3*b.FJOver < 2*b.Total {
		t.Errorf("fork/join overestimates only %d/%d points", b.FJOver, b.Total)
	}
	if 3*b.TPOver < 2*b.Total {
		t.Errorf("tripathi overestimates only %d/%d points", b.TPOver, b.Total)
	}
	var fjMean, tpMean float64
	ranked := 0
	for _, f := range figs {
		for _, p := range f.Points {
			fjMean += p.FJErr()
			tpMean += p.TPErr()
			if p.FJErr() < -0.18 || p.FJErr() > 0.30 {
				t.Errorf("%s x=%d: fork/join error %+.1f%% outside guard [-18%%, +30%%]",
					f.ID, p.X, 100*p.FJErr())
			}
			if p.TPErr() < -0.18 || p.TPErr() > 0.45 {
				t.Errorf("%s x=%d: tripathi error %+.1f%% outside guard [-18%%, +45%%]",
					f.ID, p.X, 100*p.TPErr())
			}
			if p.FJErr() < p.TPErr() {
				ranked++
			}
		}
	}
	fjMean /= float64(b.Total)
	tpMean /= float64(b.Total)
	if fjMean <= 0 {
		t.Errorf("fork/join mean error %.1f%% not an overestimate", 100*fjMean)
	}
	if tpMean <= fjMean {
		t.Errorf("tripathi mean error %.1f%% not above fork/join %.1f%% (paper ranking)",
			100*tpMean, 100*fjMean)
	}
	// Ranking: the Tripathi estimate sits above fork/join at (almost) every
	// point, as in the paper.
	if 4*ranked < 3*b.Total {
		t.Errorf("tripathi above fork/join at only %d/%d points", ranked, b.Total)
	}
}

func TestMultiJobShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed sweep in -short mode")
	}
	// Figure 14 shape: simulated response grows monotonically with the
	// number of concurrent jobs and the model tracks the growth from above.
	prevSim := 0.0
	for n := 1; n <= 3; n++ {
		p, err := RunPoint(4, n, 1*GB, 128)
		if err != nil {
			t.Fatal(err)
		}
		if p.Sim <= prevSim {
			t.Errorf("sim response not growing at %d jobs: %v <= %v", n, p.Sim, prevSim)
		}
		prevSim = p.Sim
		if p.FJErr() < -0.05 {
			t.Errorf("%d jobs: fork/join underestimates by %.1f%%", n, 100*p.FJErr())
		}
	}
}
