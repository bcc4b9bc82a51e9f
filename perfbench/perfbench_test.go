package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// streams returns the first n request bodies of workload w for seed.
func streams(t *testing.T, w *workloadDef, seed uint64, n int) [][]byte {
	t.Helper()
	var traces []calibrationTrace
	if w.name == "plan-sim-calibrate" {
		var err error
		if traces, err = loadTraces(); err != nil {
			t.Fatal(err)
		}
	}
	g := w.newGen(seed, traces)
	out := make([][]byte, n)
	for i := range out {
		out[i] = g.next().body
	}
	return out
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := streams(t, w, 7, 400), streams(t, w, 7, 400)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s seed 7 request %d differs between two generators:\n%s\n%s", w.name, i, a[i], b[i])
			}
		}
		c := streams(t, w, 8, 400)
		same := 0
		for i := range a {
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
		if at, bt := arrivalTimes(7, 1, 500, time.Second), arrivalTimes(7, 1, 500, time.Second); fmt.Sprint(at) != fmt.Sprint(bt) {
			t.Errorf("arrival schedule differs for one seed")
		}
	}
}

func TestPredictMissKeysAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for i, b := range streams(t, workloads[0], 3, 5000) {
		if seen[string(b)] {
			t.Fatalf("predict-miss request %d repeats an earlier body", i)
		}
		seen[string(b)] = true
	}
}

// TestPredictMissSeedsShareOneCorpus checks that every seed's open loop of
// a 50 s run sends the same multiset of prediction shapes, so seeds differ
// in order and arrival times but not in model work.
func TestPredictMissSeedsShareOneCorpus(t *testing.T) {
	w, err := findWorkload("predict-miss")
	if err != nil {
		t.Fatal(err)
	}
	seg := 50 * time.Second * 3 / 4 / cycles
	if n := int(w.rate*seg.Seconds()) * cycles; n != missCorpus {
		t.Fatalf("a 50 s run sends %d open-loop predicts, the corpus holds %d", n, missCorpus)
	}
	shapes := func(seed uint64) []string {
		var out []string
		for _, r := range newMissGen(seed).take(missCorpus) {
			p := *r.predict
			p.Job.InputMB = math.Round(p.Job.InputMB) // drop the uniqueness shave
			out = append(out, string(mustJSON(p)))
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(shapes(1), shapes(2)) {
		t.Fatal("seeds 1 and 2 send different prediction shapes")
	}
}

func TestPercentilesCountFailuresAsInfinite(t *testing.T) {
	outs := make([]outcome, 100)
	for i := range outs {
		outs[i] = outcome{status: http.StatusOK, done: time.Duration(i+1) * time.Millisecond}
	}
	if got := percentile(latenciesMS(outs), 0.99); got != 99 {
		t.Fatalf("p99 of 1..100 ms = %v, want 99", got)
	}
	// Two failures — a transport error and a 503 — are the two slowest
	// samples, so p99 lands on a failure.
	outs[0].err = errors.New("connection reset")
	outs[1].status = http.StatusServiceUnavailable
	lat := latenciesMS(outs)
	if !math.IsInf(lat[0], 1) || !math.IsInf(lat[1], 1) {
		t.Fatalf("failed requests have latency %v, %v; want +Inf", lat[0], lat[1])
	}
	p99 := percentile(lat, 0.99)
	if !math.IsInf(p99, 1) || reportable(p99) != infLatencyMS {
		t.Fatalf("p99 with 2%% failures = %v (reported %v), want +Inf (%v)", p99, reportable(p99), infLatencyMS)
	}
	if p50 := percentile(latenciesMS(outs), 0.5); p50 != 52 {
		t.Fatalf("p50 = %v, want 52 (the failures rank last)", p50)
	}
	if got := withinFrac(outs, 1000); got != 0.98 {
		t.Fatalf("withinFrac = %v, want 0.98: failures miss every limit", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests hold the code to.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, c := range []struct {
		what   string
		listed []struct{ Name, Unit string }
		code   []metricDef
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		listed := map[string]string{}
		for _, m := range c.listed {
			listed[m.Name] = m.Unit
		}
		printed := map[string]string{}
		for _, m := range c.code {
			printed[m.name] = m.unit
			if unit, ok := listed[m.name]; !ok || unit != m.unit {
				t.Errorf("%s: printed metric %s (%s) is not in BENCHMARK.json with that unit", c.what, m.name, m.unit)
			}
		}
		for name := range listed {
			if _, ok := printed[name]; !ok {
				t.Errorf("%s: BENCHMARK.json lists %s, which the benchmark never prints", c.what, name)
			}
		}
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for _, fw := range f.Workloads {
		w, err := findWorkload(fw.Name)
		if err != nil {
			t.Fatal(err)
		}
		// The why restates the fixed rate and latency limit.
		for _, want := range []string{fmt.Sprintf("%v req/s", w.rate), fmt.Sprintf("limit %v ms", w.limitMS)} {
			if !strings.Contains(fw.Why, want) {
				t.Errorf("%s: why %q does not state %q", w.name, fw.Why, want)
			}
		}
	}
}

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: coverage 10..60
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the root
		{Name: "d", Start: 15, End: 25, Parent: 1},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{40, 20, 30, 30, 10} {
		if self[i] != want {
			t.Errorf("span %s self = %d, want %d", spans[i].Name, self[i], want)
		}
	}
}

func TestStealFreeScaling(t *testing.T) {
	win := func(k int, steal float64) window {
		return window{start: time.Duration(k) * windowLen, end: time.Duration(k+1) * windowLen, steal: steal, busy: 30}
	}
	// Two open-loop phases of two windows; a third of the CPU time the VM
	// wanted in window 0/1 was stolen (15 ticks of 45), none elsewhere.
	phases := [][]window{{win(0, 0), win(1, 15)}, {win(0, 0), win(1, 0)}}
	ok := func(due, lat time.Duration) outcome {
		return outcome{status: http.StatusOK, due: due, done: due + lat}
	}
	outs := [][]outcome{
		{ok(0, 3*time.Millisecond), ok(windowLen+time.Millisecond, 3*time.Millisecond)},
		{ok(time.Millisecond, 5*time.Millisecond), {status: http.StatusServiceUnavailable, due: windowLen}},
	}
	lat := stealFreeLatencies(phases, outs)
	if lat[0] != 3 || lat[1] != 2 || lat[2] != 5 || !math.IsInf(lat[3], 1) {
		t.Fatalf("steal-free latencies %v, want [3 2 5 +Inf]: the request due in 0/1 scaled by 2/3, the failure +Inf", lat)
	}
	if got := stolenShare(phases); got != 15.0/135 {
		t.Fatalf("stolen share %v, want 15/135", got)
	}

	// Closed loop: 30 correct completions in 1 s of wall-clock time, of
	// which 0.5 s * 2/3 + 0.5 s are steal-free; failures and completions
	// after the phase's last window do not count.
	phases = [][]window{{win(0, 0)}, {win(0, 15)}}
	outs = [][]outcome{nil, nil}
	for i := 0; i < 30; i++ {
		outs[i%2] = append(outs[i%2], ok(0, time.Millisecond))
	}
	outs[0] = append(outs[0], outcome{status: http.StatusServiceUnavailable}, ok(0, windowLen+time.Millisecond))
	free, wall := capacities(phases, outs)
	if wall != 30 || free != 30/(0.5*2/3+0.5) {
		t.Fatalf("capacities %v steal-free, %v wall-clock; want %v, 30", free, wall, 30/(0.5*2/3+0.5))
	}
}
