package main

import (
	"math"
	"sort"
	"time"
)

// infLatencyMS is reported when a latency percentile lands on a failed
// request, whose latency counts as +Inf (JSON has no infinity).
const infLatencyMS = 1e9

// latenciesMS returns each outcome's latency from its due time, in ms, with
// +Inf for every request that failed or answered wrongly.
func latenciesMS(outs []outcome) []float64 {
	lat := make([]float64, len(outs))
	for i := range outs {
		if outs[i].ok() {
			lat[i] = ms(outs[i].done - outs[i].due)
		} else {
			lat[i] = math.Inf(1)
		}
	}
	return lat
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1), which
// it sorts in place. +Inf entries sort last, so failures push percentiles
// up exactly as infinitely slow requests would.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	rank = max(0, min(rank, len(xs)-1))
	return xs[rank]
}

// reportable maps an infinite percentile to infLatencyMS.
func reportable(v float64) float64 {
	if math.IsInf(v, 1) {
		return infLatencyMS
	}
	return v
}

// median returns the median of xs (sorting a copy); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0 (the ratio's base is empty).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cycles is how many open-loop/closed-loop cycles a run alternates.
const cycles = 5

// minSamples is the fewest open-loop requests a run may time: enough that
// at least ten lie beyond the p99.
const minSamples = 1000

// withinFrac is the share of outs answered correctly within limitMS of
// their due time.
func withinFrac(outs []outcome, limitMS float64) float64 {
	n := 0
	for i := range outs {
		if outs[i].ok() && ms(outs[i].done-outs[i].due) <= limitMS {
			n++
		}
	}
	return float64(n) / float64(len(outs))
}

// kindLatency is one request kind's share of the open-loop latencies.
type kindLatency struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P99 float64 `json:"p99_ms"`
}

// latencyByKind summarises the open-loop latencies per request kind.
func latencyByKind(reqs []request, outs []outcome) map[string]kindLatency {
	var byKind [numKinds][]outcome
	for i := range outs {
		byKind[reqs[i].kind] = append(byKind[reqs[i].kind], outs[i])
	}
	out := map[string]kindLatency{}
	for k, o := range byKind {
		if len(o) > 0 {
			out[kindPaths[k]] = kindLatency{N: len(o), P50: reportable(percentile(latenciesMS(o), 0.50)),
				P99: reportable(percentile(latenciesMS(o), 0.99))}
		}
	}
	return out
}
