package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// On a shared host, interference comes in spells: for tens of seconds or
// minutes at a time the hypervisor keeps the VM's CPUs from running when
// they want to ("steal"), at worst for half the CPU time the VM asks for,
// and wall-clock times measured in such a spell describe the neighbours as
// much as the program. Each timed phase therefore reads the machine's
// steal and busy CPU ticks on a grid of short windows, and the wall-clock
// metrics (latency percentiles, capacity and set-up time) are scaled to
// steal-free time: a time measured in a window is multiplied by the share
// of the CPU time the VM wanted there that it got, busy / (busy + steal),
// which is the time the same work would have taken had the hypervisor run
// the VM whenever it was runnable. The scaling reads only the hypervisor's
// counter, never the measured times, and every request counts, so a
// program that does more work or waits longer still reads slower. The
// info line prints the figures the clocks read beside them.

// windowLen is the length of one steal window.
const windowLen = 500 * time.Millisecond

// window is one span of a timed phase, as offsets from the phase start,
// with the machine's steal and busy CPU ticks over it.
type window struct {
	start, end  time.Duration
	steal, busy float64
}

// got is the share of the CPU time the VM wanted during w that it got: the
// factor that scales a wall-clock time measured in w to steal-free time.
func (w window) got() float64 { return 1 - ratio(w.steal, w.steal+w.busy) }

// ticksWindow is the window of length d between two readings.
func ticksWindow(a, b cpuTicks, d time.Duration) window {
	return window{end: d, steal: b.steal - a.steal, busy: b.busy - a.busy}
}

// cpuTicks is a reading of the machine's cumulative CPU ticks.
type cpuTicks struct{ steal, busy float64 }

// hostTicks reads the machine's cumulative CPU ticks from /proc/stat
// (zeros where it cannot be read). Busy is user, nice, system, irq and
// softirq time; guest time is already part of user time.
func hostTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for i, v := range strings.Fields(line)[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		switch i { // user nice system idle iowait irq softirq steal guest guest_nice
		case 0, 1, 2, 5, 6:
			t.busy += x
		case 7:
			t.steal = x
		}
	}
	return t
}

// sampleWindows reads the machine's CPU ticks now, at t0, and then at
// every windowLen after t0 until d has passed, and sends the phase's
// windows on the returned channel.
func sampleWindows(t0 time.Time, d time.Duration) <-chan []window {
	ch := make(chan []window, 1)
	prev := hostTicks()
	go func() {
		var ws []window
		for start := time.Duration(0); start < d; {
			end := min(start+windowLen, d)
			time.Sleep(time.Until(t0.Add(end)))
			cur := hostTicks()
			w := ticksWindow(prev, cur, end)
			w.start = start
			ws = append(ws, w)
			prev, start = cur, end
		}
		ch <- ws
	}()
	return ch
}

// windowOf is the index of the window of ws that holds offset t; offsets
// past the last window map to it.
func windowOf(ws []window, t time.Duration) int {
	return min(int(t/windowLen), len(ws)-1)
}

// stealFreeLatencies returns the open-loop latencies in ms, each scaled by
// the got share of the window in which the request was due; failures are
// +Inf. outs[p] are phase p's outcomes and phases[p] its windows.
func stealFreeLatencies(phases [][]window, outs [][]outcome) []float64 {
	var lat []float64
	for p, ws := range phases {
		for i, l := range latenciesMS(outs[p]) {
			if !math.IsInf(l, 1) {
				l *= ws[windowOf(ws, outs[p][i].due)].got()
			}
			lat = append(lat, l)
		}
	}
	return lat
}

// capacities returns the correct closed-loop completions per second of
// steal-free time, in which each window counts its length times its got
// share, and per second of wall-clock time. Completions after a phase's
// last window do not count. outs[p] are phase p's outcomes and phases[p]
// its windows.
func capacities(phases [][]window, outs [][]outcome) (stealFree, wall float64) {
	n, free, secs := 0, 0.0, 0.0
	for p, ws := range phases {
		if len(ws) == 0 {
			continue
		}
		for _, o := range outs[p] {
			if o.ok() && o.done < ws[len(ws)-1].end {
				n++
			}
		}
		for _, w := range ws {
			free += (w.end - w.start).Seconds() * w.got()
		}
		secs += ws[len(ws)-1].end.Seconds()
	}
	return ratio(float64(n), free), ratio(float64(n), secs)
}

// stolenShare is the share of the CPU time the VM wanted over every window
// of phases that was stolen.
func stolenShare(phases ...[][]window) float64 {
	var steal, busy float64
	for _, ph := range phases {
		for _, ws := range ph {
			for _, w := range ws {
				steal, busy = steal+w.steal, busy+w.busy
			}
		}
	}
	return ratio(steal, steal+busy)
}

// split cuts xs into consecutive pieces of the given lengths, which share
// xs's memory.
func split[T any](xs []T, lens []int) [][]T {
	out := make([][]T, len(lens))
	for i, n := range lens {
		out[i], xs = xs[:n:n], xs[n:]
	}
	return out
}
