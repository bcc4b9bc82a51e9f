package main

import (
	"encoding/json"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// refWork is a fixed piece of reference work that depends on nothing in
// the tree under test: dense float sweeps like the MVA solver's, a burst of
// small allocations that are sorted, and a JSON round trip, like a served
// request. It returns a checksum so the compiler keeps the work.
func refWork() float64 {
	const n = 96
	a := make([]float64, n*n)
	x := make([]float64, n)
	for i := range a {
		a[i] = 1 / float64(1+i%(n+3))
	}
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, n)
	for sweep := 0; sweep < 24; sweep++ {
		for i := 0; i < n; i++ {
			s := 0.0
			for j, aij := range a[i*n : (i+1)*n] {
				s += aij * x[j]
			}
			y[i] = s / (1 + s)
		}
		x, y = y, x
	}
	type item struct {
		key  uint64
		name string
		val  float64
	}
	items := make([]*item, 0, 3000)
	k := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < cap(items); i++ {
		k ^= k << 13
		k ^= k >> 7
		k ^= k << 17
		items = append(items, &item{key: k, name: string(rune('a' + k%26)), val: float64(k%1000) / 7})
	}
	slices.SortFunc(items, func(p, q *item) int {
		switch {
		case p.key < q.key:
			return -1
		case p.key > q.key:
			return 1
		}
		return 0
	})
	doc := struct {
		Name  string    `json:"name"`
		Vals  []float64 `json:"vals"`
		Count int       `json:"count"`
	}{"reference", x, len(items)}
	b, _ := json.Marshal(doc)
	if err := json.Unmarshal(b, &doc); err != nil {
		panic(err)
	}
	return doc.Vals[0] + items[0].val
}

// The CPU itself runs slower in some spells on a shared host, when other
// tenants' work on the same cores evicts the VM's caches: the server's CPU
// time per request rose by up to a quarter in spells with heavy steal. A
// prober therefore times fixed reference work through the set-up and the
// timed phases, and the time metrics are divided by the slowdown, the
// reference work's median CPU time over refMS. The reference work does not
// depend on the tree under test, so a slower program still reads slower.

// refMS is refWork's median CPU time per probe round, in ms, on the 2-vCPU
// Intel Xeon VM the benchmark was tuned on, so that figures read as
// milliseconds on that VM in a quiet spell.
const refMS = 1.2

// probePeriod is how often the prober wakes to time refWork.
const probePeriod = 100 * time.Millisecond

// prober times refWork's thread CPU time every probePeriod, waking from
// sleep each time as a request wakes an idle server.
type prober struct {
	mu   sync.Mutex
	cpu  []float64 // ms per round
	stop chan struct{}
	done chan struct{}
}

func startProber() *prober {
	p := &prober{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var sink float64
		t := time.NewTicker(probePeriod)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				if sink == 0 {
					panic("reference work vanished")
				}
				return
			case <-t.C:
			}
			c0 := threadCPU()
			sink += refWork()
			d := ms(threadCPU() - c0)
			p.mu.Lock()
			p.cpu = append(p.cpu, d)
			p.mu.Unlock()
		}
	}()
	return p
}

// finish stops the prober and returns the median CPU time of its rounds.
func (p *prober) finish() float64 {
	close(p.stop)
	<-p.done
	return median(p.cpu)
}

// threadCPU is the calling OS thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
