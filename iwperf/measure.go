package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is what the process spent during one metered window.
type sample struct {
	wall          time.Duration
	cpu           time.Duration // user+sys
	gcCPU         float64       // seconds, runtime estimate without idle marking
	allocs, bytes uint64
}

// meter measures what the process spends while it runs: wall time,
// user+sys CPU, heap allocations and GC CPU per window, and the peak
// live heap (as of the latest GC) sampled every 5 ms while a window is
// open. Scan workloads meter each pass, so verifying artifacts between
// passes is not measured; the service workload meters its whole closed
// loop as one window.
type meter struct {
	samples []sample
	total   sample // wall, cpu and gcCPU summed over windows

	start    time.Time
	startCPU time.Duration
	startRT  [5]metrics.Sample

	active   atomic.Bool
	peakLive atomic.Uint64
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// The GC CPU figure leaves out idle-priority marking: it runs only on
// processors that would otherwise sit idle.
var rtNames = [5]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/mark/idle:cpu-seconds",
}

func readRT() [5]metrics.Sample {
	var s [5]metrics.Sample
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s[:])
	return s
}

func rtUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func rtFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// processCPU is the process's user+sys time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newMeter starts the heap sampler; close stops it.
func newMeter() *meter {
	m := &meter{stopCh: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: rtNames[3]}}
		for {
			select {
			case <-m.stopCh:
				return
			case <-tick.C:
			}
			if m.active.Load() {
				metrics.Read(s)
				m.observeLive(rtUint(s[0]))
			}
		}
	}()
	return m
}

func (m *meter) observeLive(v uint64) {
	for {
		old := m.peakLive.Load()
		if v <= old || m.peakLive.CompareAndSwap(old, v) {
			return
		}
	}
}

func (m *meter) begin() {
	m.startRT = readRT()
	m.active.Store(true)
	m.startCPU = processCPU()
	m.start = time.Now()
}

func (m *meter) end() {
	s := sample{wall: time.Since(m.start), cpu: processCPU() - m.startCPU}
	m.active.Store(false)
	rt := readRT()
	m.observeLive(rtUint(rt[3]))
	s.allocs = rtUint(rt[0]) - rtUint(m.startRT[0])
	s.bytes = rtUint(rt[1]) - rtUint(m.startRT[1])
	s.gcCPU = rtFloat(rt[2]) - rtFloat(m.startRT[2]) - (rtFloat(rt[4]) - rtFloat(m.startRT[4]))
	m.samples = append(m.samples, s)
	m.total.wall += s.wall
	m.total.cpu += s.cpu
	m.total.gcCPU += s.gcCPU
}

// last is the most recent window's sample.
func (m *meter) last() sample { return m.samples[len(m.samples)-1] }

func (m *meter) close() {
	close(m.stopCh)
	m.wg.Wait()
}

// quantile is the linearly interpolated q-quantile of xs (xs is not
// modified), or 0 when xs is empty: a run whose every operation failed
// still prints its result line.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile names the highest of p50/p90/p99/p99.9 that has at
// least ten samples beyond it, or "" when even p50 has fewer.
func tailPercentile(n int) string {
	best := ""
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}} {
		if float64(n)*(1-p.q) >= 10 {
			best = p.name
		}
	}
	return best
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
