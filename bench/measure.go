package main

// The untraced measurement: closed-loop load for a warm-up and a timed
// window, with the process-wide costs (CPU, allocation, live heap) read at
// the window's edges.

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opRecord is one completed op.
type opRecord struct {
	start, end time.Time
	latency    time.Duration
	err        error
}

// window is what one timed window measured.
type window struct {
	attempted int // ops that ended inside the window
	failed    int
	firstErr  error
	latencies []float64 // seconds, of the correct ops that ended inside
	rates     []float64 // correct ops per second, one per sub-window
	ops       float64   // correct ops, an op straddling an edge counted by the part inside
	cpuS      float64   // process user+sys CPU over the window
	allocB    float64   // bytes allocated over the window
	mallocs   float64   // objects allocated over the window
	gcCycles  float64
	gcPauseS  float64
	heapPeak  float64 // largest live-heap sample, bytes
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapSampler polls the live heap — the bytes the last completed collection
// found reachable — without stopping the world. Garbage awaiting the next
// collection is left out: how much of it a sample catches depends on where in
// a GC cycle the sample falls, not on the program.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load())
}

// measure drives inst from clients closed-loop goroutines: warm untimed, then
// length timed. Every goroutine finishes the op it has in flight when the
// window closes, so an op is never cut short; ops are numbered from firstOp.
func measure(inst instance, clients int, firstOp int, warm, length time.Duration, subWindows int) (window, int) {
	var next atomic.Int64
	next.Store(int64(firstOp))
	t0 := time.Now()
	wStart := t0.Add(warm)
	wEnd := wStart.Add(length)

	records := make([][]opRecord, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				start := time.Now()
				if !start.Before(wEnd) {
					return
				}
				lat, err := inst.op(int(next.Add(1)-1), c)
				records[c] = append(records[c], opRecord{start: start, end: time.Now(), latency: lat, err: err})
			}
		}(c)
	}

	// The edges are read from this goroutine; ops straddling an edge put a
	// little of their cost on the wrong side of it at both ends alike.
	time.Sleep(time.Until(wStart))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	heap := startHeapSampler(heapSampleEvery)
	time.Sleep(time.Until(wEnd))
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	w := window{
		cpuS:     cpu1 - cpu0,
		allocB:   float64(ms1.TotalAlloc - ms0.TotalAlloc),
		mallocs:  float64(ms1.Mallocs - ms0.Mallocs),
		gcCycles: float64(ms1.NumGC - ms0.NumGC),
		gcPauseS: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9,
		heapPeak: heap.finish(),
	}
	wg.Wait()

	sub := length / time.Duration(subWindows)
	credit := make([]float64, subWindows)
	for _, rs := range records {
		for _, r := range rs {
			if !r.end.Before(wStart) && r.end.Before(wEnd) {
				w.attempted++
				if r.err != nil {
					w.failed++
					if w.firstErr == nil {
						w.firstErr = r.err
					}
				} else {
					w.latencies = append(w.latencies, r.latency.Seconds())
				}
			}
			if r.err != nil {
				continue
			}
			// Credit the op to each sub-window by the share of its time it
			// spent there: a 0.2 s op in a 2 s sub-window would otherwise
			// quantize the rate in steps of 10 %.
			span := r.end.Sub(r.start)
			for k := range credit {
				lo := wStart.Add(time.Duration(k) * sub)
				hi := lo.Add(sub)
				s, e := r.start, r.end
				if s.Before(lo) {
					s = lo
				}
				if e.After(hi) {
					e = hi
				}
				if e.After(s) && span > 0 {
					credit[k] += float64(e.Sub(s)) / float64(span)
				}
			}
		}
	}
	for _, c := range credit {
		w.rates = append(w.rates, c/sub.Seconds())
		w.ops += c
	}
	return w, int(next.Load())
}
