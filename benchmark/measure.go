package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opDeadline is the harness deadline on one operation or round step: past
// it the operation counts as failed and its stream is skipped until the
// call returns.
const opDeadline = 10 * time.Second

// sliceLength is the stretch the closed-loop workloads cut their window
// into: a second, or half of one when slices alternate between traced
// and untraced.
func sliceLength(traced bool) time.Duration {
	if traced {
		return 500 * time.Millisecond
	}
	return time.Second
}

// tally is what one timed stretch of a workload produced.
type tally struct {
	attempted int
	verified  int
	wall      time.Duration
	// latencies holds one sample per verified delivery.
	latencies []time.Duration
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.verified += o.verified
	t.wall += o.wall
	t.latencies = append(t.latencies, o.latencies...)
}

func (t *tally) failed() int { return t.attempted - t.verified }

func (t *tally) rate() float64 {
	if t.wall <= 0 {
		return 0
	}
	return float64(t.verified) / t.wall.Seconds()
}

// resources is a snapshot of the process-wide counters a window is
// charged for.
type resources struct {
	cpu        time.Duration
	totalAlloc uint64
	heapAlloc  uint64
	gcPause    time.Duration
}

// snapshot reads CPU and allocation counters. With settle set it first
// forces a collection so heapAlloc is retained memory, not garbage.
func snapshot(settle bool) resources {
	if settle {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		cpu:        cpuTime(),
		totalAlloc: ms.TotalAlloc,
		heapAlloc:  ms.HeapAlloc,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports kB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goroutineSampler tracks the peak goroutine count while it runs.
type goroutineSampler struct {
	peak atomic.Int64
	once sync.Once
	stop chan struct{}
	done chan struct{}
}

func startGoroutineSampler() *goroutineSampler {
	s := &goroutineSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > s.peak.Load() {
				s.peak.Store(n)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends sampling (once) and returns the peak.
func (s *goroutineSampler) Stop() int64 {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return s.peak.Load()
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of an ascending sample (nearest rank
// below, the repo's experiments.percentile convention).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// deadlineCall runs fn on its own goroutine and waits at most opDeadline
// for it. On a timeout it returns timedOut with a channel that closes
// when fn finally returns, so the caller can leave that stream alone
// until then.
func deadlineCall(fn func() error) (err error, timedOut bool, returned <-chan struct{}) {
	done := make(chan struct{})
	var ferr error
	go func() {
		ferr = fn()
		close(done)
	}()
	timer := time.NewTimer(opDeadline)
	defer timer.Stop()
	select {
	case <-done:
		return ferr, false, done
	case <-timer.C:
		return nil, true, done
	}
}
