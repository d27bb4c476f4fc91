// Package telemetry is a dependency-free metrics subsystem for the
// BcWAN node: atomic Counter, Gauge and fixed-bucket Histogram types
// with a lock-free hot path, a labeled Registry with namespaced
// registration and point-in-time snapshots, and Prometheus-text and
// JSON encoders for exposition over the RPC server.
//
// Every metric type is nil-safe: methods on a nil *Counter, *Gauge or
// *Histogram are no-ops, and a nil *Registry (or *Namespace) hands out
// nil metrics. Uninstrumented components therefore pay only a nil check
// per operation, which keeps the registry-nil baseline of the
// block-connect benchmark honest.
//
// Naming convention: bcwan_<pkg>_<name>, with counters suffixed
// _total and histograms of durations suffixed _seconds (the Prometheus
// idiom). Registry.Namespace(pkg) applies the prefix for you.
package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; a nil *Counter discards all updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer value that can go up and down (sizes, peer
// counts, in-flight requests). The zero value is ready to use; a nil
// *Gauge discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds (inclusive), sorted ascending; an implicit +Inf bucket catches
// everything above the last bound. Observations are lock-free: a bucket
// increment, a count increment and a CAS loop folding the value into
// the sum. A nil *Histogram discards all observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// newHistogram builds a histogram over the given bucket bounds. The
// caller (Registry) has already validated and copied the bounds.
func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, upd) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DurationBuckets is the default bucket layout for operation latencies:
// 10µs to 10s, roughly logarithmic. Block connect, mempool admission
// and RPC dispatch all land inside this span on commodity hardware.
var DurationBuckets = []float64{
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// SizeBuckets is the default bucket layout for byte sizes: 64 B to
// 4 MiB in powers of four, bracketing LoRa frames up to full blocks.
var SizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
}
