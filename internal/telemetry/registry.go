package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one name=value metric dimension. Labels let a single family
// (e.g. bcwan_p2p_messages_in_total) fan out per message type, reject
// reason or error code without minting a new metric name per variant.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric kind tags for snapshots and encoders.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// metric is one registered series: a name, its kind and help text, an
// optional sorted label set, and exactly one live value holder.
type metric struct {
	name   string
	kind   string
	help   string
	labels []Label

	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// Registry holds a node's metrics. Registration (Counter, Gauge,
// Histogram) is create-or-get: the first call with a given name+labels
// creates the series, subsequent calls return the same one — handlers
// can look series up per event without tracking pointers. A nil
// *Registry hands out nil metrics, so instrumentation can be threaded
// unconditionally and disabled by passing nil.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Counter registers (or returns the existing) counter with the given
// name and label set.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.lookup(KindCounter, name, help, nil, labels)
	if m == nil {
		return nil
	}
	return m.counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.lookup(KindGauge, name, help, nil, labels)
	if m == nil {
		return nil
	}
	return m.gauge
}

// Histogram registers (or returns the existing) histogram over the
// given bucket upper bounds (nil or empty defaults to DurationBuckets).
// Bounds must be sorted ascending; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	m := r.lookup(KindHistogram, name, help, buckets, labels)
	if m == nil {
		return nil
	}
	return m.histogram
}

// Namespace returns a registration helper that prefixes every metric
// name with "bcwan_<pkg>_", the repository-wide naming convention.
func (r *Registry) Namespace(pkg string) *Namespace {
	if r == nil {
		return nil
	}
	return &Namespace{r: r, prefix: "bcwan_" + pkg + "_"}
}

// lookup implements create-or-get under a read-mostly lock. The fast
// path (series exists) takes only the read lock.
func (r *Registry) lookup(kind, name, help string, buckets []float64, labels []Label) *metric {
	if r == nil {
		return nil
	}
	validateName(name)
	labels = sortedLabels(labels)
	key := seriesKey(name, labels)

	r.mu.RLock()
	m, ok := r.metrics[key]
	r.mu.RUnlock()
	if ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s already registered as %s, requested %s", name, m.kind, kind))
		}
		return m
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s already registered as %s, requested %s", name, m.kind, kind))
		}
		return m
	}
	m = &metric{name: name, kind: kind, help: help, labels: labels}
	switch kind {
	case KindCounter:
		m.counter = &Counter{}
	case KindGauge:
		m.gauge = &Gauge{}
	case KindHistogram:
		if len(buckets) == 0 {
			buckets = DurationBuckets
		}
		bounds := make([]float64, len(buckets))
		copy(bounds, buckets)
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("telemetry: %s buckets not strictly ascending", name))
			}
		}
		m.histogram = newHistogram(bounds)
	}
	r.metrics[key] = m
	return m
}

// Snapshot returns a point-in-time copy of every registered series,
// sorted by name then label signature — the deterministic order both
// encoders rely on.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.RUnlock()

	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return seriesKey("", ms[i].labels) < seriesKey("", ms[j].labels)
	})

	out := make([]Metric, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.snapshot())
	}
	return out
}

// snapshot reads one series into its exported form.
func (m *metric) snapshot() Metric {
	s := Metric{Name: m.name, Type: m.kind, Help: m.help}
	if len(m.labels) > 0 {
		s.Labels = make(map[string]string, len(m.labels))
		for _, l := range m.labels {
			s.Labels[l.Key] = l.Value
		}
	}
	switch m.kind {
	case KindCounter:
		s.Value = float64(m.counter.Value())
	case KindGauge:
		s.Value = float64(m.gauge.Value())
	case KindHistogram:
		h := m.histogram
		data := &HistogramData{
			Sum:     h.Sum(),
			Buckets: make([]Bucket, 0, len(h.counts)),
		}
		var cum uint64
		for i := range h.counts {
			cum += h.counts[i].Load()
			le := "+Inf"
			if i < len(h.bounds) {
				le = formatFloat(h.bounds[i])
			}
			data.Buckets = append(data.Buckets, Bucket{LE: le, Count: cum})
		}
		// The count is the cumulative total, so it always agrees with
		// the buckets.
		data.Count = cum
		s.Value = data.Sum
		s.Histogram = data
	}
	return s
}

// Namespace prefixes registrations with the package convention; see
// Registry.Namespace. A nil *Namespace hands out nil metrics.
type Namespace struct {
	r      *Registry
	prefix string
}

// Counter registers a counter named prefix+name.
func (ns *Namespace) Counter(name, help string, labels ...Label) *Counter {
	if ns == nil {
		return nil
	}
	return ns.r.Counter(ns.prefix+name, help, labels...)
}

// Gauge registers a gauge named prefix+name.
func (ns *Namespace) Gauge(name, help string, labels ...Label) *Gauge {
	if ns == nil {
		return nil
	}
	return ns.r.Gauge(ns.prefix+name, help, labels...)
}

// Histogram registers a histogram named prefix+name.
func (ns *Namespace) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if ns == nil {
		return nil
	}
	return ns.r.Histogram(ns.prefix+name, help, buckets, labels...)
}

// sortedLabels copies and sorts a label set by key.
func sortedLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for i := 1; i < len(out); i++ {
		if out[i].Key == out[i-1].Key {
			panic(fmt.Sprintf("telemetry: duplicate label key %q", out[i].Key))
		}
	}
	for _, l := range out {
		validateName(l.Key)
	}
	return out
}

// seriesKey builds the registry key: name plus the sorted label pairs.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
	}
	return b.String()
}

// validateName enforces the Prometheus identifier charset. Metric names
// are compile-time constants, so violations are programmer errors.
func validateName(name string) {
	if name == "" {
		panic("telemetry: empty metric or label name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric or label name %q", name))
		}
	}
}
