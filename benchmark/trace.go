package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bcwan/internal/lora"
)

// span is one timed step recorded from the harness side of a layer
// boundary. Spans of one exchange share Exchange (DevEUI/counter);
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Exchange string `json:"exchange,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run is spelled.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent int, exchange string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name:     name,
		Start:    int64(start.Sub(t.origin)),
		End:      int64(end.Sub(t.origin)),
		Parent:   parent,
		Exchange: exchange,
	})
	return len(t.spans) - 1
}

// open reserves a parent span whose end is set by close.
func (t *tracer) open(name string, start time.Time, exchange string) int {
	return t.add(name, start, start, -1, exchange)
}

func (t *tracer) close(idx int, end time.Time) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans[idx].End = int64(end.Sub(t.origin))
	t.mu.Unlock()
}

// exchangeID names one exchange the way the protocol does.
func exchangeID(eui lora.DevEUI, counter uint32) string {
	return fmt.Sprintf("%s/%d", eui, counter)
}

// meanOf returns the mean duration of the spans with this name.
func (t *tracer) meanOf(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum, n int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			sum += t.spans[i].End - t.spans[i].Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return time.Duration(sum / n)
}

// coverage is the median, over root spans, of the share of the root's
// duration its direct children account for: how much of an operation the
// per-layer spans explain.
func (t *tracer) coverage() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int]int64)
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			children[p] += t.spans[i].End - t.spans[i].Start
		}
	}
	var shares []float64
	for i := range t.spans {
		if d := t.spans[i].End - t.spans[i].Start; t.spans[i].Parent < 0 && d > 0 {
			shares = append(shares, float64(children[i])/float64(d))
		}
	}
	return medianFloat(shares)
}

// stepMean is one row of the "where did the time go" table: a span name
// with its count and mean duration.
type stepMean struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	// Share is the step's total time over the total time of root spans.
	Share float64 `json:"share_of_operation"`
}

// stepMeans lists every span name in descending order of total time.
func (t *tracer) stepMeans() []stepMean {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type acc struct{ sum, n int64 }
	by := make(map[string]*acc)
	var rootSum int64
	for i := range t.spans {
		sp := &t.spans[i]
		a := by[sp.Name]
		if a == nil {
			a = &acc{}
			by[sp.Name] = a
		}
		a.sum += sp.End - sp.Start
		a.n++
		if sp.Parent < 0 {
			rootSum += sp.End - sp.Start
		}
	}
	out := make([]stepMean, 0, len(by))
	for name, a := range by {
		s := stepMean{Name: name, Count: int(a.n), MeanMS: ms(time.Duration(a.sum / a.n))}
		if rootSum > 0 {
			s.Share = float64(a.sum) / float64(rootSum)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace write: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace write: %w", err)
	}
	return f.Close()
}
