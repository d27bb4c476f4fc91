package telemetry

import (
	"bytes"
	"log"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bcwan_test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("bcwan_test_size", "size")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

func TestRegistryCreateOrGet(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("bcwan_test_x_total", "x", L("k", "v"))
	b := r.Counter("bcwan_test_x_total", "x", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("bcwan_test_x_total", "x", L("k", "w"))
	if a == other {
		t.Fatal("distinct label values shared a counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("bcwan_test_y_total", "y")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("bcwan_test_y_total", "y")
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	ns := r.Namespace("chain")
	c := ns.Counter("x_total", "x")
	g := ns.Gauge("y", "y")
	h := ns.Histogram("z_seconds", "z", nil)
	c.Inc()
	g.Set(3)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics retained values")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	var l *SnapshotLogger
	l.Stop() // must not panic
}

func TestNamespacePrefixes(t *testing.T) {
	r := NewRegistry()
	r.Namespace("chain").Counter("blocks_total", "blocks")
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Name != "bcwan_chain_blocks_total" {
		t.Fatalf("snapshot = %+v, want bcwan_chain_blocks_total", snap)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bcwan_test_lat_seconds", "lat", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Histogram == nil {
		t.Fatalf("snapshot = %+v", snap)
	}
	hd := snap[0].Histogram
	// 0.05 and 0.1 (inclusive bound) fall in le=0.1; 0.5 in le=1; 2 in
	// le=10; 100 in +Inf. Buckets are cumulative.
	wantLE := []string{"0.1", "1", "10", "+Inf"}
	wantCum := []uint64{2, 3, 4, 5}
	for i, b := range hd.Buckets {
		if b.LE != wantLE[i] || b.Count != wantCum[i] {
			t.Fatalf("bucket %d = {%s %d}, want {%s %d}", i, b.LE, b.Count, wantLE[i], wantCum[i])
		}
	}
	if hd.Count != 5 {
		t.Fatalf("count = %d, want 5", hd.Count)
	}
	if hd.Sum != 102.65 {
		t.Fatalf("sum = %v, want 102.65", hd.Sum)
	}
}

// TestConcurrentHammering drives every metric type from many goroutines
// under -race and checks the totals are exact: the lock-free paths must
// not drop updates.
func TestConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Exercise create-or-get concurrently too.
			c := r.Counter("bcwan_test_hammer_total", "hammer")
			g := r.Gauge("bcwan_test_hammer_size", "hammer")
			h := r.Histogram("bcwan_test_hammer_seconds", "hammer", []float64{0.5})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				h.Observe(0.25)
				h.Observe(0.75)
			}
		}()
	}
	wg.Wait()

	const n = workers * perWorker
	if got := r.Counter("bcwan_test_hammer_total", "hammer").Value(); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
	if got := r.Gauge("bcwan_test_hammer_size", "hammer").Value(); got != n {
		t.Fatalf("gauge = %d, want %d", got, n)
	}
	h := r.Histogram("bcwan_test_hammer_seconds", "hammer", []float64{0.5})
	if want := float64(n)*0.25 + float64(n)*0.75; h.Sum() != want {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), want)
	}
	snap := r.Snapshot()
	for _, m := range snap {
		if m.Histogram != nil {
			if m.Histogram.Count != 2*n {
				t.Fatalf("histogram count = %d, want %d", m.Histogram.Count, 2*n)
			}
			if m.Histogram.Buckets[0].Count != n || m.Histogram.Buckets[1].Count != 2*n {
				t.Fatalf("buckets = %+v", m.Histogram.Buckets)
			}
		}
	}
}

// TestSnapshotWhileWriting takes snapshots concurrently with updates;
// the invariant is that cumulative bucket counts never decrease and the
// +Inf bucket equals the reported count.
func TestSnapshotWhileWriting(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bcwan_test_live_seconds", "live", []float64{1, 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Observe(0.5)
				h.Observe(1.5)
				h.Observe(3)
			}
		}
	}()
	var prev uint64
	for i := 0; i < 200; i++ {
		snap := r.Snapshot()
		hd := snap[0].Histogram
		last := hd.Buckets[len(hd.Buckets)-1]
		if last.LE != "+Inf" || last.Count != hd.Count {
			t.Fatalf("+Inf bucket %d != count %d", last.Count, hd.Count)
		}
		for j := 1; j < len(hd.Buckets); j++ {
			if hd.Buckets[j].Count < hd.Buckets[j-1].Count {
				t.Fatalf("buckets not cumulative: %+v", hd.Buckets)
			}
		}
		if hd.Count < prev {
			t.Fatalf("count went backwards: %d -> %d", prev, hd.Count)
		}
		prev = hd.Count
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotLoggerEmitsAndStops(t *testing.T) {
	r := NewRegistry()
	r.Counter("bcwan_test_logged_total", "logged").Add(9)
	var buf bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	l := StartSnapshotLogger(r, log.New(w, "", 0), 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		s := buf.String()
		mu.Unlock()
		if strings.Contains(s, "bcwan_test_logged_total") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("logger never emitted a snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	l.Stop()
	l.Stop() // idempotent
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
