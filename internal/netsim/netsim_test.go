package netsim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestLinkDistSamplepositive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := LinkDist{MedianMS: 50, Sigma: 0.25}
	for i := 0; i < 1000; i++ {
		if s := d.Sample(rng); s <= 0 {
			t.Fatalf("sample %v not positive", s)
		}
	}
}

func TestLinkDistMedianApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := LinkDist{MedianMS: 80, Sigma: 0.25}
	samples := make([]float64, 5001)
	for i := range samples {
		samples[i] = float64(d.Sample(rng)) / float64(time.Millisecond)
	}
	// Median of samples ≈ configured median (±10%).
	med := median(samples)
	if math.Abs(med-80) > 8 {
		t.Fatalf("sample median = %.1f ms, want ≈80", med)
	}
}

func median(v []float64) float64 {
	sorted := append([]float64(nil), v...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

func TestLinkDistZeroMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if s := (LinkDist{}).Sample(rng); s != 0 {
		t.Fatalf("zero dist sampled %v", s)
	}
}

func TestLinkDistMean(t *testing.T) {
	d := LinkDist{MedianMS: 100, Sigma: 0.5}
	want := 100 * math.Exp(0.125)
	if math.Abs(d.Mean()-want) > 1e-9 {
		t.Fatalf("Mean = %f, want %f", d.Mean(), want)
	}
}

func TestPlanetLabDeterministic(t *testing.T) {
	a := NewPlanetLab(7, 5)
	b := NewPlanetLab(7, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if a.MedianMS(i, j) != b.MedianMS(i, j) {
				t.Fatal("same seed produced different topologies")
			}
		}
	}
	if a.Latency(0, 1) != b.Latency(0, 1) {
		t.Fatal("same seed produced different samples")
	}
}

func TestPlanetLabSymmetricMedians(t *testing.T) {
	net := NewPlanetLab(3, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if net.MedianMS(i, j) != net.MedianMS(j, i) {
				t.Fatal("link medians not symmetric")
			}
		}
	}
}

func TestPlanetLabMediansInRange(t *testing.T) {
	net := NewPlanetLab(11, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i == j {
				continue
			}
			m := net.MedianMS(i, j)
			if m < 20 || m > 120 {
				t.Fatalf("median %f outside [20,120]", m)
			}
		}
	}
}

func TestSelfLatencyIsProcessingOnly(t *testing.T) {
	net := NewPlanetLab(5, 3)
	if got := net.Latency(1, 1); got != net.ProcessingDelay {
		t.Fatalf("self latency = %v, want %v", got, net.ProcessingDelay)
	}
}

func TestLatencyPanicsOutOfRange(t *testing.T) {
	net := NewPlanetLab(5, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range node")
		}
	}()
	net.Latency(0, 9)
}
