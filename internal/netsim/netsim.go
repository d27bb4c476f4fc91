// Package netsim models the wide-area network between gateways and
// recipients. The paper's evaluation ran on five PlanetLab nodes plus an
// EC2 master; here, per-link latencies are sampled from lognormal
// distributions calibrated to planetary-scale RTTs, deterministically
// seeded so experiments are reproducible.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// LinkDist is a lognormal one-way latency distribution.
type LinkDist struct {
	// MedianMS is the distribution median in milliseconds.
	MedianMS float64
	// Sigma is the lognormal shape parameter (spread).
	Sigma float64
}

// Sample draws one latency.
func (d LinkDist) Sample(rng *rand.Rand) time.Duration {
	if d.MedianMS <= 0 {
		return 0
	}
	mu := math.Log(d.MedianMS)
	ms := math.Exp(rng.NormFloat64()*d.Sigma + mu)
	return time.Duration(ms * float64(time.Millisecond))
}

// Network is a complete latency graph over n nodes.
type Network struct {
	n     int
	links [][]LinkDist
	rng   *rand.Rand
	// ProcessingDelay is added to every message to model endpoint
	// scheduling/CPU (the PlanetLab nodes had 4 cores and 512 MB).
	ProcessingDelay time.Duration
}

// NewPlanetLab builds a network shaped like the paper's deployment:
// node-to-node medians drawn uniformly in [20, 120] ms with moderate
// jitter, symmetric links, seeded deterministically.
func NewPlanetLab(seed int64, n int) *Network {
	rng := rand.New(rand.NewSource(seed))
	net := &Network{
		n:               n,
		links:           make([][]LinkDist, n),
		rng:             rng,
		ProcessingDelay: 2 * time.Millisecond,
	}
	for i := range net.links {
		net.links[i] = make([]LinkDist, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := LinkDist{
				MedianMS: 20 + 100*rng.Float64(),
				Sigma:    0.25,
			}
			net.links[i][j] = d
			net.links[j][i] = d
		}
	}
	return net
}

// Size returns the node count.
func (net *Network) Size() int { return net.n }

// Latency samples a one-way latency for a message from node a to node b.
func (net *Network) Latency(a, b int) time.Duration {
	if a < 0 || b < 0 || a >= net.n || b >= net.n {
		panic(fmt.Sprintf("netsim: node out of range: %d -> %d (n=%d)", a, b, net.n))
	}
	if a == b {
		return net.ProcessingDelay
	}
	return net.links[a][b].Sample(net.rng) + net.ProcessingDelay
}

// MedianMS returns the configured median for a link (useful in tests and
// reports).
func (net *Network) MedianMS(a, b int) float64 {
	if a == b {
		return 0
	}
	return net.links[a][b].MedianMS
}
