// Package chaos is a deterministic fault-injection harness for BcWAN's
// federated setting: it wraps the in-memory p2p transport with seeded
// message drop/delay/reorder/duplication, network partitions with
// explicit heal, and node crash + restart from the on-disk store, then
// checks the end-to-end safety invariants the paper depends on (UTXO
// conservation, chain convergence, fair-exchange atomicity, no double
// spend). Every fault decision is drawn from a per-link RNG derived
// from one scenario seed, so a failing run is replayable from its seed
// alone.
package chaos

import (
	"hash/fnv"
	mrand "math/rand"
	"sync"
	"time"

	"bcwan/internal/netsim"
	"bcwan/internal/p2p"
	"bcwan/internal/simtime"
	"bcwan/internal/telemetry"
)

// Faults configures the failure modes of one directed link. Rates are
// probabilities in [0, 1]; a zero value injects nothing.
type Faults struct {
	// Drop is the probability a message is silently lost.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back long enough for
	// later traffic to overtake it.
	Reorder float64
	// ReorderDelay is how long reordered messages are held
	// (defaultReorderDelay when zero).
	ReorderDelay time.Duration
	// Delay, when its median is non-zero, adds a lognormal latency to
	// every delivery (the netsim planetary-link model).
	Delay netsim.LinkDist
}

const defaultReorderDelay = 40 * time.Millisecond

// Any reports whether any fault is configured.
func (f Faults) Any() bool {
	return f.Drop > 0 || f.Duplicate > 0 || f.Reorder > 0 || f.Delay.MedianMS > 0
}

type linkKey struct{ from, to string }

// Net is a fault-injecting overlay on a p2p.MemTransport. Node names
// double as transport addresses; faults apply per directed link on the
// send path, so the receiver observes losses, duplicates and
// inversions exactly as a lossy WAN would deliver them.
type Net struct {
	inner *p2p.MemTransport
	clock simtime.Clock
	seed  int64

	mu          sync.Mutex
	def         Faults
	links       map[linkKey]Faults
	group       map[string]int
	partitioned bool
	metrics     *netMetrics

	// wg tracks in-flight delayed deliveries so Wait can drain them.
	wg sync.WaitGroup
}

// NewNet creates a fault-free network; configure faults and partitions
// before or during a scenario. The seed fixes every future fault
// decision.
func NewNet(seed int64) *Net {
	return &Net{
		inner: p2p.NewMemTransport(),
		clock: simtime.NewReal(),
		seed:  seed,
		links: make(map[linkKey]Faults),
		group: make(map[string]int),
	}
}

// SetClock replaces the delay clock (tests use simtime.Sim). Call
// before any traffic flows.
func (n *Net) SetClock(c simtime.Clock) { n.clock = c }

// Instrument registers fault counters in reg so injected faults are
// observable alongside the node metrics. Call before traffic flows; a
// nil registry is a no-op.
func (n *Net) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.metrics = newNetMetrics(reg)
}

// SetDefaultFaults applies f to every link without an override.
func (n *Net) SetDefaultFaults(f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.def = f
}

// SetLinkFaults overrides the faults of the directed link from → to.
func (n *Net) SetLinkFaults(from, to string, f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{from, to}] = f
}

// Partition splits the network into the given groups: messages between
// nodes of different groups are dropped until Heal. Nodes not listed
// in any group keep full connectivity.
func (n *Net) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = make(map[string]int)
	for i, g := range groups {
		for _, name := range g {
			n.group[name] = i
		}
	}
	n.partitioned = true
}

// Heal removes the partition.
func (n *Net) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned = false
	n.group = make(map[string]int)
}

// Wait blocks until every delayed in-flight delivery has been handed
// to the inner transport (delivery into a closed connection is loss,
// as on a real network).
func (n *Net) Wait() { n.wg.Wait() }

// TransportFor returns the transport a node named name must use. The
// name identifies the local end of every link the node participates
// in, which is what per-link fault configuration keys on.
func (n *Net) TransportFor(name string) p2p.Transport {
	return &chaosTransport{net: n, local: name}
}

// verdict is one fault decision for one message.
type verdict struct {
	drop        bool
	partitioned bool
	// delays holds one entry per delivered copy (1 normally, 2 when
	// duplicated); zero means deliver inline.
	delays []time.Duration
}

// decide draws the fault outcome for one message on the from → to
// link. The caller owns rng's lock.
func (n *Net) decide(from, to string, rng *mrand.Rand) verdict {
	n.mu.Lock()
	f, ok := n.links[linkKey{from, to}]
	if !ok {
		f = n.def
	}
	blocked := false
	if n.partitioned {
		gf, okf := n.group[from]
		gt, okt := n.group[to]
		blocked = okf && okt && gf != gt
	}
	m := n.metrics
	n.mu.Unlock()

	m.sent()
	if blocked {
		m.fault("partition")
		return verdict{drop: true, partitioned: true}
	}
	if f.Drop > 0 && rng.Float64() < f.Drop {
		m.fault("drop")
		return verdict{drop: true}
	}
	copies := 1
	if f.Duplicate > 0 && rng.Float64() < f.Duplicate {
		copies = 2
		m.fault("duplicate")
	}
	v := verdict{delays: make([]time.Duration, copies)}
	for i := range v.delays {
		var d time.Duration
		if f.Delay.MedianMS > 0 {
			d = f.Delay.Sample(rng)
			m.fault("delay")
		}
		if f.Reorder > 0 && rng.Float64() < f.Reorder {
			hold := f.ReorderDelay
			if hold <= 0 {
				hold = defaultReorderDelay
			}
			d += hold
			m.fault("reorder")
		}
		v.delays[i] = d
	}
	return v
}

// linkSeed derives a per-link RNG seed from the scenario seed and the
// two endpoint names.
func linkSeed(seed int64, from, to string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	return int64(h.Sum64())
}

// chaosTransport tags connections with the local node name.
type chaosTransport struct {
	net   *Net
	local string
}

func (t *chaosTransport) Listen(addr string) (p2p.Listener, error) {
	l, err := t.net.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &chaosListener{net: t.net, local: t.local, inner: l}, nil
}

func (t *chaosTransport) Dial(addr string) (p2p.Conn, error) {
	c, err := t.net.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return newChaosConn(t.net, t.local, addr, c), nil
}

type chaosListener struct {
	net   *Net
	local string
	inner p2p.Listener
}

func (l *chaosListener) Accept() (p2p.Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	// The remote name is unknown until its first message arrives; the
	// gossip protocol never sends on an accepted conn before then.
	return newChaosConn(l.net, l.local, "", c), nil
}

func (l *chaosListener) Close() error { return l.inner.Close() }
func (l *chaosListener) Addr() string { return l.inner.Addr() }

// chaosConn injects faults on the send path of one connection.
type chaosConn struct {
	net   *Net
	local string
	inner p2p.Conn

	mu     sync.Mutex
	remote string
	rng    *mrand.Rand
}

func newChaosConn(net *Net, local, remote string, inner p2p.Conn) *chaosConn {
	return &chaosConn{net: net, local: local, remote: remote, inner: inner}
}

func (c *chaosConn) Send(m p2p.Message) error {
	c.mu.Lock()
	if c.rng == nil {
		c.rng = mrand.New(mrand.NewSource(linkSeed(c.net.seed, c.local, c.remote)))
	}
	v := c.net.decide(c.local, c.remote, c.rng)
	c.mu.Unlock()
	if v.drop {
		return nil // loss and partition are indistinguishable from slowness
	}
	for _, d := range v.delays {
		if d <= 0 {
			if err := c.inner.Send(m); err != nil {
				return err
			}
			continue
		}
		c.net.wg.Add(1)
		go func(d time.Duration) {
			defer c.net.wg.Done()
			c.net.clock.Sleep(d)
			// A late copy arriving at a closed conn is just loss.
			_ = c.inner.Send(m)
		}(d)
	}
	return nil
}

func (c *chaosConn) Receive() (p2p.Message, error) {
	m, err := c.inner.Receive()
	if err == nil && m.From != "" {
		c.mu.Lock()
		if c.remote == "" {
			c.remote = m.From
		}
		c.mu.Unlock()
	}
	return m, err
}

func (c *chaosConn) Close() error { return c.inner.Close() }

// netMetrics counts injected faults; nil-safe so an uninstrumented Net
// costs nothing.
type netMetrics struct {
	messages *telemetry.Counter
	faults   map[string]*telemetry.Counter
}

func newNetMetrics(reg *telemetry.Registry) *netMetrics {
	ns := reg.Namespace("chaos")
	m := &netMetrics{
		messages: ns.Counter("messages_total", "Messages offered to the fault layer."),
		faults:   make(map[string]*telemetry.Counter),
	}
	for _, kind := range []string{"drop", "duplicate", "delay", "reorder", "partition"} {
		m.faults[kind] = ns.Counter("faults_injected_total",
			"Faults injected by kind.", telemetry.L("kind", kind))
	}
	return m
}

func (m *netMetrics) sent() {
	if m != nil {
		m.messages.Inc()
	}
}

func (m *netMetrics) fault(kind string) {
	if m != nil {
		m.faults[kind].Inc()
	}
}
