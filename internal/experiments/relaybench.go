package experiments

import (
	"crypto/rand"
	"fmt"
	"io"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/daemon"
	"bcwan/internal/p2p"
	"bcwan/internal/wallet"
)

// RelayBenchConfig sizes the gossip-relay experiment (DESIGN.md §12): a
// transaction-then-block workload runs over a sparse daemon mesh on the
// inv/getdata + compact-block relay, and the bytes on the wire, the
// time to full propagation and the compact reconstruction hit rate are
// reported.
type RelayBenchConfig struct {
	Nodes       int `json:"nodes"`         // mesh size
	Degree      int `json:"degree"`        // outbound dials per node (ring + doubling chords)
	TxsPerBlock int `json:"txs_per_block"` // payments gossiped then mined per block
	Blocks      int `json:"blocks"`        // mined blocks (workload rounds)
}

// DefaultRelayBenchConfig is the committed-baseline workload: a 16-node
// mesh where every block's transactions are gossiped to every pool
// before mining, the regime the compact sketch is designed for.
func DefaultRelayBenchConfig() RelayBenchConfig {
	return RelayBenchConfig{Nodes: 16, Degree: 3, TxsPerBlock: 32, Blocks: 3}
}

func quickRelayBenchConfig() RelayBenchConfig {
	return RelayBenchConfig{Nodes: 6, Degree: 2, TxsPerBlock: 6, Blocks: 2}
}

// RelayBenchResult is the measured cost of one relay mode; the bench
// measures "inv".
type RelayBenchResult struct {
	Mode          string  `json:"mode"`
	BytesPerBlock int64   `json:"bytes_per_block"` // total wire bytes sent across the mesh, per block round
	PropagationMS float64 `json:"propagation_ms"`  // mean MineNow → every-node-at-height latency
	HitRate       float64 `json:"hit_rate"`        // compact reconstructions resolved from the mempool alone
	TxnRoundTrips uint64  `json:"txn_roundtrips"`  // getblocktxn round trips across the mesh
	FullFallbacks uint64  `json:"full_fallbacks"`  // reconstructions abandoned for a full-block fetch
}

// RelayDoc is the BENCH_relay.json document.
type RelayDoc struct {
	docHeader
	RelayBenchConfig
	Results []*RelayBenchResult `json:"results"`
}

func (r *RelayBenchResult) mode() string { return r.Mode }

// relayBenchTimeout bounds each propagation wait; the mesh is in-memory
// and fault-free, so reaching it means the relay is broken, not slow.
const relayBenchTimeout = 30 * time.Second

// meshNeighbors returns the outbound dial targets of node i: the ring
// successor plus doubling chords (offsets 1, 2, 4, ...), which keeps the
// diameter logarithmic at any degree.
func meshNeighbors(i, nodes, degree int) []int {
	var out []int
	offset := 1
	for j := 0; j < degree; j++ {
		n := (i + offset) % nodes
		if n != i {
			out = append(out, n)
		}
		offset *= 2
	}
	return out
}

// relayMesh is one running instance of the benchmark cluster.
type relayMesh struct {
	cfg     RelayBenchConfig
	params  chain.Params
	nodes   []*daemon.Node
	wallets []*wallet.Wallet
}

// newRelayMesh boots cfg.Nodes daemons (node 0 mines) over a shared
// in-memory transport with the sparse dial plan, and waits until every
// link is bidirectional so announcements reach every neighbor.
func newRelayMesh(cfg RelayBenchConfig) (*relayMesh, error) {
	minerKey, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	m := &relayMesh{cfg: cfg, params: chain.DefaultParams()}
	alloc := make(map[[20]byte]uint64, cfg.TxsPerBlock)
	for i := 0; i < cfg.TxsPerBlock; i++ {
		w, err := wallet.New(rand.Reader)
		if err != nil {
			return nil, err
		}
		m.wallets = append(m.wallets, w)
		alloc[w.PubKeyHash()] = 1 << 32
	}
	genesis := chain.GenesisBlock(alloc)

	tr := p2p.NewMemTransport()
	for i := 0; i < cfg.Nodes; i++ {
		nc := daemon.NodeConfig{
			Genesis:      genesis,
			Params:       m.params,
			Miners:       [][]byte{minerKey.PublicBytes()},
			Transport:    tr,
			MineInterval: time.Hour,
		}
		if i == 0 {
			nc.MinerKey = minerKey
		}
		n, err := daemon.NewNode(nc)
		if err != nil {
			m.close()
			return nil, err
		}
		m.nodes = append(m.nodes, n)
	}

	// Dial the mesh; each dial's greeting getheaders registers the dialer
	// at its dialee (inbound peers register on the first received
	// message).
	degrees := make([]map[int]bool, cfg.Nodes)
	for i := range degrees {
		degrees[i] = make(map[int]bool)
	}
	for i, n := range m.nodes {
		for _, j := range meshNeighbors(i, cfg.Nodes, cfg.Degree) {
			if err := n.Connect(m.nodes[j].P2PAddr()); err != nil {
				m.close()
				return nil, fmt.Errorf("relay bench: dial %d→%d: %w", i, j, err)
			}
			degrees[i][j] = true
			degrees[j][i] = true
		}
	}
	err = waitFor("relay bench", relayBenchTimeout, "bidirectional mesh", func() bool {
		for i, n := range m.nodes {
			if int(n.Telemetry().Gauge("bcwan_p2p_peer_count", "").Value()) != len(degrees[i]) {
				return false
			}
		}
		return true
	})
	if err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

func (m *relayMesh) close() {
	for _, n := range m.nodes {
		n.Close()
	}
}

// sum adds one counter across every node in the mesh.
func (m *relayMesh) sum(name string) uint64 {
	var total uint64
	for _, n := range m.nodes {
		total += n.Telemetry().Counter(name, "").Value()
	}
	return total
}

// run drives the workload: per block, gossip TxsPerBlock payments from
// node 0 until every pool holds them, then mine and time full
// propagation of the block.
func (m *relayMesh) run() (*RelayBenchResult, error) {
	res := &RelayBenchResult{Mode: "inv"}
	miner := m.nodes[0]
	startBytes := m.sum("bcwan_p2p_bytes_out_total")
	var propagation time.Duration
	for round := 0; round < m.cfg.Blocks; round++ {
		for i, w := range m.wallets {
			tx, err := w.BuildPayment(miner.Ledger().Spendable(w.PubKeyHash()), w.PubKeyHash(), 1000, 1)
			if err != nil {
				return nil, fmt.Errorf("relay bench: payment %d round %d: %w", i, round, err)
			}
			if err := miner.Ledger().Submit(tx); err != nil {
				return nil, fmt.Errorf("relay bench: submit %d round %d: %w", i, round, err)
			}
		}
		err := waitFor("relay bench", relayBenchTimeout, "warm pools", func() bool {
			for _, n := range m.nodes {
				if n.Ledger().Pool.Len() != m.cfg.TxsPerBlock {
					return false
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		want := int64(round + 1)
		start := time.Now()
		if _, err := miner.MineNow(); err != nil {
			return nil, fmt.Errorf("relay bench: mine round %d: %w", round, err)
		}
		err = waitFor("relay bench", relayBenchTimeout, fmt.Sprintf("height %d everywhere", want), func() bool {
			for _, n := range m.nodes {
				if n.Chain().Height() != want {
					return false
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		propagation += time.Since(start)
	}
	// Let trailing announcements (re-relayed invs, duplicate sketches)
	// drain so the run pays for its full message cost.
	time.Sleep(50 * time.Millisecond)

	res.BytesPerBlock = int64(m.sum("bcwan_p2p_bytes_out_total")-startBytes) / int64(m.cfg.Blocks)
	res.PropagationMS = float64(propagation.Microseconds()) / 1000 / float64(m.cfg.Blocks)
	hits := m.sum("bcwan_daemon_cmpct_hits_total")
	res.TxnRoundTrips = m.sum("bcwan_daemon_cmpct_txn_requests_total")
	res.FullFallbacks = m.sum("bcwan_daemon_cmpct_full_fallbacks_total")
	if attempts := hits + res.TxnRoundTrips + res.FullFallbacks; attempts > 0 {
		res.HitRate = float64(hits) / float64(attempts)
	}
	return res, nil
}

// RunRelayBench measures the workload on a fresh mesh.
func RunRelayBench(cfg RelayBenchConfig) (*RelayDoc, error) {
	if cfg.Nodes < 2 || cfg.Degree < 1 || cfg.TxsPerBlock < 1 || cfg.Blocks < 1 {
		return nil, fmt.Errorf("relay bench config must be positive: %+v", cfg)
	}
	mesh, err := newRelayMesh(cfg)
	if err != nil {
		return nil, err
	}
	defer mesh.close()
	res, err := mesh.run()
	if err != nil {
		return nil, err
	}
	return &RelayDoc{RelayBenchConfig: cfg, Results: []*RelayBenchResult{res}}, nil
}

// WriteRelayBench prints the measurement.
func WriteRelayBench(w io.Writer, doc *RelayDoc) {
	fmt.Fprintf(w, "== Gossip relay: inventory/compact (%d nodes, degree %d, %d tx × %d blocks) ==\n",
		doc.Nodes, doc.Degree, doc.TxsPerBlock, doc.Blocks)
	fmt.Fprintf(w, "%16s %16s %10s %14s %14s\n",
		"bytes/block", "propagation", "hit rate", "txn roundtrips", "full fallbacks")
	for _, r := range doc.Results {
		fmt.Fprintf(w, "%16d %13.2fms %9.0f%% %14d %14d\n",
			r.BytesPerBlock, r.PropagationMS, 100*r.HitRate, r.TxnRoundTrips, r.FullFallbacks)
	}
	fmt.Fprintln(w)
}

const (
	// maxRelayBytesRegression is the allowed bytes-per-block increase
	// over the committed baseline.
	maxRelayBytesRegression = 0.25
	// minCompactHitRate is an absolute floor, not a fraction of baseline:
	// reconstruction on a warm mempool is deterministic, so a drop means
	// the short-txid matching broke.
	minCompactHitRate = 0.75
)

// gateRelay compares the inv-relay row of the candidate against the
// baseline: wire bytes per block may grow at most
// maxRelayBytesRegression over the committed figure, and the
// compact-block reconstruction hit rate must stay at or above
// minCompactHitRate. Bytes are comparable across machines because the
// workload — message count and sizes on an in-memory transport — is
// fixed by the document's node/tx shape.
func gateRelay(base, cand *RelayDoc) ([]string, error) {
	if base.RelayBenchConfig != cand.RelayBenchConfig {
		return nil, fmt.Errorf("workload mismatch: baseline %d nodes/deg %d/%dx%d vs candidate %d nodes/deg %d/%dx%d — regenerate the baseline",
			base.Nodes, base.Degree, base.TxsPerBlock, base.Blocks,
			cand.Nodes, cand.Degree, cand.TxsPerBlock, cand.Blocks)
	}
	b := rowByMode(base.Results, "inv")
	if b == nil {
		return nil, fmt.Errorf("%s: no inv row", base.path)
	}
	c := rowByMode(cand.Results, "inv")
	if c == nil {
		return nil, fmt.Errorf("%s: no inv row", cand.path)
	}

	var failures []string
	if b.BytesPerBlock > 0 && float64(c.BytesPerBlock) > float64(b.BytesPerBlock)*(1+maxRelayBytesRegression) {
		failures = append(failures, fmt.Sprintf(
			"relay bytes per block: %d vs baseline %d (+%.0f%%, allowed +%.0f%%)",
			c.BytesPerBlock, b.BytesPerBlock, 100*(float64(c.BytesPerBlock)/float64(b.BytesPerBlock)-1), 100*maxRelayBytesRegression))
	}
	if c.HitRate < minCompactHitRate {
		failures = append(failures, fmt.Sprintf(
			"compact reconstruction hit rate %.2f below floor %.2f — short-txid matching or mempool lookup regressed",
			c.HitRate, minCompactHitRate))
	}
	return failures, nil
}
