package experiments

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"io"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/daemon"
	"bcwan/internal/p2p"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

// SyncBenchConfig sizes the cold-start experiment behind the headers-
// first sync redesign (DESIGN.md §13): a miner builds Height blocks of
// history, then a fresh gateway joins and the time from first dial to
// first settled delivery is measured twice — once with snapshots
// disabled (headers first, then every body fetched and executed from
// genesis, as when no peer serves a snapshot), once over the headers +
// signed-snapshot bootstrap.
type SyncBenchConfig struct {
	Height            int64 `json:"height"`              // server chain height before the joiner dials
	SnapshotInterval  int64 `json:"snapshot_interval"`   // miner commitment spacing
	SnapshotChunkSize int   `json:"snapshot_chunk_size"` // served chunk payload size in bytes
	TxsPerBlock       int   `json:"txs_per_block"`       // payment bodies mined into every block
}

// DefaultSyncBenchConfig is the committed-baseline workload: the
// height-100k join of the paper's gateway cold-start scenario, with a
// snapshot boundary close enough to the tip that the backfilled tail
// stays a few dozen getdata batches, and enough payment traffic per
// block that replaying history costs what it costs in production —
// script verification of every body, not just the header spine.
func DefaultSyncBenchConfig() SyncBenchConfig {
	return SyncBenchConfig{Height: 100_000, SnapshotInterval: 8192, SnapshotChunkSize: 256 << 10, TxsPerBlock: 4}
}

func quickSyncBenchConfig() SyncBenchConfig {
	return SyncBenchConfig{Height: 600, SnapshotInterval: 128, SnapshotChunkSize: 32 << 10, TxsPerBlock: 2}
}

// SyncBenchResult is the measured cost of one join mode.
type SyncBenchResult struct {
	Mode            string  `json:"mode"`              // "replay" or "snapshot"
	ColdStartMS     float64 `json:"cold_start_ms"`     // dial → caught up with the server tip
	FirstDeliveryMS float64 `json:"first_delivery_ms"` // dial → first payment settled on the joiner
	BytesIn         int64   `json:"bytes_in"`          // wire bytes the joiner received
	PruneBase       int64   `json:"prune_base"`        // joiner's horizon after the join (0 = full history)
	BlocksReplayed  int64   `json:"blocks_replayed"`   // bodies fetched and executed during the join
}

// SyncDoc is the BENCH_sync.json document. SpeedupRatio is replay
// first-delivery time over snapshot first-delivery time — the headline
// number of the sync redesign; 0 when either row is missing or
// non-positive. Both joins run on the same machine against the same
// history, so the ratio is machine-independent.
type SyncDoc struct {
	docHeader
	SyncBenchConfig
	SpeedupRatio float64            `json:"speedup_ratio"`
	Results      []*SyncBenchResult `json:"results"`
}

func (r *SyncBenchResult) mode() string { return r.Mode }

func newSyncDoc(cfg SyncBenchConfig, results []*SyncBenchResult) *SyncDoc {
	doc := &SyncDoc{SyncBenchConfig: cfg, Results: results}
	replay, snapshot := rowByMode(doc.Results, "replay"), rowByMode(doc.Results, "snapshot")
	if replay != nil && snapshot != nil && replay.FirstDeliveryMS > 0 && snapshot.FirstDeliveryMS > 0 {
		doc.SpeedupRatio = replay.FirstDeliveryMS / snapshot.FirstDeliveryMS
	}
	return doc
}

// syncBenchTimeout bounds each wait; the mesh is in-memory and
// fault-free, so reaching it means the join path is broken, not slow.
const syncBenchTimeout = 10 * time.Minute

// joinerRetryInterval paces both joiners' stall-retry ticks. It sits
// above the worst-case batch verification time — the machine self-paces
// off responses, and a retry firing while a batch is still being checked
// would inject duplicate traffic.
const joinerRetryInterval = 25 * time.Millisecond

// syncBench is one server-plus-history instance; both join modes run
// against the same mined chain so the workloads differ only in path.
type syncBench struct {
	cfg     SyncBenchConfig
	params  chain.Params
	tr      p2p.Transport
	miners  [][]byte
	genesis *chain.Block
	server  *daemon.Node
	wallets []*wallet.Wallet // one spendable genesis output per mode
	feeder  *txFeeder
}

// txFeeder fills the mined history with real transaction bodies: one key
// chains zero-fee self-payments, each spending its predecessor's output,
// so coin selection stays O(1) no matter how long the chain grows (the
// wallet's generic path scans the whole UTXO set per payment, which
// would make a 100k-block build quadratic). These bodies are what
// separates the two join paths — the genesis replay re-executes every
// script, the snapshot bootstrap skips every body below the horizon.
type txFeeder struct {
	key  *bccrypto.ECKey
	lock []byte // the P2PKH lock on every output the feeder creates
	op   chain.OutPoint
	val  uint64
}

// next builds and signs the successor self-payment.
func (f *txFeeder) next() (*chain.Tx, error) {
	tx := &chain.Tx{
		Version: 1,
		Inputs:  []chain.TxIn{{Prev: f.op}},
		Outputs: []chain.TxOut{{Value: f.val, Lock: f.lock}},
	}
	digest := tx.SigHash(0, f.lock)
	sig, err := f.key.SignDigest(rand.Reader, digest[:])
	if err != nil {
		return nil, err
	}
	tx.Inputs[0].Unlock = script.UnlockP2PKH(sig, f.key.PublicBytes())
	f.op = chain.OutPoint{TxID: tx.ID(), Index: 0}
	return tx, nil
}

// newSyncBench mines cfg.Height coinbase blocks on an isolated miner
// daemon. Mining through the daemon (not an offline chain) keeps the
// snapshot side honest: the miner publishes its signed commitments at
// every interval boundary exactly as a production node would.
func newSyncBench(cfg SyncBenchConfig) (*syncBench, error) {
	minerKey, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	sb := &syncBench{
		cfg:    cfg,
		params: chain.DefaultParams(),
		tr:     p2p.NewMemTransport(),
		miners: [][]byte{minerKey.PublicBytes()},
	}
	alloc := make(map[[20]byte]uint64, 3)
	for i := 0; i < 2; i++ {
		w, err := wallet.New(rand.Reader)
		if err != nil {
			return nil, err
		}
		sb.wallets = append(sb.wallets, w)
		alloc[w.PubKeyHash()] = 1 << 32
	}
	feederKey, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	feedLock := script.PayToPubKeyHash(feederKey.PubKeyHash())
	alloc[feederKey.PubKeyHash()] = 1 << 32
	sb.genesis = chain.GenesisBlock(alloc)
	coinbase := sb.genesis.Txs[0]
	for i, out := range coinbase.Outputs {
		if bytes.Equal(out.Lock, feedLock) {
			sb.feeder = &txFeeder{
				key:  feederKey,
				lock: feedLock,
				op:   chain.OutPoint{TxID: coinbase.ID(), Index: uint32(i)},
				val:  out.Value,
			}
		}
	}

	sb.server, err = daemon.NewNode(daemon.NodeConfig{
		Genesis:           sb.genesis,
		Params:            sb.params,
		Miners:            sb.miners,
		MinerKey:          minerKey,
		Transport:         sb.tr,
		MineInterval:      time.Hour,
		SnapshotInterval:  cfg.SnapshotInterval,
		SnapshotChunkSize: cfg.SnapshotChunkSize,
	})
	if err != nil {
		return nil, err
	}
	for sb.server.Chain().Height() < cfg.Height {
		for t := 0; t < cfg.TxsPerBlock; t++ {
			tx, err := sb.feeder.next()
			if err == nil {
				err = sb.server.Ledger().Submit(tx)
			}
			if err != nil {
				sb.close()
				return nil, fmt.Errorf("sync bench: feed height %d: %w", sb.server.Chain().Height()+1, err)
			}
		}
		if _, err := sb.server.MineNow(); err != nil {
			sb.close()
			return nil, fmt.Errorf("sync bench: mine height %d: %w", sb.server.Chain().Height()+1, err)
		}
	}
	return sb, nil
}

func (sb *syncBench) close() {
	if sb.server != nil {
		sb.server.Close()
	}
}

// run measures one cold start: boot a fresh joiner against the server,
// wait until it has caught up with the tip, then settle one payment
// through it and stop the clock when the joiner sees the spend
// confirmed.
func (sb *syncBench) run(mode string, wlt *wallet.Wallet) (*SyncBenchResult, error) {
	res := &SyncBenchResult{Mode: mode}
	target := sb.server.Chain().Height()

	start := time.Now()
	joiner, err := daemon.NewNode(daemon.NodeConfig{
		Genesis:              sb.genesis,
		Params:               sb.params,
		Miners:               sb.miners,
		Transport:            sb.tr,
		MineInterval:         time.Hour,
		Peers:                []string{sb.server.P2PAddr()},
		SyncRetryInterval:    joinerRetryInterval,
		SnapshotInterval:     sb.cfg.SnapshotInterval,
		SnapshotChunkSize:    sb.cfg.SnapshotChunkSize,
		SnapshotSyncDisabled: mode == "replay",
	})
	if err != nil {
		return nil, err
	}
	defer joiner.Close()

	err = waitFor("sync bench", syncBenchTimeout, mode+" joiner live at tip", func() bool {
		return joiner.SyncInfo().Phase == "live" && joiner.Chain().Height() >= target
	})
	if err != nil {
		return nil, err
	}
	res.ColdStartMS = msSince(start)

	// First delivery: a payment submitted at the freshly joined gateway,
	// relayed to the miner, mined, and seen settled back on the joiner.
	// One payment per campaign row from confirmed coins only: the copy
	// is the joiner's whole synced state, taken once.
	tx, err := wlt.BuildPayment(joiner.Chain().UTXO(), wlt.PubKeyHash(), 1000, 1)
	if err != nil {
		return nil, fmt.Errorf("sync bench %s: payment: %w", mode, err)
	}
	if err := joiner.Ledger().Submit(tx); err != nil {
		return nil, fmt.Errorf("sync bench %s: submit: %w", mode, err)
	}
	if err := waitFor("sync bench", syncBenchTimeout, "payment to reach the miner pool", func() bool {
		return sb.server.Ledger().Pool.Len() > 0
	}); err != nil {
		return nil, err
	}
	if _, err := sb.server.MineNow(); err != nil {
		return nil, fmt.Errorf("sync bench %s: mine delivery: %w", mode, err)
	}
	if err := waitFor("sync bench", syncBenchTimeout, "delivery to settle on the joiner", func() bool {
		_, _, spent := joiner.Chain().FindSpender(tx.Inputs[0].Prev)
		return spent
	}); err != nil {
		return nil, err
	}
	res.FirstDeliveryMS = msSince(start)

	res.BytesIn = int64(joiner.Telemetry().Counter("bcwan_p2p_bytes_in_total", "").Value())
	res.PruneBase = joiner.Chain().PruneBase()
	res.BlocksReplayed = joiner.Chain().Height() - res.PruneBase
	if mode == "snapshot" {
		if joiner.SyncInfo().FullSyncFallback {
			return nil, fmt.Errorf("sync bench: snapshot joiner degraded to a full sync")
		}
		if res.PruneBase == 0 {
			return nil, fmt.Errorf("sync bench: snapshot joiner never installed a snapshot")
		}
	}
	return res, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}

// RunSyncBench measures the cold start under both join paths against
// one shared mined history: the genesis replay first (what a joiner pays
// when no peer serves a snapshot), then the snapshot bootstrap.
func RunSyncBench(cfg SyncBenchConfig) (*SyncDoc, error) {
	if cfg.Height < 1 || cfg.SnapshotInterval < 1 || cfg.SnapshotChunkSize < 1 || cfg.TxsPerBlock < 1 {
		return nil, fmt.Errorf("sync bench config must be positive: %+v", cfg)
	}
	if cfg.Height < 2*cfg.SnapshotInterval {
		return nil, fmt.Errorf("sync bench: height %d leaves no snapshot boundary behind the tip (interval %d)",
			cfg.Height, cfg.SnapshotInterval)
	}
	sb, err := newSyncBench(cfg)
	if err != nil {
		return nil, err
	}
	defer sb.close()
	var results []*SyncBenchResult
	for i, mode := range []string{"replay", "snapshot"} {
		res, err := sb.run(mode, sb.wallets[i])
		if err != nil {
			return nil, fmt.Errorf("sync bench %s: %w", mode, err)
		}
		results = append(results, res)
	}
	return newSyncDoc(cfg, results), nil
}

// WriteSyncBench prints both join paths side by side with the speedup
// ratio the CI gate tracks.
func WriteSyncBench(w io.Writer, doc *SyncDoc) {
	fmt.Fprintf(w, "== Gateway cold start: genesis replay vs snapshot bootstrap (height %d, snapshot every %d, %d txs/block) ==\n",
		doc.Height, doc.SnapshotInterval, doc.TxsPerBlock)
	fmt.Fprintf(w, "%-10s %14s %16s %14s %12s %14s\n",
		"mode", "cold start", "first delivery", "bytes in", "prune base", "blocks replayed")
	for _, r := range doc.Results {
		fmt.Fprintf(w, "%-10s %11.0fms %13.0fms %14d %12d %14d\n",
			r.Mode, r.ColdStartMS, r.FirstDeliveryMS, r.BytesIn, r.PruneBase, r.BlocksReplayed)
	}
	if doc.SpeedupRatio > 0 {
		fmt.Fprintf(w, "first-delivery speedup: %.1fx\n", doc.SpeedupRatio)
	}
	fmt.Fprintln(w)
}

// minSyncSpeedup floors the snapshot bootstrap's first-delivery speedup
// over the genesis replay.
const minSyncSpeedup = 1.5

// gateSync asserts the snapshot-bootstrap property inside the candidate
// document itself: joining via snapshot must reach first delivery at
// least minSyncSpeedup times faster than the genesis replay of the same
// history, and the snapshot join must actually have pruned
// (prune_base > 0) with fewer bodies executed than the replay. Both
// joins run back to back on the same machine, so the ratio holds on any
// runner speed — a bootstrap that quietly degrades to replaying every
// body pushes it to 1x. The baseline is only checked for workload-shape
// agreement (absolute milliseconds are not compared across machines).
func gateSync(base, cand *SyncDoc) ([]string, error) {
	if base.Height != cand.Height || base.SnapshotInterval != cand.SnapshotInterval ||
		base.TxsPerBlock != cand.TxsPerBlock {
		return nil, fmt.Errorf("workload mismatch: baseline height %d/interval %d/%d txs vs candidate height %d/interval %d/%d txs — regenerate the baseline",
			base.Height, base.SnapshotInterval, base.TxsPerBlock,
			cand.Height, cand.SnapshotInterval, cand.TxsPerBlock)
	}
	replay := rowByMode(cand.Results, "replay")
	if replay == nil {
		return nil, fmt.Errorf("%s: no replay row", cand.path)
	}
	snap := rowByMode(cand.Results, "snapshot")
	if snap == nil {
		return nil, fmt.Errorf("%s: no snapshot row", cand.path)
	}
	if replay.FirstDeliveryMS <= 0 || snap.FirstDeliveryMS <= 0 {
		return nil, fmt.Errorf("%s: non-positive first-delivery time", cand.path)
	}

	var failures []string
	if ratio := replay.FirstDeliveryMS / snap.FirstDeliveryMS; ratio < minSyncSpeedup {
		failures = append(failures, fmt.Sprintf(
			"snapshot bootstrap speedup %.2fx below floor %.1fx (replay %.0fms vs snapshot %.0fms at height %d) — is the join replaying bodies below the horizon?",
			ratio, minSyncSpeedup, replay.FirstDeliveryMS, snap.FirstDeliveryMS, cand.Height))
	}
	if snap.PruneBase <= 0 {
		failures = append(failures, fmt.Sprintf(
			"snapshot join never pruned (prune_base %d) — did the bootstrap fall back to a full sync?", snap.PruneBase))
	}
	if snap.BlocksReplayed >= replay.BlocksReplayed {
		failures = append(failures, fmt.Sprintf(
			"snapshot join executed %d bodies, replay %d — the horizon saved nothing", snap.BlocksReplayed, replay.BlocksReplayed))
	}
	return failures, nil
}
