package experiments

import (
	"crypto/rand"
	"fmt"
	"io"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/daemon"
	"bcwan/internal/device"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/p2p"
	"bcwan/internal/recipient"
	"bcwan/internal/wallet"
)

// ChannelBenchConfig sizes the off-chain settlement experiment behind
// the payment-channel subsystem (DESIGN.md §14): one sensor streams
// Deliveries readings through a gateway/recipient pair, once settled
// per-message on-chain (a payment and a claim transaction mined for
// every reading) and once through a single payment channel (two anchor
// transactions total: the funding and the batched close).
type ChannelBenchConfig struct {
	Deliveries int    `json:"deliveries"` // readings streamed per mode
	Capacity   uint64 `json:"capacity"`   // channel funding capacity
	Price      uint64 `json:"price"`      // per-delivery price
	// BlockIntervalMS is the federation's block-production cadence: every
	// mined block costs this much wall clock before the settlement it
	// carries is durable. 0 mines on demand — useful for deterministic
	// tests, but it hides the confirmation latency that per-message
	// settlement pays once per reading in a real deployment (the paper
	// runs 15 s intervals; the bench scales that down to keep CI fast).
	BlockIntervalMS int `json:"block_interval_ms"`
}

// DefaultChannelBenchConfig is the committed-baseline workload: enough
// deliveries that the per-message mode pays its block interval ~150
// times while the channel amortizes both anchors across the batch.
func DefaultChannelBenchConfig() ChannelBenchConfig {
	return ChannelBenchConfig{Deliveries: 150, Capacity: 50_000, Price: 100, BlockIntervalMS: 100}
}

func quickChannelBenchConfig() ChannelBenchConfig {
	cfg := DefaultChannelBenchConfig()
	cfg.Deliveries, cfg.Capacity = 30, 10_000
	return cfg
}

// ChannelBenchResult is the measured cost of one settlement mode.
type ChannelBenchResult struct {
	Mode             string  `json:"mode"`       // "onchain" or "channel"
	Deliveries       int     `json:"deliveries"` // readings settled end to end
	ElapsedMS        float64 `json:"elapsed_ms"` // first uplink → last settlement durable on-chain/off-chain
	DeliveriesPerSec float64 `json:"deliveries_per_sec"`
	OnChainTxs       int64   `json:"onchain_txs"`  // non-coinbase transactions mined during the stream
	BlocksMined      int64   `json:"blocks_mined"` // blocks mined during the stream
}

// ChannelDoc is the BENCH_channel.json document. SpeedupRatio is channel
// deliveries/sec over on-chain deliveries/sec — the headline number of
// the channel subsystem — and TxReduction the on-chain transaction count
// ratio (per-message over channel): how many mined transactions one
// channel anchor pair replaces. Either is 0 when a row is missing or
// non-positive. Both modes run on the same machine with the same
// workload, so the ratios are machine-independent.
type ChannelDoc struct {
	docHeader
	ChannelBenchConfig
	SpeedupRatio float64               `json:"speedup_ratio"`
	TxReduction  float64               `json:"tx_reduction"`
	Results      []*ChannelBenchResult `json:"results"`
}

func (r *ChannelBenchResult) mode() string { return r.Mode }

func newChannelDoc(cfg ChannelBenchConfig, results []*ChannelBenchResult) *ChannelDoc {
	doc := &ChannelDoc{ChannelBenchConfig: cfg, Results: results}
	onchain, channel := rowByMode(doc.Results, "onchain"), rowByMode(doc.Results, "channel")
	if onchain == nil || channel == nil {
		return doc
	}
	if onchain.DeliveriesPerSec > 0 && channel.DeliveriesPerSec > 0 {
		doc.SpeedupRatio = channel.DeliveriesPerSec / onchain.DeliveriesPerSec
	}
	if onchain.OnChainTxs > 0 && channel.OnChainTxs > 0 {
		doc.TxReduction = float64(onchain.OnChainTxs) / float64(channel.OnChainTxs)
	}
	return doc
}

// channelBenchTimeout bounds each wait; the mesh is in-memory and
// fault-free, so reaching it means the settlement path is broken.
const channelBenchTimeout = 2 * time.Minute

// channelBench is one three-node federation (miner + gateway daemon +
// recipient daemon over an in-memory mesh that also carries deliveries)
// with a provisioned sensor. Each mode runs on a fresh instance so the
// two workloads differ only in settlement path.
type channelBench struct {
	cfg    ChannelBenchConfig
	master *daemon.Node
	gwd    *daemon.GatewayDaemon
	rcptd  *daemon.RecipientDaemon
	dev    *device.Device
	// rcptMgr is the payer-side channel manager (channel mode only).
	rcptMgr *daemon.ChannelManager
}

func newChannelBench(cfg ChannelBenchConfig, channels bool) (*channelBench, error) {
	treasury, err := wallet.New(rand.Reader)
	if err != nil {
		return nil, err
	}
	minerKey, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	params := chain.DefaultParams()
	genesis := chain.GenesisBlock(map[[20]byte]uint64{treasury.PubKeyHash(): 10_000_000})
	miners := [][]byte{minerKey.PublicBytes()}
	tr := p2p.NewMemTransport()

	cb := &channelBench{cfg: cfg}
	cb.master, err = daemon.NewNode(daemon.NodeConfig{
		Genesis: genesis, Params: params, Miners: miners,
		MinerKey: minerKey, MineInterval: time.Hour, Transport: tr,
	})
	if err != nil {
		return nil, err
	}
	gwNode, err := daemon.NewNode(daemon.NodeConfig{
		Genesis: genesis, Params: params, Miners: miners,
		Transport: tr, Peers: []string{cb.master.P2PAddr()},
	})
	if err != nil {
		cb.close()
		return nil, err
	}
	rcptNode, err := daemon.NewNode(daemon.NodeConfig{
		Genesis: genesis, Params: params, Miners: miners,
		Transport: tr, Peers: []string{cb.master.P2PAddr(), gwNode.P2PAddr()},
	})
	if err != nil {
		gwNode.Close()
		cb.close()
		return nil, err
	}
	gwCfg := gateway.DefaultConfig()
	gwCfg.Price = cfg.Price
	cb.gwd, err = daemon.NewGatewayDaemon(gwNode, gwCfg, rand.Reader, nil)
	if err != nil {
		gwNode.Close()
		rcptNode.Close()
		cb.close()
		return nil, err
	}
	cb.rcptd, err = daemon.NewRecipientDaemon(rcptNode, recipient.DefaultConfig(), "", rand.Reader, nil)
	if err != nil {
		gwNode.Close()
		rcptNode.Close()
		cb.close()
		return nil, err
	}
	if channels {
		ccfg := daemon.DefaultChannelConfig()
		ccfg.Capacity = cfg.Capacity
		if _, err := cb.gwd.EnableChannels(ccfg); err != nil {
			cb.close()
			return nil, err
		}
		if cb.rcptMgr, err = cb.rcptd.EnableChannels(ccfg); err != nil {
			cb.close()
			return nil, err
		}
	}

	// Fund the recipient and publish its binding before the clock runs.
	fund, err := treasury.BuildPayment(cb.master.Ledger().Spendable(treasury.PubKeyHash()),
		cb.rcptd.Recipient.Wallet().PubKeyHash(), 1_000_000, 1)
	if err != nil {
		cb.close()
		return nil, err
	}
	if err := cb.master.Ledger().Submit(fund); err != nil {
		cb.close()
		return nil, err
	}
	if err := cb.mine(); err != nil {
		cb.close()
		return nil, err
	}
	bindTx, err := cb.rcptd.PublishBinding(1)
	if err != nil {
		cb.close()
		return nil, err
	}
	if err := cb.waitMasterPooled(bindTx.ID()); err != nil {
		cb.close()
		return nil, err
	}
	if err := cb.mine(); err != nil {
		cb.close()
		return nil, err
	}

	// Provision the sensor.
	sharedKey := make([]byte, bccrypto.AESKeySize)
	if _, err := rand.Read(sharedKey); err != nil {
		cb.close()
		return nil, err
	}
	nodeKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		cb.close()
		return nil, err
	}
	eui := lora.DevEUI{0xbe, 0xc4}
	cb.dev, err = device.New(device.Provisioning{
		DevEUI:        eui,
		SharedKey:     sharedKey,
		SigningKey:    nodeKey,
		RecipientAddr: cb.rcptd.Recipient.Wallet().PubKeyHash(),
	}, rand.Reader)
	if err != nil {
		cb.close()
		return nil, err
	}
	cb.rcptd.Recipient.Provision(eui, recipient.DeviceInfo{SharedKey: sharedKey, NodePub: nodeKey.Public()})
	return cb, nil
}

func (cb *channelBench) close() {
	if cb.rcptd != nil {
		cb.rcptd.Close()
		cb.rcptd.Node.Close()
	}
	if cb.gwd != nil {
		cb.gwd.Node.Close()
	}
	if cb.master != nil {
		cb.master.Close()
	}
}

// mine mints one block on the master and waits for both replicas. The
// configured block interval elapses first: a block is only available at
// the federation's production cadence, so every settlement that needs
// one pays that latency.
func (cb *channelBench) mine() error {
	if cb.cfg.BlockIntervalMS > 0 {
		time.Sleep(time.Duration(cb.cfg.BlockIntervalMS) * time.Millisecond)
	}
	b, err := cb.master.MineNow()
	if err != nil {
		return err
	}
	h := b.Header.Height
	return waitFor("channel bench", channelBenchTimeout, "replicas to adopt the block", func() bool {
		return cb.gwd.Node.Chain().Height() >= h && cb.rcptd.Node.Chain().Height() >= h
	})
}

func (cb *channelBench) waitMasterPooled(id chain.Hash) error {
	return waitFor("channel bench", channelBenchTimeout, fmt.Sprintf("tx %s to reach the miner pool", id), func() bool {
		_, ok := cb.master.Ledger().PendingTx(id)
		return ok
	})
}

// uplink runs one key-request + data-frame exchange.
func (cb *channelBench) uplink(i int) error {
	keyResp, err := cb.gwd.HandleUplink(cb.dev.KeyRequestFrame())
	if err != nil {
		return fmt.Errorf("key request %d: %w", i, err)
	}
	frame, err := cb.dev.DataFrame([]byte(fmt.Sprintf("r=%06d", i)), keyResp.Payload, keyResp.Counter)
	if err != nil {
		return fmt.Errorf("data frame %d: %w", i, err)
	}
	if _, err := cb.gwd.HandleUplink(frame); err != nil {
		return fmt.Errorf("deliver %d: %w", i, err)
	}
	return nil
}

// minedSince counts non-coinbase transactions and blocks on the master
// chain above the given height.
func (cb *channelBench) minedSince(height int64) (txs, blocks int64) {
	ch := cb.master.Chain()
	for h := height + 1; h <= ch.Height(); h++ {
		if b, ok := ch.BlockAt(h); ok {
			txs += int64(len(b.Txs) - 1)
			blocks++
		}
	}
	return txs, blocks
}

// runOnChain settles every delivery per-message: the payment and claim
// are mined before the next reading, exactly what a gateway without
// channels pays today.
func (cb *channelBench) runOnChain() (*ChannelBenchResult, error) {
	startHeight := cb.master.Chain().Height()
	start := time.Now()
	for i := 0; i < cb.cfg.Deliveries; i++ {
		if err := cb.uplink(i); err != nil {
			return nil, err
		}
		// The uplink returns with the payment and the zero-conf claim
		// pooled; mine them so the recipient settles before the next
		// reading.
		if err := waitFor("channel bench", channelBenchTimeout, "payment and claim to pool", func() bool {
			return cb.master.Ledger().Pool.Len() >= 2
		}); err != nil {
			return nil, err
		}
		if err := cb.mine(); err != nil {
			return nil, err
		}
		want := i + 1
		if err := waitFor("channel bench", channelBenchTimeout, "the claim to settle", func() bool {
			return len(cb.rcptd.Inbox()) >= want
		}); err != nil {
			return nil, err
		}
	}
	elapsed := msSince(start)
	txs, blocks := cb.minedSince(startHeight)
	return &ChannelBenchResult{
		Mode:             "onchain",
		Deliveries:       cb.cfg.Deliveries,
		ElapsedMS:        elapsed,
		DeliveriesPerSec: float64(cb.cfg.Deliveries) / (elapsed / 1000),
		OnChainTxs:       txs,
		BlocksMined:      blocks,
	}, nil
}

// runChannel settles every delivery off-chain: the first uplink opens
// and funds the channel (one mined anchor), the stream settles through
// signed commitment updates, and one batched close settles the whole
// balance (the second anchor).
func (cb *channelBench) runChannel() (*ChannelBenchResult, error) {
	startHeight := cb.master.Chain().Height()
	start := time.Now()

	// First delivery opens the channel; mine the funding anchor.
	if err := cb.uplink(0); err != nil {
		return nil, err
	}
	list, err := cb.rcptMgr.ListChannels()
	if err != nil {
		return nil, err
	}
	summaries := list.([]daemon.ChannelSummary)
	if len(summaries) != 1 {
		return nil, fmt.Errorf("channel bench: %d channels after the first delivery, want 1", len(summaries))
	}
	fundingID, err := chain.HashFromString(summaries[0].ID)
	if err != nil {
		return nil, err
	}
	if err := cb.waitMasterPooled(fundingID); err != nil {
		return nil, err
	}
	if err := cb.mine(); err != nil {
		return nil, err
	}

	for i := 1; i < cb.cfg.Deliveries; i++ {
		if err := cb.uplink(i); err != nil {
			return nil, err
		}
	}
	if got := len(cb.rcptd.Inbox()); got != cb.cfg.Deliveries {
		return nil, fmt.Errorf("channel bench: %d readings settled, want %d", got, cb.cfg.Deliveries)
	}

	// Batched close: one commitment settles the whole stream.
	if _, err := cb.rcptMgr.CloseChannel(summaries[0].ID); err != nil {
		return nil, err
	}
	op := chain.OutPoint{TxID: fundingID, Index: 0}
	if err := waitFor("channel bench", channelBenchTimeout, "the close commitment to pool", func() bool {
		return cb.master.Ledger().Pool.Len() >= 1
	}); err != nil {
		return nil, err
	}
	if err := cb.mine(); err != nil {
		return nil, err
	}
	if _, _, ok := cb.master.Chain().FindSpender(op); !ok {
		return nil, fmt.Errorf("channel bench: close commitment not mined")
	}
	elapsed := msSince(start)
	txs, blocks := cb.minedSince(startHeight)
	return &ChannelBenchResult{
		Mode:             "channel",
		Deliveries:       cb.cfg.Deliveries,
		ElapsedMS:        elapsed,
		DeliveriesPerSec: float64(cb.cfg.Deliveries) / (elapsed / 1000),
		OnChainTxs:       txs,
		BlocksMined:      blocks,
	}, nil
}

// RunChannelBench measures the delivery stream under both settlement
// paths, each on a fresh federation with an identical workload shape.
func RunChannelBench(cfg ChannelBenchConfig) (*ChannelDoc, error) {
	if cfg.Deliveries < 2 || cfg.Capacity == 0 || cfg.Price == 0 {
		return nil, fmt.Errorf("channel bench config must be positive with ≥ 2 deliveries: %+v", cfg)
	}
	if need := (cfg.Price+1)*uint64(cfg.Deliveries) + 1; cfg.Capacity < need {
		return nil, fmt.Errorf("channel bench: capacity %d cannot carry %d deliveries at price %d",
			cfg.Capacity, cfg.Deliveries, cfg.Price)
	}
	var results []*ChannelBenchResult
	for _, mode := range []string{"onchain", "channel"} {
		cb, err := newChannelBench(cfg, mode == "channel")
		if err != nil {
			return nil, fmt.Errorf("channel bench %s: %w", mode, err)
		}
		var res *ChannelBenchResult
		if mode == "channel" {
			res, err = cb.runChannel()
		} else {
			res, err = cb.runOnChain()
		}
		cb.close()
		if err != nil {
			return nil, fmt.Errorf("channel bench %s: %w", mode, err)
		}
		results = append(results, res)
	}
	return newChannelDoc(cfg, results), nil
}

// WriteChannelBench prints both settlement paths side by side with the
// ratios the CI gate tracks.
func WriteChannelBench(w io.Writer, doc *ChannelDoc) {
	fmt.Fprintf(w, "== Delivery settlement: per-message on-chain vs payment channel (%d deliveries, price %d, capacity %d, %dms blocks) ==\n",
		doc.Deliveries, doc.Price, doc.Capacity, doc.BlockIntervalMS)
	fmt.Fprintf(w, "%-10s %12s %12s %16s %14s %14s\n",
		"mode", "deliveries", "elapsed", "deliveries/sec", "on-chain txs", "blocks mined")
	for _, r := range doc.Results {
		fmt.Fprintf(w, "%-10s %12d %9.0fms %16.1f %14d %14d\n",
			r.Mode, r.Deliveries, r.ElapsedMS, r.DeliveriesPerSec, r.OnChainTxs, r.BlocksMined)
	}
	if doc.SpeedupRatio > 0 {
		fmt.Fprintf(w, "deliveries/sec speedup: %.1fx\n", doc.SpeedupRatio)
	}
	if doc.TxReduction > 0 {
		fmt.Fprintf(w, "on-chain tx reduction: %.1fx\n", doc.TxReduction)
	}
	fmt.Fprintln(w)
}

// minChannelSpeedup floors the deliveries/sec speedup of channel
// settlement over per-message on-chain settlement.
const minChannelSpeedup = 5.0

// gateChannel asserts the batched-settlement property inside the
// candidate document itself: routing a delivery stream through a payment
// channel must reach first-inbox-to-last-inbox throughput at least
// minChannelSpeedup times the per-message on-chain path, and the channel
// run must anchor the whole stream with dramatically fewer mined
// transactions (at most deliveries/5, never below the funding + close
// pair). Both runs execute the same workload back to back on the same
// machine, so the ratio holds on any runner speed — a channel layer
// that quietly falls back to settling each delivery on-chain pushes
// the speedup to 1x and the tx count to 2x deliveries. The baseline is
// only checked for workload-shape agreement (absolute deliveries/sec
// are not compared across machines).
func gateChannel(base, cand *ChannelDoc) ([]string, error) {
	if base.ChannelBenchConfig != cand.ChannelBenchConfig {
		return nil, fmt.Errorf("workload mismatch: baseline %d deliveries/capacity %d/price %d/%dms blocks vs candidate %d deliveries/capacity %d/price %d/%dms blocks — regenerate the baseline",
			base.Deliveries, base.Capacity, base.Price, base.BlockIntervalMS,
			cand.Deliveries, cand.Capacity, cand.Price, cand.BlockIntervalMS)
	}
	onchain := rowByMode(cand.Results, "onchain")
	if onchain == nil {
		return nil, fmt.Errorf("%s: no onchain row", cand.path)
	}
	channel := rowByMode(cand.Results, "channel")
	if channel == nil {
		return nil, fmt.Errorf("%s: no channel row", cand.path)
	}
	if onchain.DeliveriesPerSec <= 0 || channel.DeliveriesPerSec <= 0 {
		return nil, fmt.Errorf("%s: non-positive deliveries/sec", cand.path)
	}

	var failures []string
	if ratio := channel.DeliveriesPerSec / onchain.DeliveriesPerSec; ratio < minChannelSpeedup {
		failures = append(failures, fmt.Sprintf(
			"channel settlement speedup %.2fx below floor %.1fx (on-chain %.1f vs channel %.1f deliveries/sec over %d deliveries) — is every delivery settling on-chain again?",
			ratio, minChannelSpeedup, onchain.DeliveriesPerSec, channel.DeliveriesPerSec, cand.Deliveries))
	}
	if channel.OnChainTxs*5 > onchain.OnChainTxs {
		failures = append(failures, fmt.Sprintf(
			"channel run mined %d txs vs %d on-chain — batching saved less than 5x, did per-delivery settlement leak onto the chain?",
			channel.OnChainTxs, onchain.OnChainTxs))
	}
	if channel.OnChainTxs < 2 {
		failures = append(failures, fmt.Sprintf(
			"channel run mined only %d txs — the funding and close anchors must both confirm", channel.OnChainTxs))
	}
	return failures, nil
}
