// bcwan-benchgate compares a freshly measured benchmark JSON against
// the committed baseline and exits non-zero on a regression. CI runs it
// after bcwan-bench so that chain-level performance properties — block
// connect throughput, signature-cache effectiveness, and the O(depth)
// reorg-cost bound of the undo-journal design — gate every merge.
//
//	bcwan-benchgate -kind blockconnect \
//	    -baseline results/BENCH_blockconnect.json -candidate /tmp/BENCH_blockconnect.json
//	bcwan-benchgate -kind reorg \
//	    -baseline results/BENCH_reorg.json -candidate /tmp/BENCH_reorg.json
//	bcwan-benchgate -kind relay \
//	    -baseline results/BENCH_relay.json -candidate /tmp/BENCH_relay.json
//	bcwan-benchgate -kind sync \
//	    -baseline results/BENCH_sync.json -candidate /tmp/BENCH_sync.json
//	bcwan-benchgate -kind channel \
//	    -baseline results/BENCH_channel.json -candidate /tmp/BENCH_channel.json
//	bcwan-benchgate -kind city \
//	    -baseline results/BENCH_city.json -candidate /tmp/BENCH_city.json
//	bcwan-benchgate -kind connect-scaling \
//	    -baseline /tmp/serial/BENCH_blockconnect.json -candidate /tmp/parallel/BENCH_blockconnect.json
//
// connect-scaling is different from the others: both inputs are fresh
// blockconnect documents from the SAME machine in the SAME CI job — the
// baseline measured under GOMAXPROCS=1, the candidate on all cores — and
// the gate asserts the multicore run connects blocks at least
// -min-parallel-speedup times faster. It guards the script-verify pool:
// a regression that serializes verification pushes the ratio to 1x.
//
// The thresholds are deliberately loose (25% ns/op slack, hit rate no
// lower than 75% of baseline, reorg scaling ratio at most 5x, relay
// bytes-per-block slack 25% with a 0.75 compact hit-rate floor, sync
// cold-start speedup at least 1.5x, channel settlement speedup at
// least 5x, city success floor 0.9 with a 0.15 throughput-retention
// floor) so shared CI runners do not flake; a genuine algorithmic
// regression — say a reorg going back to replay-from-genesis, the inv
// relay degenerating back to flooding, the snapshot bootstrap silently
// falling back to a body-by-body replay, or channel deliveries quietly
// settling on-chain per message — overshoots them by orders of
// magnitude. See README.md for what to do when this gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bcwan-benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("bcwan-benchgate", flag.ContinueOnError)
	kind := fs.String("kind", "", "benchmark document kind: blockconnect|reorg|relay|sync|channel|city|connect-scaling")
	baselinePath := fs.String("baseline", "", "committed baseline JSON (required)")
	candidatePath := fs.String("candidate", "", "freshly measured JSON (required)")
	maxRegression := fs.Float64("max-regression", 0.25, "allowed ns/op increase over baseline (fraction)")
	minHitRateFrac := fs.Float64("min-hitrate-frac", 0.75, "blockconnect: candidate hit rate as a fraction of baseline; relay: absolute hit-rate floor")
	maxScaling := fs.Float64("max-scaling", 5, "reorg: max per-reorg cost ratio of longest vs shortest chain")
	minSyncSpeedup := fs.Float64("min-sync-speedup", 1.5, "sync: min snapshot-bootstrap speedup over genesis replay (first-delivery ratio)")
	minChannelSpeedup := fs.Float64("min-channel-speedup", 5, "channel: min deliveries/sec speedup of channel settlement over per-message on-chain settlement")
	minParallelSpeedup := fs.Float64("min-parallel-speedup", 1.5, "connect-scaling: min ns/block speedup of the all-cores run over the GOMAXPROCS=1 run")
	minCityDevices := fs.Int("min-city-devices", 10_000, "city: device floor for the largest tier")
	minCityGateways := fs.Int("min-city-gateways", 100, "city: gateway floor for the largest tier")
	minCitySuccess := fs.Float64("min-city-success", 0.9, "city: per-tier delivery success-rate floor")
	maxCityLatencyScaling := fs.Float64("max-city-latency-scaling", 3, "city: max p95 latency ratio of largest vs smallest tier")
	minCityThroughputFrac := fs.Float64("min-city-throughput-frac", 0.15, "city: min frames-per-wall-second of the largest tier as a fraction of the smallest's")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baselinePath == "" || *candidatePath == "" {
		return fmt.Errorf("-baseline and -candidate are required")
	}

	var failures []string
	var err error
	switch *kind {
	case "blockconnect":
		failures, err = gateBlockConnect(*baselinePath, *candidatePath, *maxRegression, *minHitRateFrac)
	case "reorg":
		failures, err = gateReorg(*baselinePath, *candidatePath, *maxScaling)
	case "relay":
		failures, err = gateRelay(*baselinePath, *candidatePath, *maxRegression, *minHitRateFrac)
	case "sync":
		failures, err = gateSync(*baselinePath, *candidatePath, *minSyncSpeedup)
	case "channel":
		failures, err = gateChannel(*baselinePath, *candidatePath, *minChannelSpeedup)
	case "city":
		failures, err = gateCity(*baselinePath, *candidatePath, cityThresholds{
			minDevices:        *minCityDevices,
			minGateways:       *minCityGateways,
			minSuccess:        *minCitySuccess,
			maxLatencyScaling: *maxCityLatencyScaling,
			minThroughputFrac: *minCityThroughputFrac,
		})
	case "connect-scaling":
		failures, err = gateConnectScaling(*baselinePath, *candidatePath, *minParallelSpeedup)
	default:
		return fmt.Errorf("-kind must be blockconnect, reorg, relay, sync, channel, city, or connect-scaling, got %q", *kind)
	}
	if err != nil {
		return err
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(out, "FAIL:", f)
		}
		return fmt.Errorf("%d regression(s) against %s", len(failures), *baselinePath)
	}
	fmt.Fprintf(out, "PASS: %s within thresholds of %s\n", *candidatePath, *baselinePath)
	return nil
}

// blockConnectDoc mirrors results/BENCH_blockconnect.json.
type blockConnectDoc struct {
	Blocks      int `json:"blocks"`
	TxsPerBlock int `json:"txs_per_block"`
	Repeats     int `json:"repeats"`
	Results     []struct {
		Workers         int     `json:"workers"`
		Warm            bool    `json:"warm"`
		NsPerBlock      int64   `json:"ns_per_block"`
		SigCacheHitRate float64 `json:"sigcache_hit_rate"`
	} `json:"results"`
}

// relayDoc mirrors results/BENCH_relay.json.
type relayDoc struct {
	Nodes       int `json:"nodes"`
	Degree      int `json:"degree"`
	TxsPerBlock int `json:"txs_per_block"`
	Blocks      int `json:"blocks"`
	Results     []struct {
		Mode          string  `json:"mode"`
		BytesPerBlock int64   `json:"bytes_per_block"`
		HitRate       float64 `json:"hit_rate"`
	} `json:"results"`
}

// syncDoc mirrors results/BENCH_sync.json.
type syncDoc struct {
	Height           int64 `json:"height"`
	SnapshotInterval int64 `json:"snapshot_interval"`
	TxsPerBlock      int   `json:"txs_per_block"`
	Results          []struct {
		Mode            string  `json:"mode"`
		FirstDeliveryMS float64 `json:"first_delivery_ms"`
		PruneBase       int64   `json:"prune_base"`
		BlocksReplayed  int64   `json:"blocks_replayed"`
	} `json:"results"`
}

// channelDoc mirrors results/BENCH_channel.json.
type channelDoc struct {
	Deliveries      int    `json:"deliveries"`
	Capacity        uint64 `json:"capacity"`
	Price           uint64 `json:"price"`
	BlockIntervalMS int    `json:"block_interval_ms"`
	Results         []struct {
		Mode             string  `json:"mode"`
		DeliveriesPerSec float64 `json:"deliveries_per_sec"`
		OnChainTxs       int64   `json:"onchain_txs"`
	} `json:"results"`
}

// cityDoc mirrors results/BENCH_city.json.
type cityDoc struct {
	Seed                 int64   `json:"seed"`
	SimDurationMS        int64   `json:"sim_duration_ms"`
	MeanUplinkIntervalMS int64   `json:"mean_uplink_interval_ms"`
	SettleIntervalMS     int64   `json:"settle_interval_ms"`
	BlockIntervalMS      int64   `json:"block_interval_ms"`
	GatewaySpacingM      float64 `json:"gateway_spacing_m"`
	Tiers                []struct {
		Devices          int     `json:"devices"`
		Gateways         int     `json:"gateways"`
		FramesSent       int64   `json:"frames_sent"`
		FramesDelivered  int64   `json:"frames_delivered"`
		SuccessRate      float64 `json:"success_rate"`
		LatencyP95MS     float64 `json:"latency_p95_ms"`
		SettleTxs        int     `json:"settle_txs"`
		Blocks           int     `json:"blocks"`
		FramesPerWallSec float64 `json:"frames_per_wall_sec"`
	} `json:"tiers"`
}

// reorgDoc mirrors results/BENCH_reorg.json.
type reorgDoc struct {
	Depth        int     `json:"depth"`
	ScalingRatio float64 `json:"scaling_ratio"`
	Results      []struct {
		ChainLen   int   `json:"chain_len"`
		NsPerReorg int64 `json:"ns_per_reorg"`
	} `json:"results"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// gateBlockConnect matches candidate rows to baseline rows by
// (workers, warm) and flags any ns/op regression beyond maxRegression
// or any hit rate falling below minHitRateFrac of the baseline's.
// Rows only one side has are ignored: sweeping a new worker count must
// not fail the gate.
func gateBlockConnect(baselinePath, candidatePath string, maxRegression, minHitRateFrac float64) ([]string, error) {
	var base, cand blockConnectDoc
	if err := readJSON(baselinePath, &base); err != nil {
		return nil, err
	}
	if err := readJSON(candidatePath, &cand); err != nil {
		return nil, err
	}
	if base.Blocks != cand.Blocks || base.TxsPerBlock != cand.TxsPerBlock || base.Repeats != cand.Repeats {
		return nil, fmt.Errorf("workload mismatch: baseline %dx%d best-of-%d vs candidate %dx%d best-of-%d — regenerate the baseline",
			base.Blocks, base.TxsPerBlock, base.Repeats, cand.Blocks, cand.TxsPerBlock, cand.Repeats)
	}

	type key struct {
		workers int
		warm    bool
	}
	baseRows := make(map[key]int)
	for i, r := range base.Results {
		baseRows[key{r.Workers, r.Warm}] = i
	}
	var failures []string
	matched := 0
	for _, c := range cand.Results {
		i, ok := baseRows[key{c.Workers, c.Warm}]
		if !ok {
			continue
		}
		matched++
		b := base.Results[i]
		if b.NsPerBlock > 0 && float64(c.NsPerBlock) > float64(b.NsPerBlock)*(1+maxRegression) {
			failures = append(failures, fmt.Sprintf(
				"block connect workers=%d warm=%v: %d ns/block vs baseline %d (+%.0f%%, allowed +%.0f%%)",
				c.Workers, c.Warm, c.NsPerBlock, b.NsPerBlock,
				100*(float64(c.NsPerBlock)/float64(b.NsPerBlock)-1), 100*maxRegression))
		}
		if b.SigCacheHitRate > 0 && c.SigCacheHitRate < b.SigCacheHitRate*minHitRateFrac {
			failures = append(failures, fmt.Sprintf(
				"sig cache workers=%d warm=%v: hit rate %.2f vs baseline %.2f (floor %.2f)",
				c.Workers, c.Warm, c.SigCacheHitRate, b.SigCacheHitRate, b.SigCacheHitRate*minHitRateFrac))
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("no candidate row matches any baseline row — wrong file?")
	}
	return failures, nil
}

// gateReorg asserts the undo-journal property inside the candidate file
// itself: the per-reorg cost on the longest chain must stay within
// maxScaling times the cost on the shortest. This is a same-machine
// comparison, so it holds on any runner speed — a replay-from-genesis
// reorg would push the ratio toward chainLenMax/chainLenMin. The
// baseline is only checked for workload-shape agreement (absolute
// nanoseconds are not compared across machines).
func gateReorg(baselinePath, candidatePath string, maxScaling float64) ([]string, error) {
	var base, cand reorgDoc
	if err := readJSON(baselinePath, &base); err != nil {
		return nil, err
	}
	if err := readJSON(candidatePath, &cand); err != nil {
		return nil, err
	}
	if base.Depth != cand.Depth || len(base.Results) != len(cand.Results) {
		return nil, fmt.Errorf("workload mismatch: baseline depth %d/%d lengths vs candidate depth %d/%d lengths — regenerate the baseline",
			base.Depth, len(base.Results), cand.Depth, len(cand.Results))
	}
	if len(cand.Results) < 2 {
		return nil, fmt.Errorf("reorg document needs at least two chain lengths, got %d", len(cand.Results))
	}
	first, last := cand.Results[0], cand.Results[len(cand.Results)-1]
	if first.NsPerReorg <= 0 {
		return nil, fmt.Errorf("reorg baseline row has non-positive ns_per_reorg")
	}
	ratio := float64(last.NsPerReorg) / float64(first.NsPerReorg)
	if ratio > maxScaling {
		return []string{fmt.Sprintf(
			"depth-%d reorg cost scales with chain length: %d ns at height %d vs %d ns at height %d (%.2fx > %.1fx) — did a reorg path fall back to replay-from-genesis?",
			cand.Depth, last.NsPerReorg, last.ChainLen, first.NsPerReorg, first.ChainLen, ratio, maxScaling)}, nil
	}
	return nil, nil
}

// gateSync asserts the snapshot-bootstrap property inside the candidate
// file itself: joining via snapshot must reach first delivery at least
// minSpeedup times faster than the genesis replay of the same history,
// and the snapshot join must actually have pruned (prune_base > 0) with
// fewer bodies executed than the replay. Both joins run back to back on
// the same machine, so the ratio holds on any runner speed — a
// bootstrap that quietly degrades to replaying every body pushes it to
// 1x. The baseline is only checked for workload-shape agreement
// (absolute milliseconds are not compared across machines).
func gateSync(baselinePath, candidatePath string, minSpeedup float64) ([]string, error) {
	var base, cand syncDoc
	if err := readJSON(baselinePath, &base); err != nil {
		return nil, err
	}
	if err := readJSON(candidatePath, &cand); err != nil {
		return nil, err
	}
	if base.Height != cand.Height || base.SnapshotInterval != cand.SnapshotInterval ||
		base.TxsPerBlock != cand.TxsPerBlock {
		return nil, fmt.Errorf("workload mismatch: baseline height %d/interval %d/%d txs vs candidate height %d/interval %d/%d txs — regenerate the baseline",
			base.Height, base.SnapshotInterval, base.TxsPerBlock,
			cand.Height, cand.SnapshotInterval, cand.TxsPerBlock)
	}

	row := func(doc syncDoc, mode string) (float64, int64, int64, bool) {
		for _, r := range doc.Results {
			if r.Mode == mode {
				return r.FirstDeliveryMS, r.PruneBase, r.BlocksReplayed, true
			}
		}
		return 0, 0, 0, false
	}
	replayMS, _, replayBlocks, ok := row(cand, "replay")
	if !ok {
		return nil, fmt.Errorf("%s: no replay row", candidatePath)
	}
	snapMS, snapBase, snapBlocks, ok := row(cand, "snapshot")
	if !ok {
		return nil, fmt.Errorf("%s: no snapshot row", candidatePath)
	}
	if replayMS <= 0 || snapMS <= 0 {
		return nil, fmt.Errorf("%s: non-positive first-delivery time", candidatePath)
	}

	var failures []string
	if ratio := replayMS / snapMS; ratio < minSpeedup {
		failures = append(failures, fmt.Sprintf(
			"snapshot bootstrap speedup %.2fx below floor %.1fx (replay %.0fms vs snapshot %.0fms at height %d) — is the join replaying bodies below the horizon?",
			ratio, minSpeedup, replayMS, snapMS, cand.Height))
	}
	if snapBase <= 0 {
		failures = append(failures, fmt.Sprintf(
			"snapshot join never pruned (prune_base %d) — did the bootstrap fall back to a full sync?", snapBase))
	}
	if snapBlocks >= replayBlocks {
		failures = append(failures, fmt.Sprintf(
			"snapshot join executed %d bodies, replay %d — the horizon saved nothing", snapBlocks, replayBlocks))
	}
	return failures, nil
}

// gateChannel asserts the batched-settlement property inside the
// candidate file itself: routing a delivery stream through a payment
// channel must reach first-inbox-to-last-inbox throughput at least
// minSpeedup times the per-message on-chain path, and the channel run
// must anchor the whole stream with dramatically fewer mined
// transactions (at most deliveries/5, never below the funding + close
// pair). Both runs execute the same workload back to back on the same
// machine, so the ratio holds on any runner speed — a channel layer
// that quietly falls back to settling each delivery on-chain pushes
// the speedup to 1x and the tx count to 2x deliveries. The baseline is
// only checked for workload-shape agreement (absolute deliveries/sec
// are not compared across machines).
func gateChannel(baselinePath, candidatePath string, minSpeedup float64) ([]string, error) {
	var base, cand channelDoc
	if err := readJSON(baselinePath, &base); err != nil {
		return nil, err
	}
	if err := readJSON(candidatePath, &cand); err != nil {
		return nil, err
	}
	if base.Deliveries != cand.Deliveries || base.Capacity != cand.Capacity ||
		base.Price != cand.Price || base.BlockIntervalMS != cand.BlockIntervalMS {
		return nil, fmt.Errorf("workload mismatch: baseline %d deliveries/capacity %d/price %d/%dms blocks vs candidate %d deliveries/capacity %d/price %d/%dms blocks — regenerate the baseline",
			base.Deliveries, base.Capacity, base.Price, base.BlockIntervalMS,
			cand.Deliveries, cand.Capacity, cand.Price, cand.BlockIntervalMS)
	}

	row := func(doc channelDoc, mode string) (float64, int64, bool) {
		for _, r := range doc.Results {
			if r.Mode == mode {
				return r.DeliveriesPerSec, r.OnChainTxs, true
			}
		}
		return 0, 0, false
	}
	onchainDPS, onchainTxs, ok := row(cand, "onchain")
	if !ok {
		return nil, fmt.Errorf("%s: no onchain row", candidatePath)
	}
	channelDPS, channelTxs, ok := row(cand, "channel")
	if !ok {
		return nil, fmt.Errorf("%s: no channel row", candidatePath)
	}
	if onchainDPS <= 0 || channelDPS <= 0 {
		return nil, fmt.Errorf("%s: non-positive deliveries/sec", candidatePath)
	}

	var failures []string
	if ratio := channelDPS / onchainDPS; ratio < minSpeedup {
		failures = append(failures, fmt.Sprintf(
			"channel settlement speedup %.2fx below floor %.1fx (on-chain %.1f vs channel %.1f deliveries/sec over %d deliveries) — is every delivery settling on-chain again?",
			ratio, minSpeedup, onchainDPS, channelDPS, cand.Deliveries))
	}
	if channelTxs*5 > onchainTxs {
		failures = append(failures, fmt.Sprintf(
			"channel run mined %d txs vs %d on-chain — batching saved less than 5x, did per-delivery settlement leak onto the chain?",
			channelTxs, onchainTxs))
	}
	if channelTxs < 2 {
		failures = append(failures, fmt.Sprintf(
			"channel run mined only %d txs — the funding and close anchors must both confirm", channelTxs))
	}
	return failures, nil
}

// cityThresholds parameterizes the metropolitan-scale gate.
type cityThresholds struct {
	minDevices        int
	minGateways       int
	minSuccess        float64
	maxLatencyScaling float64
	minThroughputFrac float64
}

// gateCity asserts the metropolitan-scale properties inside the
// candidate file itself: the campaign must actually reach city scale
// (device and gateway floors on the largest tier), deliveries must not
// collapse under load (per-tier success floor), the p95 exchange
// latency must stay flat across the curve (a virtual-time property,
// machine-independent), and the simulator's frames-per-wall-second may
// not collapse between the smallest and largest tier — the all-pairs
// engine the spatial index replaced degrades that ratio quadratically
// in the device count. Wall-clock throughputs are compared only
// tier-to-tier within the candidate, so the gate holds on any runner
// speed. The baseline is checked for workload-shape agreement
// (absolute frames/sec are not compared across machines).
func gateCity(baselinePath, candidatePath string, th cityThresholds) ([]string, error) {
	var base, cand cityDoc
	if err := readJSON(baselinePath, &base); err != nil {
		return nil, err
	}
	if err := readJSON(candidatePath, &cand); err != nil {
		return nil, err
	}
	if base.Seed != cand.Seed || base.SimDurationMS != cand.SimDurationMS ||
		base.MeanUplinkIntervalMS != cand.MeanUplinkIntervalMS ||
		base.SettleIntervalMS != cand.SettleIntervalMS ||
		base.BlockIntervalMS != cand.BlockIntervalMS ||
		base.GatewaySpacingM != cand.GatewaySpacingM ||
		len(base.Tiers) != len(cand.Tiers) {
		return nil, fmt.Errorf("workload mismatch: baseline seed %d/%dms sim/%d tiers vs candidate seed %d/%dms sim/%d tiers — regenerate the baseline",
			base.Seed, base.SimDurationMS, len(base.Tiers),
			cand.Seed, cand.SimDurationMS, len(cand.Tiers))
	}
	for i := range base.Tiers {
		if base.Tiers[i].Devices != cand.Tiers[i].Devices ||
			base.Tiers[i].Gateways != cand.Tiers[i].Gateways {
			return nil, fmt.Errorf("workload mismatch: tier %d is %dx%d in the baseline, %dx%d in the candidate — regenerate the baseline",
				i, base.Tiers[i].Devices, base.Tiers[i].Gateways,
				cand.Tiers[i].Devices, cand.Tiers[i].Gateways)
		}
	}
	if len(cand.Tiers) < 2 {
		return nil, fmt.Errorf("city document needs at least two tiers for a scaling curve, got %d", len(cand.Tiers))
	}

	var failures []string
	first, last := cand.Tiers[0], cand.Tiers[len(cand.Tiers)-1]
	if last.Devices < th.minDevices || last.Gateways < th.minGateways {
		failures = append(failures, fmt.Sprintf(
			"largest tier is %d devices over %d gateways — below the %d-device/%d-gateway city floor",
			last.Devices, last.Gateways, th.minDevices, th.minGateways))
	}
	for i, tier := range cand.Tiers {
		if tier.SuccessRate < th.minSuccess {
			failures = append(failures, fmt.Sprintf(
				"tier %d (%d devices): success rate %.3f below floor %.2f — deliveries collapsed under load",
				i, tier.Devices, tier.SuccessRate, th.minSuccess))
		}
		if tier.SettleTxs < 1 || tier.Blocks < 1 {
			failures = append(failures, fmt.Sprintf(
				"tier %d (%d devices): settlement chain idle (%d txs, %d blocks) — delivery credits never anchored",
				i, tier.Devices, tier.SettleTxs, tier.Blocks))
		}
	}
	if first.LatencyP95MS > 0 {
		if ratio := last.LatencyP95MS / first.LatencyP95MS; ratio > th.maxLatencyScaling {
			failures = append(failures, fmt.Sprintf(
				"p95 latency grows %.2fx from %d to %d devices (%.0fms → %.0fms, allowed %.1fx) — the medium or scheduler is congesting superlinearly",
				ratio, first.Devices, last.Devices, first.LatencyP95MS, last.LatencyP95MS, th.maxLatencyScaling))
		}
	}
	if first.FramesPerWallSec > 0 {
		if frac := last.FramesPerWallSec / first.FramesPerWallSec; frac < th.minThroughputFrac {
			failures = append(failures, fmt.Sprintf(
				"simulator throughput falls to %.2fx of the small tier's at %d devices (%.0f vs %.0f frames/wall-sec, floor %.2fx) — did delivery fall back to an all-pairs scan?",
				frac, last.Devices, last.FramesPerWallSec, first.FramesPerWallSec, th.minThroughputFrac))
		}
	}
	return failures, nil
}

// gateRelay compares the inv-relay row of the candidate against the
// baseline: wire bytes per block may grow at most maxRegression over
// the committed figure, and the compact-block reconstruction hit rate
// must stay at or above minHitRate (an absolute floor, not a fraction
// of baseline — reconstruction on a warm mempool is deterministic, so
// a drop means the short-txid matching broke). Bytes are comparable
// across machines because the workload — message count and sizes on an
// in-memory transport — is fixed by the document's node/tx shape.
func gateRelay(baselinePath, candidatePath string, maxRegression, minHitRate float64) ([]string, error) {
	var base, cand relayDoc
	if err := readJSON(baselinePath, &base); err != nil {
		return nil, err
	}
	if err := readJSON(candidatePath, &cand); err != nil {
		return nil, err
	}
	if base.Nodes != cand.Nodes || base.Degree != cand.Degree ||
		base.TxsPerBlock != cand.TxsPerBlock || base.Blocks != cand.Blocks {
		return nil, fmt.Errorf("workload mismatch: baseline %d nodes/deg %d/%dx%d vs candidate %d nodes/deg %d/%dx%d — regenerate the baseline",
			base.Nodes, base.Degree, base.TxsPerBlock, base.Blocks,
			cand.Nodes, cand.Degree, cand.TxsPerBlock, cand.Blocks)
	}

	row := func(doc relayDoc, mode string) (int64, float64, bool) {
		for _, r := range doc.Results {
			if r.Mode == mode {
				return r.BytesPerBlock, r.HitRate, true
			}
		}
		return 0, 0, false
	}
	baseBytes, _, ok := row(base, "inv")
	if !ok {
		return nil, fmt.Errorf("%s: no inv row", baselinePath)
	}
	candBytes, candHit, ok := row(cand, "inv")
	if !ok {
		return nil, fmt.Errorf("%s: no inv row", candidatePath)
	}

	var failures []string
	if baseBytes > 0 && float64(candBytes) > float64(baseBytes)*(1+maxRegression) {
		failures = append(failures, fmt.Sprintf(
			"relay bytes per block: %d vs baseline %d (+%.0f%%, allowed +%.0f%%)",
			candBytes, baseBytes, 100*(float64(candBytes)/float64(baseBytes)-1), 100*maxRegression))
	}
	if candHit < minHitRate {
		failures = append(failures, fmt.Sprintf(
			"compact reconstruction hit rate %.2f below floor %.2f — short-txid matching or mempool lookup regressed",
			candHit, minHitRate))
	}
	return failures, nil
}

// gateConnectScaling asserts that block connect actually scales with
// cores: the baseline is a blockconnect document measured under
// GOMAXPROCS=1 and the candidate the same workload on all cores, both
// fresh from the same machine, so the ratio of their best cold-cache
// rows is a pure parallel-speedup measurement. UTXO accounting is one
// sequential pass, so the speedup is all the script-verify worker pool;
// below minSpeedup the pool has stopped buying anything.
func gateConnectScaling(serialPath, parallelPath string, minSpeedup float64) ([]string, error) {
	var serial, parallel blockConnectDoc
	if err := readJSON(serialPath, &serial); err != nil {
		return nil, err
	}
	if err := readJSON(parallelPath, &parallel); err != nil {
		return nil, err
	}
	if serial.Blocks != parallel.Blocks || serial.TxsPerBlock != parallel.TxsPerBlock ||
		serial.Repeats != parallel.Repeats {
		return nil, fmt.Errorf("workload mismatch: serial %dx%d best-of-%d vs parallel %dx%d best-of-%d — both runs must measure the same workload",
			serial.Blocks, serial.TxsPerBlock, serial.Repeats,
			parallel.Blocks, parallel.TxsPerBlock, parallel.Repeats)
	}

	// Best cold-cache row per document: cold connects do the full
	// signature + UTXO work, so this is where the verify pool shows up.
	// min-over-workers makes the gate robust to one noisy row.
	bestCold := func(doc blockConnectDoc, path string) (int64, int, error) {
		best, workers := int64(0), 0
		for _, r := range doc.Results {
			if r.Warm || r.NsPerBlock <= 0 {
				continue
			}
			if best == 0 || r.NsPerBlock < best {
				best, workers = r.NsPerBlock, r.Workers
			}
		}
		if best == 0 {
			return 0, 0, fmt.Errorf("%s: no cold (warm=false) row with positive ns_per_block", path)
		}
		return best, workers, nil
	}
	serialNs, _, err := bestCold(serial, serialPath)
	if err != nil {
		return nil, err
	}
	parallelNs, parallelWorkers, err := bestCold(parallel, parallelPath)
	if err != nil {
		return nil, err
	}
	if parallelWorkers < 2 {
		return nil, fmt.Errorf("%s: best parallel row uses %d workers — the candidate run never exercised a multi-worker connect",
			parallelPath, parallelWorkers)
	}

	speedup := float64(serialNs) / float64(parallelNs)
	if speedup < minSpeedup {
		return []string{fmt.Sprintf(
			"parallel connect speedup %.2fx below floor %.1fx (GOMAXPROCS=1 best %d ns/block vs all-cores best %d at workers=%d) — did block connect serialize?",
			speedup, minSpeedup, serialNs, parallelNs, parallelWorkers)}, nil
	}
	return nil, nil
}
