package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// reload writes doc the way bcwan-bench does and reads it back the way
// bcwan-benchgate does.
func reload[D any, P interface {
	*D
	benchDoc
}](t *testing.T, doc P) P {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results", "BENCH.json")
	if err := writeDoc(path, doc); err != nil {
		t.Fatal(err)
	}
	got := P(new(D))
	if err := readDoc(path, got); err != nil {
		t.Fatal(err)
	}
	return got
}

var hostRE = regexp.MustCompile(`(?s)\n  "host": \{.*?\},`)

// TestWireFormatMatchesParentWriters pins the BENCH_*.json wire format:
// each want string is what the six per-campaign Write*JSON functions
// this table replaced produced for the same input (json.Compact of their
// output, host object removed — they stamped it on two documents only).
// The documents are a compatibility surface: the committed baselines
// under results/ were written in this format and are not regenerated.
func TestWireFormatMatchesParentWriters(t *testing.T) {
	cases := []struct {
		kind string
		doc  benchDoc
		want string
	}{
		{"blockconnect", newBlockConnectDoc(
			BlockConnectConfig{Blocks: 12, TxsPerBlock: 24, Repeats: 5},
			[]*BlockConnectResult{
				{Elapsed: 48 * time.Millisecond, Blocks: 12, Txs: 288, TxsPerSec: 6000, SigCacheMisses: 552},
				{Warm: true, Elapsed: 2_500_003, Blocks: 12, Txs: 288, TxsPerSec: 115199.86, SigCacheHits: 288, SigCacheMisses: 288, SigCacheHitRate: 0.5},
			}),
			`{"blocks":12,"txs_per_block":24,"repeats":5,"results":[{"warm":false,"ns_per_block":4000000,"blocks_per_sec":250,"txs_per_sec":6000,"sigcache_hits":0,"sigcache_misses":552,"sigcache_hit_rate":0},{"warm":true,"ns_per_block":208333,"blocks_per_sec":4799.994240006911,"txs_per_sec":115199.86,"sigcache_hits":288,"sigcache_misses":288,"sigcache_hit_rate":0.5}]}`},
		{"reorg", newReorgDoc(
			ReorgConfig{ChainLengths: []int{100, 1000}, Depth: 2, Iterations: 30},
			[]*ReorgResult{
				{ChainLen: 100, Depth: 2, Iterations: 30, Elapsed: 9 * time.Millisecond, NsPerReorg: 300000},
				{ChainLen: 1000, Depth: 2, Iterations: 30, Elapsed: 10 * time.Millisecond, NsPerReorg: 333333},
			}),
			`{"depth":2,"scaling_ratio":1.11111,"results":[{"chain_len":100,"depth":2,"iterations":30,"ns_per_reorg":300000},{"chain_len":1000,"depth":2,"iterations":30,"ns_per_reorg":333333}]}`},
		{"relay", &RelayDoc{
			RelayBenchConfig: RelayBenchConfig{Nodes: 16, Degree: 3, TxsPerBlock: 32, Blocks: 3},
			Results:          []*RelayBenchResult{{Mode: "inv", BytesPerBlock: 364781, PropagationMS: 9.898, HitRate: 0.97, TxnRoundTrips: 1}},
		},
			`{"nodes":16,"degree":3,"txs_per_block":32,"blocks":3,"results":[{"mode":"inv","bytes_per_block":364781,"propagation_ms":9.898,"hit_rate":0.97,"txn_roundtrips":1,"full_fallbacks":0}]}`},
		{"sync", newSyncDoc(
			SyncBenchConfig{Height: 600, SnapshotInterval: 128, SnapshotChunkSize: 32 << 10, TxsPerBlock: 2},
			[]*SyncBenchResult{
				{Mode: "replay", ColdStartMS: 812.5, FirstDeliveryMS: 830.25, BytesIn: 1275137, BlocksReplayed: 601},
				{Mode: "snapshot", ColdStartMS: 154.987, FirstDeliveryMS: 162.956, BytesIn: 639252, PruneBase: 512, BlocksReplayed: 89},
			}),
			`{"height":600,"snapshot_interval":128,"snapshot_chunk_size":32768,"txs_per_block":2,"speedup_ratio":5.094933601708437,"results":[{"mode":"replay","cold_start_ms":812.5,"first_delivery_ms":830.25,"bytes_in":1275137,"prune_base":0,"blocks_replayed":601},{"mode":"snapshot","cold_start_ms":154.987,"first_delivery_ms":162.956,"bytes_in":639252,"prune_base":512,"blocks_replayed":89}]}`},
		{"channel", newChannelDoc(
			ChannelBenchConfig{Deliveries: 30, Capacity: 10_000, Price: 100, BlockIntervalMS: 100},
			[]*ChannelBenchResult{
				{Mode: "onchain", Deliveries: 30, ElapsedMS: 3249.382, DeliveriesPerSec: 9.2325, OnChainTxs: 60, BlocksMined: 30},
				{Mode: "channel", Deliveries: 30, ElapsedMS: 228.444, DeliveriesPerSec: 131.3227, OnChainTxs: 2, BlocksMined: 2},
			}),
			`{"deliveries":30,"capacity":10000,"price":100,"block_interval_ms":100,"speedup_ratio":14.223958841050637,"tx_reduction":30,"results":[{"mode":"onchain","deliveries":30,"elapsed_ms":3249.382,"deliveries_per_sec":9.2325,"onchain_txs":60,"blocks_mined":30},{"mode":"channel","deliveries":30,"elapsed_ms":228.444,"deliveries_per_sec":131.3227,"onchain_txs":2,"blocks_mined":2}]}`},
		{"city", newCityDoc(QuickCityConfig(),
			[]*CityTierResult{
				{Devices: 60, Gateways: 4, FramesSent: 700, FramesDelivered: 693, Duplicates: 1200, OutageDrops: 31,
					SuccessRate: 0.99, Latency: LatencyStats{Median: 183040098, P95: 1160394922, Max: 16553025996},
					SettleTxs: 5, Blocks: 5, PayoutOutputs: 18, CreditsPaid: 6930, GatewayOutages: 3, DeviceMoves: 24,
					WallClockMS: 25.931, FramesPerWallSec: 26994.717},
				{Devices: 150, Gateways: 9, FramesSent: 1800, FramesDelivered: 1764, Duplicates: 4100, OutageDrops: 90,
					SuccessRate: 0.98, Latency: LatencyStats{Median: 190000000, P95: 1250000000, Max: 9000000000},
					SettleTxs: 5, Blocks: 5, PayoutOutputs: 40, CreditsPaid: 17640, GatewayOutages: 7, DeviceMoves: 61,
					WallClockMS: 70.5, FramesPerWallSec: 25531.9},
			}),
			`{"seed":7,"sim_duration_ms":600000,"mean_uplink_interval_ms":60000,"settle_interval_ms":120000,"block_interval_ms":30000,"gateway_spacing_m":2000,"tiers":[{"devices":60,"gateways":4,"frames_sent":700,"frames_delivered":693,"duplicates":1200,"outage_drops":31,"success_rate":0.99,"latency_median_ms":183.040098,"latency_p95_ms":1160.394922,"latency_max_ms":16553.025996,"settle_txs":5,"blocks":5,"payout_outputs":18,"credits_paid":6930,"gateway_outages":3,"device_moves":24,"wall_clock_ms":25.931,"frames_per_wall_sec":26994.717},{"devices":150,"gateways":9,"frames_sent":1800,"frames_delivered":1764,"duplicates":4100,"outage_drops":90,"success_rate":0.98,"latency_median_ms":190,"latency_p95_ms":1250,"latency_max_ms":9000,"settle_txs":5,"blocks":5,"payout_outputs":40,"credits_paid":17640,"gateway_outages":7,"device_moves":61,"wall_clock_ms":70.5,"frames_per_wall_sec":25531.9}]}`},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "BENCH_"+tc.kind+".json")
		if err := writeDoc(path, tc.doc); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The file is exactly the two-space indented form plus a newline.
		var compact, indented bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		json.Indent(&indented, compact.Bytes(), "", "  ")
		if indented.String()+"\n" != string(raw) {
			t.Errorf("%s: not two-space indented JSON plus newline:\n%s", tc.kind, raw)
		}
		if !hostRE.Match(raw) {
			t.Errorf("%s: no leading host object:\n%s", tc.kind, raw)
		}
		compact.Reset()
		json.Compact(&compact, hostRE.ReplaceAll(raw, nil))
		if compact.String() != tc.want {
			t.Errorf("%s wire format changed:\n got %s\nwant %s", tc.kind, compact.String(), tc.want)
		}
	}
}
