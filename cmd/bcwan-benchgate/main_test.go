package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bcwan/internal/experiments"
)

// gate runs the binary's entry point over two fixture documents and
// splits the outcome the way the cases below read it: the FAIL lines it
// printed, or the error that stopped the comparison.
func gate(t *testing.T, kind, base, cand string) ([]string, error) {
	t.Helper()
	dir := t.TempDir()
	basePath, candPath := filepath.Join(dir, "base.json"), filepath.Join(dir, "cand.json")
	for path, content := range map[string]string{basePath: base, candPath: cand} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return runGate(kind, basePath, candPath)
}

func runGate(kind, basePath, candPath string) ([]string, error) {
	var out bytes.Buffer
	err := run([]string{"-kind", kind, "-baseline", basePath, "-candidate", candPath}, &out)
	var failures []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f, ok := strings.CutPrefix(line, "FAIL: "); ok {
			failures = append(failures, f)
		}
	}
	if len(failures) > 0 {
		return failures, nil
	}
	return nil, err
}

const baseBlockConnect = `{
  "blocks": 12, "txs_per_block": 24,
  "results": [
    {"warm": false, "ns_per_block": 4000000, "sigcache_hit_rate": 0},
    {"warm": true,  "ns_per_block": 200000,  "sigcache_hit_rate": 0.5}
  ]
}`

func TestGateBlockConnectPasses(t *testing.T) {
	// Hit rate at 80% of baseline: inside the floor. ns/block is not gated.
	cand := `{
	  "blocks": 12, "txs_per_block": 24,
	  "results": [
	    {"warm": false, "ns_per_block": 4800000, "sigcache_hit_rate": 0},
	    {"warm": true,  "ns_per_block": 210000,  "sigcache_hit_rate": 0.4}
	  ]
	}`
	failures, err := gate(t, "blockconnect", baseBlockConnect, cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestGateBlockConnectFlagsRegressions(t *testing.T) {
	// Warm row's cache effectively disabled: flagged. Cold row 50%
	// slower: a host can do that on its own, so it is not.
	cand := `{
	  "blocks": 12, "txs_per_block": 24,
	  "results": [
	    {"warm": false, "ns_per_block": 6000000, "sigcache_hit_rate": 0},
	    {"warm": true,  "ns_per_block": 200000,  "sigcache_hit_rate": 0.1}
	  ]
	}`
	failures, err := gate(t, "blockconnect", baseBlockConnect, cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "hit rate") {
		t.Fatalf("failures = %v, want the hit-rate regression alone", failures)
	}
}

func TestGateBlockConnectWorkloadMismatch(t *testing.T) {
	cand := `{"blocks": 4, "txs_per_block": 8, "results": []}`
	if _, err := gate(t, "blockconnect", baseBlockConnect, cand); err == nil {
		t.Fatal("want workload-mismatch error")
	}
}

const baseReorg = `{
  "depth": 2, "scaling_ratio": 1.5,
  "results": [
    {"chain_len": 100,  "ns_per_reorg": 300000},
    {"chain_len": 1000, "ns_per_reorg": 450000}
  ]
}`

func TestGateReorgPasses(t *testing.T) {
	failures, err := gate(t, "reorg", baseReorg, baseReorg)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestGateReorgFlagsLinearScaling(t *testing.T) {
	// A replay-from-genesis reorg: 10x the cost at 10x the height.
	cand := `{
	  "depth": 2, "scaling_ratio": 10,
	  "results": [
	    {"chain_len": 100,  "ns_per_reorg": 300000},
	    {"chain_len": 1000, "ns_per_reorg": 3000000}
	  ]
	}`
	failures, err := gate(t, "reorg", baseReorg, cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "scales with chain length") {
		t.Fatalf("failures = %v, want one scaling violation", failures)
	}
}

const baseRelay = `{
  "nodes": 16, "degree": 3, "txs_per_block": 32, "blocks": 3,
  "reduction_ratio": 6.0,
  "results": [
    {"mode": "flood", "bytes_per_block": 600000, "propagation_ms": 4.0, "hit_rate": 0, "txn_roundtrips": 0, "full_fallbacks": 0},
    {"mode": "inv",   "bytes_per_block": 100000, "propagation_ms": 5.0, "hit_rate": 0.97, "txn_roundtrips": 1, "full_fallbacks": 0}
  ]
}`

func TestGateRelayPasses(t *testing.T) {
	// 20% more bytes and a slightly lower hit rate: inside both thresholds.
	cand := `{
	  "nodes": 16, "degree": 3, "txs_per_block": 32, "blocks": 3,
	  "reduction_ratio": 5.0,
	  "results": [
	    {"mode": "flood", "bytes_per_block": 600000, "hit_rate": 0},
	    {"mode": "inv",   "bytes_per_block": 120000, "hit_rate": 0.90}
	  ]
	}`
	failures, err := gate(t, "relay", baseRelay, cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestGateRelayFlagsRegressions(t *testing.T) {
	// Relay degenerated back to flooding: bytes blew past the slack and
	// reconstruction stopped working.
	cand := `{
	  "nodes": 16, "degree": 3, "txs_per_block": 32, "blocks": 3,
	  "reduction_ratio": 1.0,
	  "results": [
	    {"mode": "flood", "bytes_per_block": 600000, "hit_rate": 0},
	    {"mode": "inv",   "bytes_per_block": 590000, "hit_rate": 0.2}
	  ]
	}`
	failures, err := gate(t, "relay", baseRelay, cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want bytes and hit-rate regressions", failures)
	}
	if !strings.Contains(failures[0], "bytes per block") || !strings.Contains(failures[1], "hit rate") {
		t.Fatalf("unexpected failure messages: %v", failures)
	}
}

func TestGateRelayWorkloadMismatch(t *testing.T) {
	cand := `{"nodes": 6, "degree": 2, "txs_per_block": 6, "blocks": 2, "results": []}`
	if _, err := gate(t, "relay", baseRelay, cand); err == nil {
		t.Fatal("want workload-mismatch error")
	}
}

const baseSync = `{
  "height": 100000, "snapshot_interval": 8192, "snapshot_chunk_size": 262144, "txs_per_block": 4,
  "speedup_ratio": 4.0,
  "results": [
    {"mode": "replay",   "cold_start_ms": 60000, "first_delivery_ms": 60100, "bytes_in": 150000000, "prune_base": 0,     "blocks_replayed": 100001},
    {"mode": "snapshot", "cold_start_ms": 15000, "first_delivery_ms": 15025, "bytes_in": 40000000,  "prune_base": 98304, "blocks_replayed": 1696}
  ]
}`

func TestGateSyncPasses(t *testing.T) {
	failures, err := gate(t, "sync", baseSync, baseSync)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestGateSyncFlagsDegradedBootstrap(t *testing.T) {
	// The bootstrap quietly fell back to a full replay: no pruning, every
	// body executed, and the speedup collapsed to parity.
	cand := `{
	  "height": 100000, "snapshot_interval": 8192, "snapshot_chunk_size": 262144, "txs_per_block": 4,
	  "speedup_ratio": 1.0,
	  "results": [
	    {"mode": "replay",   "first_delivery_ms": 60000, "prune_base": 0, "blocks_replayed": 100001},
	    {"mode": "snapshot", "first_delivery_ms": 59000, "prune_base": 0, "blocks_replayed": 100001}
	  ]
	}`
	failures, err := gate(t, "sync", baseSync, cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 3 {
		t.Fatalf("failures = %v, want speedup, prune and body-count violations", failures)
	}
	if !strings.Contains(failures[0], "speedup") || !strings.Contains(failures[1], "never pruned") ||
		!strings.Contains(failures[2], "saved nothing") {
		t.Fatalf("unexpected failure messages: %v", failures)
	}
}

func TestGateSyncWorkloadMismatch(t *testing.T) {
	cand := `{"height": 600, "snapshot_interval": 128, "txs_per_block": 2, "results": []}`
	if _, err := gate(t, "sync", baseSync, cand); err == nil {
		t.Fatal("want workload-mismatch error")
	}
}

const serialConnect = `{
  "host": {"nproc": 4, "gomaxprocs": 1},
  "blocks": 12, "txs_per_block": 24, "repeats": 5,
  "results": [
    {"warm": false, "ns_per_block": 3900000, "sigcache_hit_rate": 0},
    {"warm": true,  "ns_per_block": 200000,  "sigcache_hit_rate": 0.5}
  ]
}`

func TestGateConnectScalingPasses(t *testing.T) {
	// All-cores run connects cold blocks 2.5x faster at gomaxprocs 4.
	cand := `{
	  "host": {"nproc": 4, "gomaxprocs": 4},
	  "blocks": 12, "txs_per_block": 24, "repeats": 5,
	  "results": [
	    {"warm": false, "ns_per_block": 1560000, "sigcache_hit_rate": 0},
	    {"warm": true,  "ns_per_block": 90000,   "sigcache_hit_rate": 0.5}
	  ]
	}`
	failures, err := gate(t, "connect-scaling", serialConnect, cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestGateConnectScalingFlagsSerializedConnect(t *testing.T) {
	// Multicore run no faster than the pinned run: parallelism broke.
	cand := `{
	  "host": {"nproc": 4, "gomaxprocs": 4},
	  "blocks": 12, "txs_per_block": 24, "repeats": 5,
	  "results": [
	    {"warm": false, "ns_per_block": 3850000, "sigcache_hit_rate": 0}
	  ]
	}`
	failures, err := gate(t, "connect-scaling", serialConnect, cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "speedup") {
		t.Fatalf("failures = %v, want one speedup violation", failures)
	}
}

func TestGateConnectScalingRejectsSerialOnlyCandidate(t *testing.T) {
	// The candidate was measured at gomaxprocs 1 — the run never
	// measured a multi-worker connect, so the comparison is meaningless.
	cand := `{
	  "host": {"nproc": 4, "gomaxprocs": 1},
	  "blocks": 12, "txs_per_block": 24, "repeats": 5,
	  "results": [
	    {"warm": false, "ns_per_block": 1000000, "sigcache_hit_rate": 0}
	  ]
	}`
	if _, err := gate(t, "connect-scaling", serialConnect, cand); err == nil {
		t.Fatal("want multi-worker-row error")
	}
	// Nor is a baseline that was not pinned to one core a serial run.
	unpinned := strings.Replace(serialConnect, `"gomaxprocs": 1`, `"gomaxprocs": 4`, 1)
	if _, err := gate(t, "connect-scaling", unpinned, unpinned); err == nil {
		t.Fatal("want unpinned-baseline error")
	}
}

func TestGateConnectScalingWorkloadMismatch(t *testing.T) {
	cand := `{"blocks": 4, "txs_per_block": 8, "repeats": 1, "results": []}`
	if _, err := gate(t, "connect-scaling", serialConnect, cand); err == nil {
		t.Fatal("want workload-mismatch error")
	}
}

const baseCity = `{
  "seed": 7, "sim_duration_ms": 7200000, "mean_uplink_interval_ms": 600000,
  "settle_interval_ms": 300000, "block_interval_ms": 30000, "gateway_spacing_m": 2000,
  "tiers": [
    {"devices": 1000, "gateways": 16, "success_rate": 0.99, "latency_p95_ms": 1100,
     "settle_txs": 25, "blocks": 25, "frames_per_wall_sec": 50000},
    {"devices": 10000, "gateways": 100, "success_rate": 0.99, "latency_p95_ms": 1150,
     "settle_txs": 25, "blocks": 25, "frames_per_wall_sec": 25000}
  ]
}`

func TestGateCityPasses(t *testing.T) {
	// Candidate throughputs differ from baseline (different machine) but
	// tier-to-tier retention, success and p95 flatness all hold.
	cand := `{
	  "seed": 7, "sim_duration_ms": 7200000, "mean_uplink_interval_ms": 600000,
	  "settle_interval_ms": 300000, "block_interval_ms": 30000, "gateway_spacing_m": 2000,
	  "tiers": [
	    {"devices": 1000, "gateways": 16, "success_rate": 0.97, "latency_p95_ms": 1200,
	     "settle_txs": 25, "blocks": 25, "frames_per_wall_sec": 9000},
	    {"devices": 10000, "gateways": 100, "success_rate": 0.95, "latency_p95_ms": 1500,
	     "settle_txs": 25, "blocks": 25, "frames_per_wall_sec": 4000}
	  ]
	}`
	failures, err := gate(t, "city", baseCity, cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestGateCityFlagsRegressions(t *testing.T) {
	// Success collapsed on the big tier, p95 blew up 10x, throughput
	// retention fell to 4% (the all-pairs signature), settlement idle.
	cand := `{
	  "seed": 7, "sim_duration_ms": 7200000, "mean_uplink_interval_ms": 600000,
	  "settle_interval_ms": 300000, "block_interval_ms": 30000, "gateway_spacing_m": 2000,
	  "tiers": [
	    {"devices": 1000, "gateways": 16, "success_rate": 0.99, "latency_p95_ms": 1100,
	     "settle_txs": 25, "blocks": 25, "frames_per_wall_sec": 50000},
	    {"devices": 10000, "gateways": 100, "success_rate": 0.6, "latency_p95_ms": 11000,
	     "settle_txs": 0, "blocks": 0, "frames_per_wall_sec": 2000}
	  ]
	}`
	failures, err := gate(t, "city", baseCity, cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 4 {
		t.Fatalf("want 4 failures (success, settlement, p95, throughput), got %d: %v", len(failures), failures)
	}
}

func TestGateCityFlagsSubScaleCampaign(t *testing.T) {
	small := `{
	  "seed": 7, "sim_duration_ms": 7200000, "mean_uplink_interval_ms": 600000,
	  "settle_interval_ms": 300000, "block_interval_ms": 30000, "gateway_spacing_m": 2000,
	  "tiers": [
	    {"devices": 100, "gateways": 4, "success_rate": 0.99, "latency_p95_ms": 1100,
	     "settle_txs": 25, "blocks": 25, "frames_per_wall_sec": 50000},
	    {"devices": 500, "gateways": 9, "success_rate": 0.99, "latency_p95_ms": 1150,
	     "settle_txs": 25, "blocks": 25, "frames_per_wall_sec": 40000}
	  ]
	}`
	failures, err := gate(t, "city", small, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "city floor") {
		t.Fatalf("want the city-floor failure, got %v", failures)
	}
}

func TestGateCityWorkloadMismatch(t *testing.T) {
	cand := `{
	  "seed": 7, "sim_duration_ms": 3600000, "mean_uplink_interval_ms": 600000,
	  "settle_interval_ms": 300000, "block_interval_ms": 30000, "gateway_spacing_m": 2000,
	  "tiers": [
	    {"devices": 1000, "gateways": 16, "success_rate": 0.99, "latency_p95_ms": 1100,
	     "settle_txs": 25, "blocks": 25, "frames_per_wall_sec": 50000},
	    {"devices": 10000, "gateways": 100, "success_rate": 0.99, "latency_p95_ms": 1150,
	     "settle_txs": 25, "blocks": 25, "frames_per_wall_sec": 25000}
	  ]
	}`
	if _, err := gate(t, "city", baseCity, cand); err == nil ||
		!strings.Contains(err.Error(), "workload mismatch") {
		t.Fatalf("want workload mismatch, got %v", err)
	}
}

const baseChannel = `{
  "deliveries": 150, "capacity": 50000, "price": 100, "block_interval_ms": 100,
  "results": [
    {"mode": "onchain", "deliveries_per_sec": 9.2,   "onchain_txs": 300},
    {"mode": "channel", "deliveries_per_sec": 131.3, "onchain_txs": 2}
  ]
}`

func TestGateChannel(t *testing.T) {
	doc := func(channelDPS float64, channelTxs int) string {
		return strings.NewReplacer("131.3", fmt.Sprint(channelDPS), `"onchain_txs": 2}`, fmt.Sprintf(`"onchain_txs": %d}`, channelTxs)).Replace(baseChannel)
	}
	for _, tc := range []struct {
		name string
		cand string
		want []string // one substring per expected failure, in order
	}{
		{"passes", doc(60, 30), nil},
		// Every delivery settling on-chain again: parity throughput.
		{"speedup below 5x", doc(40, 2), []string{"speedup 4.35x below floor 5.0x"}},
		// Per-delivery settlement leaking onto the chain: 61 > 300/5.
		{"tx count above deliveries/5", doc(131.3, 61), []string{"batching saved less than 5x"}},
		{"fewer than two anchors", doc(131.3, 1), []string{"mined only 1 txs"}},
	} {
		failures, err := gate(t, "channel", baseChannel, tc.cand)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(failures) != len(tc.want) {
			t.Fatalf("%s: failures = %v, want %d", tc.name, failures, len(tc.want))
		}
		for i, want := range tc.want {
			if !strings.Contains(failures[i], want) {
				t.Fatalf("%s: failure %q does not mention %q", tc.name, failures[i], want)
			}
		}
	}
	mismatch := strings.Replace(baseChannel, `"deliveries": 150`, `"deliveries": 30`, 1)
	if _, err := gate(t, "channel", baseChannel, mismatch); err == nil || !strings.Contains(err.Error(), "workload mismatch") {
		t.Fatalf("want workload mismatch, got %v", err)
	}
}

func TestGateAgainstCommittedBaselines(t *testing.T) {
	// The committed baselines must pass against themselves, or the CI
	// job would fail on an untouched tree.
	for _, b := range experiments.Benches {
		if b.Run == nil {
			continue
		}
		path := filepath.Join("..", "..", "results", "BENCH_"+b.Kind+".json")
		if failures, err := runGate(b.Kind, path, path); err != nil || len(failures) != 0 {
			t.Errorf("%s self-gate: err=%v failures=%v", b.Kind, err, failures)
		}
	}
}
