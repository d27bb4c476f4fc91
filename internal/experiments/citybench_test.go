package experiments

import "testing"

// TestCityBenchSmoke runs the quick campaign end to end and checks the
// structural invariants of the city world: traffic flows, dedupe works,
// churn and roaming actually happen, and the settlement chain pays out
// exactly one credit per first-accepted frame.
func TestCityBenchSmoke(t *testing.T) {
	cfg := QuickCityConfig()
	doc, err := RunCityBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := doc.Tiers
	if len(results) != len(cfg.Tiers) {
		t.Fatalf("got %d tiers, want %d", len(results), len(cfg.Tiers))
	}
	for i, r := range results {
		tier := cfg.Tiers[i]
		if r.Devices != tier.Devices || r.Gateways != tier.Gateways {
			t.Errorf("tier %d: %dx%d, want %dx%d", i, r.Devices, r.Gateways, tier.Devices, tier.Gateways)
		}
		if r.FramesSent == 0 || r.FramesDelivered == 0 {
			t.Fatalf("tier %d: no traffic (sent %d, delivered %d)", i, r.FramesSent, r.FramesDelivered)
		}
		if r.SuccessRate < 0.8 {
			t.Errorf("tier %d: success rate %.3f below smoke floor 0.8", i, r.SuccessRate)
		}
		if r.Duplicates == 0 {
			t.Errorf("tier %d: no duplicate receptions — the lattice should overhear most frames at several gateways", i)
		}
		if r.GatewayOutages == 0 || r.DeviceMoves == 0 {
			t.Errorf("tier %d: churn/roaming idle (outages %d, moves %d)", i, r.GatewayOutages, r.DeviceMoves)
		}
		if r.SettleTxs == 0 || r.Blocks == 0 || r.PayoutOutputs == 0 {
			t.Errorf("tier %d: settlement chain idle (txs %d, blocks %d, payouts %d)",
				i, r.SettleTxs, r.Blocks, r.PayoutOutputs)
		}
		// Every first-accepted frame is worth exactly one credit, and
		// the final post-run batch settles everything delivered.
		if want := r.FramesDelivered * cfg.PricePerDelivery; r.CreditsPaid != want {
			t.Errorf("tier %d: credits paid %d, want %d (%d deliveries × %d)",
				i, r.CreditsPaid, want, r.FramesDelivered, cfg.PricePerDelivery)
		}
		if uint64(len(r.Latencies)) != r.FramesDelivered {
			t.Errorf("tier %d: %d latency samples for %d deliveries", i, len(r.Latencies), r.FramesDelivered)
		}
		if r.Latency.P95 <= 0 || r.Latency.Median <= 0 {
			t.Errorf("tier %d: degenerate latency summary %+v", i, r.Latency)
		}
		if r.Channel.Transmissions == 0 || r.Channel.Deliveries == 0 {
			t.Errorf("tier %d: channel stats idle: %+v", i, r.Channel)
		}
	}
}

// TestCityBenchDeterminism re-runs one tier with the same seed and
// requires identical results: device placement, SF mix, traffic,
// roaming, churn, WAN latencies and settlement all draw from seeded
// generators in scheduler order, so nothing but wall-clock may differ.
func TestCityBenchDeterminism(t *testing.T) {
	cfg := QuickCityConfig()
	cfg.Tiers = cfg.Tiers[:1]
	a, err := RunCityBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCityBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, y := a.Tiers[0], b.Tiers[0]
	if x.FramesSent != y.FramesSent || x.FramesDelivered != y.FramesDelivered ||
		x.Duplicates != y.Duplicates || x.OutageDrops != y.OutageDrops {
		t.Errorf("traffic diverged: %d/%d/%d/%d vs %d/%d/%d/%d",
			x.FramesSent, x.FramesDelivered, x.Duplicates, x.OutageDrops,
			y.FramesSent, y.FramesDelivered, y.Duplicates, y.OutageDrops)
	}
	if x.Channel != y.Channel {
		t.Errorf("channel stats diverged: %+v vs %+v", x.Channel, y.Channel)
	}
	if x.SettleTxs != y.SettleTxs || x.Blocks != y.Blocks ||
		x.PayoutOutputs != y.PayoutOutputs || x.CreditsPaid != y.CreditsPaid {
		t.Errorf("settlement diverged: %d/%d/%d/%d vs %d/%d/%d/%d",
			x.SettleTxs, x.Blocks, x.PayoutOutputs, x.CreditsPaid,
			y.SettleTxs, y.Blocks, y.PayoutOutputs, y.CreditsPaid)
	}
	if x.GatewayOutages != y.GatewayOutages || x.DeviceMoves != y.DeviceMoves {
		t.Errorf("churn/roaming diverged: %d/%d vs %d/%d",
			x.GatewayOutages, x.DeviceMoves, y.GatewayOutages, y.DeviceMoves)
	}
	if len(x.Latencies) != len(y.Latencies) {
		t.Fatalf("latency sample counts diverged: %d vs %d", len(x.Latencies), len(y.Latencies))
	}
	for i := range x.Latencies {
		if x.Latencies[i] != y.Latencies[i] {
			t.Fatalf("latency sample %d diverged: %v vs %v", i, x.Latencies[i], y.Latencies[i])
		}
	}
}

// TestCityBenchJSON round-trips the scaling-curve document the CI gate
// consumes.
func TestCityBenchJSON(t *testing.T) {
	cfg := QuickCityConfig()
	cfg.Tiers = cfg.Tiers[:1]
	doc, err := RunCityBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := reload(t, doc)
	if got.Seed != cfg.Seed || got.SimDurationMS != cfg.SimDuration.Milliseconds() {
		t.Errorf("header = seed %d / %d ms, want %d / %d", got.Seed, got.SimDurationMS,
			cfg.Seed, cfg.SimDuration.Milliseconds())
	}
	want := doc.Tiers[0]
	if len(got.Tiers) != 1 || got.Tiers[0].Devices != want.Devices ||
		got.Tiers[0].Gateways != want.Gateways ||
		got.Tiers[0].SuccessRate != want.SuccessRate ||
		got.Tiers[0].SettleTxs != want.SettleTxs ||
		got.Tiers[0].LatencyP95MS != durMS(want.Latency.P95) {
		t.Errorf("tiers round-trip mismatch: %+v vs %+v", got.Tiers[0], want)
	}
}

// TestCityBenchConfigValidation rejects degenerate campaigns.
func TestCityBenchConfigValidation(t *testing.T) {
	if _, err := RunCityBench(CityConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := QuickCityConfig()
	cfg.Tiers = []CityTier{{0, 4}}
	if _, err := RunCityBench(cfg); err == nil {
		t.Error("zero-device tier accepted")
	}
	cfg = QuickCityConfig()
	cfg.SimDuration = 0
	if _, err := RunCityBench(cfg); err == nil {
		t.Error("zero-duration campaign accepted")
	}
}
