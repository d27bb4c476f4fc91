package experiments

import (
	"bytes"
	"testing"
)

func TestChannelBenchBatchesSettlement(t *testing.T) {
	cfg := ChannelBenchConfig{Deliveries: 10, Capacity: 10_000, Price: 100}
	doc, err := RunChannelBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := doc.Results
	if len(results) != 2 || results[0].Mode != "onchain" || results[1].Mode != "channel" {
		t.Fatalf("want [onchain channel] rows, got %+v", results)
	}
	onchain, channel := results[0], results[1]
	// Per-message settlement mines a payment and a claim per reading.
	if onchain.OnChainTxs != 2*int64(cfg.Deliveries) {
		t.Fatalf("onchain mode mined %d txs, want %d", onchain.OnChainTxs, 2*cfg.Deliveries)
	}
	if onchain.BlocksMined < int64(cfg.Deliveries) {
		t.Fatalf("onchain mode mined %d blocks, want ≥ %d", onchain.BlocksMined, cfg.Deliveries)
	}
	// The channel settles the whole stream with its two anchors.
	if channel.OnChainTxs != 2 {
		t.Fatalf("channel mode mined %d txs, want exactly the funding and close anchors", channel.OnChainTxs)
	}
	if channel.BlocksMined != 2 {
		t.Fatalf("channel mode mined %d blocks, want 2", channel.BlocksMined)
	}
	// Wall-clock is noisy at this size; the test only asserts the ratios
	// are well-formed — the committed full-scale run is what CI gates.
	if doc.SpeedupRatio <= 0 {
		t.Fatalf("speedup ratio %.2f, want > 0", doc.SpeedupRatio)
	}
	if doc.TxReduction != float64(cfg.Deliveries) {
		t.Fatalf("tx reduction %.1f, want %d", doc.TxReduction, cfg.Deliveries)
	}

	var text bytes.Buffer
	WriteChannelBench(&text, doc)
	if !bytes.Contains(text.Bytes(), []byte("on-chain tx reduction")) {
		t.Fatalf("report missing reduction line:\n%s", text.String())
	}

	got := reload(t, doc)
	if got.Deliveries != cfg.Deliveries || got.TxReduction != doc.TxReduction ||
		len(got.Results) != 2 || got.Results[1].OnChainTxs != 2 {
		t.Fatalf("JSON document malformed: %+v", got)
	}
}

func TestChannelBenchRejectsDegenerateConfig(t *testing.T) {
	if _, err := RunChannelBench(ChannelBenchConfig{Deliveries: 1, Capacity: 10_000, Price: 100}); err == nil {
		t.Fatal("want error for a single-delivery workload")
	}
	if _, err := RunChannelBench(ChannelBenchConfig{Deliveries: 10, Capacity: 100, Price: 100}); err == nil {
		t.Fatal("want error when the capacity cannot carry the stream")
	}
}
