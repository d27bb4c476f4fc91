package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestMeshNeighbors(t *testing.T) {
	for i := 0; i < 16; i++ {
		ns := meshNeighbors(i, 16, 3)
		if len(ns) != 3 {
			t.Fatalf("node %d has %d neighbors, want 3", i, len(ns))
		}
		seen := map[int]bool{i: true}
		for _, n := range ns {
			if seen[n] {
				t.Fatalf("node %d neighbor list %v repeats or self-links", i, ns)
			}
			seen[n] = true
		}
	}
	// Degenerate mesh: a 2-node "ring" must still link the pair once.
	if ns := meshNeighbors(0, 2, 3); len(ns) == 0 {
		t.Fatal("2-node mesh has no links")
	}
}

// TestRelayBenchWarmPoolsReconstruct runs the quick relay workload and
// checks what the CI gate reads from it: a fault-free mesh with warm
// pools rebuilds every block from its sketch, and the document carries
// those numbers in the "inv" row.
func TestRelayBenchWarmPoolsReconstruct(t *testing.T) {
	cfg := RelayBenchConfig{Nodes: 6, Degree: 2, TxsPerBlock: 6, Blocks: 2}
	res, err := RunRelayBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesPerBlock <= 0 {
		t.Fatalf("relay moved %d bytes/block", res.BytesPerBlock)
	}
	if res.HitRate < 0.9 {
		t.Fatalf("warm-pool reconstruction hit rate %.2f, want ≥ 0.90", res.HitRate)
	}
	if res.FullFallbacks != 0 {
		t.Fatalf("fault-free mesh fell back to %d full blocks", res.FullFallbacks)
	}

	var text bytes.Buffer
	WriteRelayBench(&text, cfg, res)
	if !bytes.Contains(text.Bytes(), []byte("bytes/block")) {
		t.Fatalf("report missing the bytes column:\n%s", text.String())
	}

	path := filepath.Join(t.TempDir(), "BENCH_relay.json")
	if err := WriteRelayBenchJSON(path, cfg, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Nodes   int `json:"nodes"`
		Results []struct {
			Mode          string  `json:"mode"`
			BytesPerBlock int64   `json:"bytes_per_block"`
			HitRate       float64 `json:"hit_rate"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Nodes != cfg.Nodes || len(doc.Results) != 1 || doc.Results[0].Mode != "inv" ||
		doc.Results[0].BytesPerBlock != res.BytesPerBlock || doc.Results[0].HitRate != res.HitRate {
		t.Fatalf("JSON document malformed: %+v", doc)
	}
}
