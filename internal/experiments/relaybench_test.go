package experiments

import (
	"bytes"
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
	doc, err := RunRelayBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rowByMode(doc.Results, "inv")
	if res == nil || len(doc.Results) != 1 {
		t.Fatalf("want exactly the inv row, got %+v", doc.Results)
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
	WriteRelayBench(&text, doc)
	if !bytes.Contains(text.Bytes(), []byte("bytes/block")) {
		t.Fatalf("report missing the bytes column:\n%s", text.String())
	}

	got := reload(t, doc)
	if got.Nodes != cfg.Nodes || len(got.Results) != 1 || *got.Results[0] != *res {
		t.Fatalf("JSON document malformed: %+v", got)
	}
}
