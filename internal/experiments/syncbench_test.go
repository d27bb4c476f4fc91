package experiments

import (
	"bytes"
	"testing"
)

func TestSyncBenchSnapshotBeatsReplay(t *testing.T) {
	cfg := SyncBenchConfig{Height: 600, SnapshotInterval: 128, SnapshotChunkSize: 32 << 10, TxsPerBlock: 2}
	doc, err := RunSyncBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := doc.Results
	if len(results) != 2 || results[0].Mode != "replay" || results[1].Mode != "snapshot" {
		t.Fatalf("want [replay snapshot] rows, got %+v", results)
	}
	replay, snapshot := results[0], results[1]
	if replay.PruneBase != 0 || replay.BlocksReplayed < cfg.Height {
		t.Fatalf("replay join should fetch full history: %+v", replay)
	}
	if snapshot.PruneBase < cfg.SnapshotInterval || snapshot.PruneBase%cfg.SnapshotInterval != 0 {
		t.Fatalf("snapshot prune base = %d, want a boundary ≥ %d", snapshot.PruneBase, cfg.SnapshotInterval)
	}
	if snapshot.BlocksReplayed >= replay.BlocksReplayed {
		t.Fatalf("snapshot join executed %d bodies, replay %d — no body savings",
			snapshot.BlocksReplayed, replay.BlocksReplayed)
	}
	// At this small height the wall-clock gap is noisy, so the test only
	// asserts direction on the structural numbers and that the ratio is
	// well-formed; the committed full-scale run is what CI gates.
	if doc.SpeedupRatio <= 0 {
		t.Fatalf("speedup ratio %.2f, want > 0", doc.SpeedupRatio)
	}

	var text bytes.Buffer
	WriteSyncBench(&text, doc)
	if !bytes.Contains(text.Bytes(), []byte("first-delivery speedup")) {
		t.Fatalf("report missing speedup line:\n%s", text.String())
	}

	got := reload(t, doc)
	if got.Height != cfg.Height || got.SpeedupRatio != doc.SpeedupRatio ||
		len(got.Results) != 2 || got.Results[1].PruneBase == 0 {
		t.Fatalf("JSON document malformed: %+v", got)
	}
}

func TestSyncBenchRejectsDegenerateConfig(t *testing.T) {
	if _, err := RunSyncBench(SyncBenchConfig{Height: 0, SnapshotInterval: 8, SnapshotChunkSize: 1, TxsPerBlock: 1}); err == nil {
		t.Fatal("want error for zero height")
	}
	if _, err := RunSyncBench(SyncBenchConfig{Height: 32, SnapshotInterval: 8, SnapshotChunkSize: 1, TxsPerBlock: 0}); err == nil {
		t.Fatal("want error for a bodiless workload")
	}
	// No boundary strictly behind the tip: nothing to bootstrap from.
	if _, err := RunSyncBench(SyncBenchConfig{Height: 10, SnapshotInterval: 8, SnapshotChunkSize: 1, TxsPerBlock: 1}); err == nil {
		t.Fatal("want error when no snapshot boundary fits")
	}
}
