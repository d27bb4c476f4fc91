package main

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
)

// quickConfig is a one-second run in quick mode with all its files under
// the test's temp dir.
func quickConfig(t *testing.T, workload string, trace bool) runConfig {
	t.Helper()
	dir := t.TempDir()
	return runConfig{
		workload: workload,
		seed:     7,
		seconds:  1,
		trace:    trace,
		quick:    true,
		dataDir:  filepath.Join(dir, "data"),
		traceDir: filepath.Join(dir, "out"),
	}
}

// checkMetrics asserts that doc reports exactly the metrics of defs, each
// finite and tagged with the catalogue's unit.
func checkMetrics(t *testing.T, doc *runDoc, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(doc.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, catalogue names %d", len(doc.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := doc.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case v.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", d.Name, v.Value)
		case nonZero && v.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
		}
	}
}

// TestSmoke runs every workload untraced and traced for one second.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			mode := "untraced"
			if trace {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				doc, err := runWorkload(quickConfig(t, name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !doc.Correct || doc.Failed != 0 || doc.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", doc.Correct, doc.Attempted, doc.Failed, doc.Problems)
				}
				if trace {
					checkMetrics(t, doc, perLayer, false)
				} else {
					checkMetrics(t, doc, endToEnd, true)
				}
			})
		}
	}
}

// TestCorruptedPlaintextCountsAsFailed spoils the expected plaintext of
// every fifth delivery: the output check must count exactly those as
// failed, on the in-process path and on the OnReceive path.
func TestCorruptedPlaintextCountsAsFailed(t *testing.T) {
	for _, name := range []string{wlFacade, wlTCPChannel} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := quickConfig(t, name, false)
			cfg.corruptEvery = 5
			doc, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := doc.Attempted/5-2, doc.Attempted/5+2
			if doc.Failed < lo || doc.Failed > hi || doc.Failed == 0 {
				t.Fatalf("%d of %d deliveries failed, want about a fifth", doc.Failed, doc.Attempted)
			}
			want := float64(doc.Failed) / float64(doc.Attempted)
			if got := doc.Extra["e2e.failed_share"].Value; got != want {
				t.Fatalf("failed_share = %v, want %v", got, want)
			}
		})
	}
}

// TestCatalogueMatchesManifest keeps BENCHMARK.json and the harness's
// catalogue naming the same workloads and metrics with the same units.
func TestCatalogueMatchesManifest(t *testing.T) {
	var man manifest
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloadNames) {
		t.Fatalf("manifest names %d workloads, harness %d", len(man.Workloads), len(workloadNames))
	}
	for i, w := range man.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in the manifest, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
	if len(man.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest names %d end-to-end metrics, harness %d", len(man.EndToEnd), len(endToEnd))
	}
	for i, e := range man.EndToEnd {
		if e.Name != endToEnd[i].Name || e.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end metric %d is %s [%s] in the manifest, %s [%s] in the harness", i, e.Name, e.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(man.PerLayer) != len(perLayer) {
		t.Fatalf("manifest names %d per-layer metrics, harness %d", len(man.PerLayer), len(perLayer))
	}
	for i, l := range man.PerLayer {
		if l.Name != perLayer[i].Name || l.Unit != perLayer[i].Unit {
			t.Errorf("per-layer metric %d is %s [%s] in the manifest, %s [%s] in the harness", i, l.Name, l.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

// TestCompare drives -merge and -compare on synthetic documents: equal
// sets pass, a regression beyond the bound is a breach, a noisy pair is
// unresolved, and documents from different hosts are refused.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, st stamp, rate func(workload string, i int) float64) string {
		var paths []string
		for _, wl := range workloadNames {
			for i := 0; i < 3; i++ {
				m := metricSet{}
				for _, d := range endToEnd {
					m[d.Name] = 10 + 0.01*float64(i)
				}
				m["deliveries_per_s"] = rate(wl, i)
				doc := &runDoc{Stamp: st, Workload: wl, Seed: int64(i + 1), Seconds: 1, Correct: true, Attempted: 10, Metrics: m.render(endToEnd), Extra: metricSet{}.render(wholeRun)}
				p := filepath.Join(dir, name+"-"+wl+string(rune('a'+i))+".json")
				if err := writeJSON(p, doc); err != nil {
					t.Fatal(err)
				}
				paths = append(paths, p)
			}
		}
		set := filepath.Join(dir, name+".json")
		if err := mergeDocs(set, paths); err != nil {
			t.Fatal(err)
		}
		return set
	}
	host := stamp{CPUs: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", DataFS: "ext4"}
	steady := func(string, int) float64 { return 100 }
	base := write("base", host, steady)
	same := write("same", host, steady)
	slower := write("slower", host, func(wl string, _ int) float64 {
		if wl == wlTCPOnChain {
			return 70
		}
		return 100
	})
	noisy := write("noisy", host, func(wl string, i int) float64 {
		if wl == wlFacade {
			return 60 + 30*float64(i)
		}
		return 100
	})
	other := host
	other.CPUs = 8
	elsewhere := write("elsewhere", other, steady)
	manifestPath := filepath.Join("..", "BENCHMARK.json")

	var out bytes.Buffer
	if ok, err := compareSets(&out, manifestPath, base, same); err != nil || !ok {
		t.Fatalf("equal sets: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareSets(&out, manifestPath, base, slower); err != nil || ok || !bytes.Contains(out.Bytes(), []byte("BREACH")) {
		t.Fatalf("30%% slower tcp_onchain: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareSets(&out, manifestPath, base, noisy); err != nil || !ok || !bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Fatalf("noisy facade_onchain: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if _, err := compareSets(&out, manifestPath, base, elsewhere); err == nil {
		t.Fatal("documents from hosts of different shape were compared")
	}
}
