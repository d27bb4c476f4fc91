package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// setDoc is several runs of one commit on one host: what -merge writes
// and -compare reads.
type setDoc struct {
	Benchmark string    `json:"benchmark"`
	Claim     *string   `json:"claim"`
	Stamp     stamp     `json:"stamp"`
	Runs      []*runDoc `json:"runs"`
}

// manifest is the part of BENCHMARK.json -compare needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
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

// mergeDocs folds run documents into one set document. Runs from hosts
// of different shape do not belong in one set.
func mergeDocs(out string, paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-merge wants run documents to fold")
	}
	set := setDoc{Benchmark: benchmarkName}
	for i, p := range paths {
		var run runDoc
		if err := readJSON(p, &run); err != nil {
			return err
		}
		if i == 0 {
			set.Stamp = run.Stamp
		} else if ok, field := set.Stamp.sameHost(run.Stamp); !ok {
			return fmt.Errorf("%s was measured on a different host (%s differs)", p, field)
		}
		set.Runs = append(set.Runs, &run)
	}
	return writeJSON(out, &set)
}

// quartileSpread is (Q3 − Q1) / median with Python's
// statistics.quantiles(values, n=4) quartiles — the benchmark driver's
// definition of run-to-run spread.
func quartileSpread(values []float64) float64 {
	n := len(values)
	med := medianFloat(values)
	if n < 2 || med == 0 {
		return 0
	}
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return math.Abs((q(3) - q(1)) / med)
}

// collect gathers one metric's values over a set's untraced runs of a
// workload.
func (s *setDoc) collect(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Trace {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// compareSets prints, per workload × end-to-end metric, how much worse b
// is than a against the manifest's bound. It returns false on a breach:
// a metric worse by more than its bound, a failed delivery, or virtual
// statistics that differ for equal seeds. A pair whose own run-to-run
// spread exceeds the bound cannot resolve a regression of that size and
// is marked unresolved instead.
func compareSets(w io.Writer, manifestPath, pathA, pathB string) (bool, error) {
	var (
		man  manifest
		a, b setDoc
	)
	if err := readJSON(manifestPath, &man); err != nil {
		return false, err
	}
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	if ok, field := a.Stamp.sameHost(b.Stamp); !ok {
		return false, fmt.Errorf("refusing to compare: %s differs between %s and %s (%+v vs %+v)", field, pathA, pathB, a.Stamp, b.Stamp)
	}
	fmt.Fprintf(w, "a: %s (commit %s, %d runs)\nb: %s (commit %s, %d runs)\n", pathA, a.Stamp.Commit, len(a.Runs), pathB, b.Stamp.Commit, len(b.Runs))
	fmt.Fprintf(w, "%-16s %-24s %12s %12s %8s %7s %7s %6s  %s\n", "workload", "metric", "median a", "median b", "worse", "iqr a", "iqr b", "bound", "verdict")
	ok := true
	for _, wl := range man.Workloads {
		for _, e := range man.EndToEnd {
			va, vb := a.collect(wl.Name, e.Name), b.collect(wl.Name, e.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-24s missing from one side\n", wl.Name, e.Name)
				ok = false
				continue
			}
			ma, mb := medianFloat(va), medianFloat(vb)
			worse := (mb - ma) / ma
			if e.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "ok"
			switch {
			case math.Max(sa, sb) > e.Bound:
				verdict = "unresolved"
			case worse > e.Bound:
				verdict = "BREACH"
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-24s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, e.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*e.Bound, verdict)
		}
	}
	for _, set := range []*setDoc{&a, &b} {
		for _, r := range set.Runs {
			if r.Failed != 0 || !r.Correct {
				fmt.Fprintf(w, "BREACH: %s seed %d: %d of %d deliveries failed, correct=%v\n", r.Workload, r.Seed, r.Failed, r.Attempted, r.Correct)
				ok = false
			}
		}
	}
	// Simulated time must repeat exactly for a seed.
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != wlSim || rb.Workload != wlSim || ra.Trace || rb.Trace || ra.Seed != rb.Seed || ra.Seconds != rb.Seconds {
				continue
			}
			for _, name := range []string{"sim.virt_delivery_mean_ms", "sim.virt_delivery_p95_ms"} {
				if ra.Extra[name].Value != rb.Extra[name].Value {
					fmt.Fprintf(w, "BREACH: %s seed %d: %s is %v in a and %v in b\n", wlSim, ra.Seed, name, ra.Extra[name].Value, rb.Extra[name].Value)
					ok = false
				}
			}
		}
	}
	return ok, nil
}
