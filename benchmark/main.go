// Command benchmark is the repo's end-to-end benchmark: one delivered,
// verified reading through the real BcWAN protocol, measured four ways
// (see README.md in this directory). It drives the protocol only through
// the entry points cmd/ and examples/ use, and measures layers from
// outside: by timing calls into their public functions and by reading
// telemetry deltas.
//
//	benchmark -workload facade_onchain -seed 1 -seconds 15 -trace 0
//	benchmark -merge set.json run1.json run2.json ...
//	benchmark -compare a.json b.json
//
// The last line of standard output of a workload run is one JSON object
// {"correct","attempted","failed","metrics"} for the benchmark driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// benchmarkName tags every document the harness writes.
const benchmarkName = "bcwan-delivered-reading"

// setupRepeats is how many times a run builds its system under test;
// setup_s is the median, the last build is the one measured.
const setupRepeats = 3

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// dataDir holds every on-disk store of the run; it is removed at exit.
	dataDir string
	// traceDir receives trace_<workload>.jsonl from a traced run.
	traceDir string
	// corruptEvery, when positive, corrupts the expected plaintext of
	// every n-th delivery so the output check must count it as failed.
	// Only the smoke test sets it.
	corruptEvery int
	// quick shrinks everything but the window — one set-up, short
	// warm-ups, a tenth of the probe calls, 100 simulated exchanges per
	// second — so a run fits in a couple of seconds. Only the smoke test
	// sets it.
	quick bool
}

// workload is one of the four ways a reading is delivered.
type workload interface {
	// setup builds the system under test and warms it up.
	setup() error
	// slice is the length of the stretches the window is cut into.
	slice(window time.Duration, traced bool) time.Duration
	// costPrefix is how many deliveries, from the start of the window,
	// the per-delivery costs (CPU, allocation) are charged over; 0 means
	// the whole window. A fixed count keeps a faster build from being
	// charged for the greater chain heights it reaches in a fixed time.
	costPrefix() int
	// run drives the workload for about d — or until limit deliveries
	// were verified, when limit is positive — and reports what was
	// delivered.
	run(d time.Duration, limit int, tr *tracer) tally
	// verify runs the end-of-run output checks and returns one line per
	// violated check.
	verify(total tally) []string
	// layers fills the per-layer metrics after the window.
	layers(m metricSet, tr *tracer, total tally)
	// teardown stops everything the workload started.
	teardown()
}

func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.workload {
	case wlFacade:
		return newFacade(cfg), nil
	case wlTCPChannel:
		return newTCPWorkload(cfg, true), nil
	case wlTCPOnChain:
		return newTCPWorkload(cfg, false), nil
	case wlSim:
		return newSimWorkload(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// runDoc is the document one run writes with -out; -merge folds several
// into a set for -compare.
type runDoc struct {
	Benchmark string `json:"benchmark"`
	// Claim is always null: this benchmark defines a baseline and claims
	// no gain.
	Claim     *string          `json:"claim"`
	Stamp     stamp            `json:"stamp"`
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Samples   int              `json:"latency_samples"`
	Metrics   map[string]value `json:"metrics"`
	// Extra holds end-to-end quantities that cannot carry a bound
	// (failed_share, retained memory, virtual-time statistics).
	Extra map[string]value `json:"extra,omitempty"`
	Steps []stepMean       `json:"steps,omitempty"`
	// Slices are the untraced window's back-to-back stretches.
	Slices   []sliceStat `json:"slices,omitempty"`
	Problems []string    `json:"problems,omitempty"`
}

// sliceStat summarises one slice of the window.
type sliceStat struct {
	Verified int     `json:"verified"`
	RatePerS float64 `json:"deliveries_per_s"`
}

// rateDrift is last-quarter over first-quarter throughput of the window;
// O(height) work on the chain path shows as a value below 1. Each quarter
// of a traced run holds as many traced as untraced slices, so tracing
// cancels out.
func rateDrift(slices []tally) float64 {
	q := len(slices) / 4
	if q == 0 {
		return 0
	}
	var first, last tally
	for i := 0; i < q; i++ {
		first.add(slices[i])
		last.add(slices[len(slices)-1-i])
	}
	if first.rate() == 0 {
		return 0
	}
	return last.rate() / first.rate()
}

// driverLine is the contract with the benchmark driver.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		cfg     runConfig
		trace   int
		out     string
		merge   string
		compare bool
		bounds  string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 15, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.dataDir, "datadir", ".bench_build/data", "parent of the run's scratch directory")
	flag.StringVar(&cfg.traceDir, "tracedir", "benchmark/out", "where a traced run writes trace_<workload>.jsonl")
	flag.StringVar(&out, "out", "", "also write the run document to this file")
	flag.StringVar(&merge, "merge", "", "fold the run documents given as arguments into this set document")
	flag.BoolVar(&compare, "compare", false, "compare two set documents given as arguments against the bounds")
	flag.StringVar(&bounds, "bounds", "BENCHMARK.json", "manifest holding the regression bounds for -compare")
	flag.Parse()

	switch {
	case merge != "":
		if err := mergeDocs(merge, flag.Args()); err != nil {
			fatal(err)
		}
		return
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two set documents"))
		}
		ok, err := compareSets(os.Stdout, bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if cfg.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	cfg.trace = trace != 0
	doc, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	printDoc(doc)
	if out != "" {
		if err := writeJSON(out, doc); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(driverLine{
		Correct: doc.Correct, Attempted: doc.Attempted, Failed: doc.Failed, Metrics: doc.Metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload performs one complete run in this process.
func runWorkload(cfg runConfig) (*runDoc, error) {
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("data dir: %w", err)
	}
	scratch, err := os.MkdirTemp(cfg.dataDir, cfg.workload+"-")
	if err != nil {
		return nil, fmt.Errorf("data dir: %w", err)
	}
	defer os.RemoveAll(scratch)
	parent := cfg.dataDir
	cfg.dataDir = scratch

	sampler := startGoroutineSampler()
	defer sampler.Stop()

	// Set-up, several times over: the median is setup_s, the last system
	// built is the one the window runs on.
	var (
		w      workload
		setups []float64
	)
	repeats := setupRepeats
	if cfg.quick {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if w != nil {
			w.teardown()
		}
		if w, err = newWorkload(cfg); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.teardown()

	// The window is cut into slices run back to back on the same system.
	// A traced run alternates untraced and traced slices, so the two
	// rates it compares saw the same chain heights and the same host.
	window := time.Duration(cfg.seconds) * time.Second
	sliceLen := w.slice(window, cfg.trace)
	var (
		tr                *tracer
		total             tally
		untraced, tracedT tally
		slices            []tally
		// The per-delivery costs are charged over the first costN
		// deliveries only: see costPrefix.
		costN    = w.costPrefix()
		costDone bool
		cost     resources
		costOver int
	)
	if cfg.trace {
		tr = newTracer()
		costN = 0
	}
	before := snapshot(true)
	for i := 0; i < int(window/sliceLen); i++ {
		sliceTr, limit := tr, 0
		if i%2 == 0 {
			sliceTr = nil
		}
		if costN > 0 && !costDone {
			limit = costN - total.verified
		}
		t := w.run(sliceLen, limit, sliceTr)
		if sliceTr == nil {
			untraced.add(t)
		} else {
			tracedT.add(t)
		}
		total.add(t)
		t.latencies = sortedCopy(t.latencies)
		slices = append(slices, t)
		if costN > 0 && !costDone && total.verified >= costN {
			cost, costOver, costDone = snapshot(false), total.verified, true
		}
	}
	after := snapshot(false)
	settled := snapshot(true)

	if total.verified == 0 {
		return nil, fmt.Errorf("%s: no delivery was verified (%d attempted)", cfg.workload, total.attempted)
	}
	problems := w.verify(total)
	per := float64(total.verified)
	if !costDone {
		cost, costOver = after, total.verified
	}
	sorted := sortedCopy(total.latencies)
	extra := metricSet{
		"e2e.failed_share":             float64(total.failed()) / float64(total.attempted),
		"e2e.retained_kb_per_delivery": (float64(settled.heapAlloc) - float64(before.heapAlloc)) / 1024 / per,
	}

	doc := &runDoc{
		Benchmark: benchmarkName,
		Stamp:     hostStamp(parent),
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Seconds:   cfg.seconds,
		Trace:     cfg.trace,
		Attempted: total.attempted,
		Failed:    total.failed(),
		Samples:   len(sorted),
	}
	if !cfg.trace {
		// Rate and latency are medians over the window's slices, so a
		// stall of the host during part of the window moves them little.
		var rates, p50s, p95s []float64
		for _, t := range slices {
			rates = append(rates, t.rate())
			if len(t.latencies) > 0 {
				p50s = append(p50s, ms(quantile(t.latencies, 0.50)))
				p95s = append(p95s, ms(quantile(t.latencies, 0.95)))
			}
			doc.Slices = append(doc.Slices, sliceStat{Verified: t.verified, RatePerS: t.rate()})
		}
		m := metricSet{
			"deliveries_per_s":      medianFloat(rates),
			"delivery_p50_ms":       medianFloat(p50s),
			"delivery_p95_ms":       medianFloat(p95s),
			"cpu_ms_per_delivery":   ms(cost.cpu-before.cpu) / float64(costOver),
			"alloc_kb_per_delivery": float64(cost.totalAlloc-before.totalAlloc) / 1024 / float64(costOver),
			"setup_s":               medianFloat(setups),
		}
		if s, ok := w.(*simWorkload); ok {
			s.virtual(extra)
		}
		doc.Metrics = m.render(endToEnd)
		doc.Extra = extra.render(wholeRun)
	} else {
		m := extra
		w.layers(m, tr, total)
		directProbes(m, cfg)
		if cfg.workload == wlFacade {
			m["facade.rate_drift"] = rateDrift(slices)
		}
		m["tail.delivery_p99_ms"] = ms(quantile(sorted, 0.99))
		m["runtime.gc_pause_ms"] = ms(after.gcPause - before.gcPause)
		m["runtime.goroutines_peak"] = float64(sampler.Stop())
		m["runtime.peak_rss_mb"] = peakRSSMB()
		if r := untraced.rate(); r > 0 {
			m["trace.overhead_share"] = 1 - tracedT.rate()/r
		}
		m["trace.span_coverage"] = tr.coverage()
		doc.Metrics = m.render(perLayer)
		doc.Steps = tr.stepMeans()
		if err := tr.writeJSONL(filepath.Join(cfg.traceDir, "trace_"+cfg.workload+".jsonl")); err != nil {
			return nil, err
		}
	}
	doc.Problems = problems
	doc.Correct = len(problems) == 0
	return doc, nil
}

// printDoc prints every metric by name and unit, one per line.
func printDoc(doc *runDoc) {
	mode := "untraced"
	defs := endToEnd
	if doc.Trace {
		mode, defs = "traced", perLayer
	}
	fmt.Printf("# %s seed=%d seconds=%d %s  attempted=%d failed=%d latency_samples=%d\n",
		doc.Workload, doc.Seed, doc.Seconds, mode, doc.Attempted, doc.Failed, doc.Samples)
	s := doc.Stamp
	fmt.Printf("# host: nproc=%d gomaxprocs=%d %s %s/%s data_fs=%s network=%q commit=%s\n",
		s.CPUs, s.GOMAXPROCS, s.GoVersion, s.GOOS, s.GOARCH, s.DataFS, s.Network, s.Commit)
	for _, d := range defs {
		fmt.Printf("%-32s %14.4f %s\n", d.Name, doc.Metrics[d.Name].Value, d.Unit)
	}
	if !doc.Trace {
		for _, d := range wholeRun {
			fmt.Printf("%-32s %14.4f %s\n", d.Name, doc.Extra[d.Name].Value, d.Unit)
		}
	}
	for _, st := range doc.Steps {
		fmt.Printf("# step %-28s n=%-6d mean=%10.4f ms  share=%.3f\n", st.Name, st.Count, st.MeanMS, st.Share)
	}
	for _, p := range doc.Problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
