// bcwan-bench regenerates every table and figure of the paper's
// evaluation (§5.2) plus the DESIGN.md ablations:
//
//	Fig. 4  message format sizes
//	Fig. 5  exchange latency without block verification (2000 exchanges)
//	Fig. 6  exchange latency with block verification
//	§5.2    duty-cycle budget per spreading factor
//	§6      double-spend exposure vs confirmation policy
//	§4.4    reputation baseline vs script fair exchange
//	extras  block-interval / gateway-count / SF sweeps, legacy baseline,
//	        block-connect throughput, cold vs mempool-primed sig cache,
//	        depth-2 reorg cost vs chain length (undo-journal ablation),
//	        wire bytes and propagation time: flood vs inv/compact relay,
//	        gateway cold start: genesis replay vs snapshot bootstrap,
//	        delivery settlement: per-message on-chain vs payment channel
//
// Run everything at paper scale (minutes):
//
//	go run ./cmd/bcwan-bench
//
// Quick pass (seconds):
//
//	go run ./cmd/bcwan-bench -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/experiments"
	"bcwan/internal/lora"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bcwan-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bcwan-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "scaled-down run (seconds instead of minutes)")
	onlyHelp := "run a single experiment: fig4|fig5|fig6|budget|doublespend|reputation|sweeps|legacy"
	for _, b := range experiments.Benches {
		if b.Run != nil {
			onlyHelp += "|" + b.Kind
		}
	}
	only := fs.String("only", "", onlyHelp)
	csvDir := fs.String("csv", "", "also write per-exchange latency series (the raw figure data) as CSV files into this directory")
	resultsDir := fs.String("results", "results", "directory for machine-readable benchmark JSON (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale := func(cfg experiments.Config) experiments.Config {
		if *quick {
			cfg.Gateways = 2
			cfg.SensorsPerGateway = 5
			cfg.Exchanges = 60
		}
		return cfg
	}
	want := func(name string) bool { return *only == "" || *only == name }
	out := os.Stdout

	if want("fig4") {
		writeFig4(out)
	}

	if want("fig5") {
		res, err := experiments.Run(scale(experiments.Fig5Config()))
		if err != nil {
			return err
		}
		experiments.WriteFigureReport(out, "Fig. 5: BcWAN process latency (without block verification)",
			experiments.PaperFig5MeanSeconds, res)
		if err := writeCSV(*csvDir, "fig5_latencies.csv", res); err != nil {
			return err
		}
	}

	if want("fig6") {
		res, err := experiments.Run(scale(experiments.Fig6Config()))
		if err != nil {
			return err
		}
		experiments.WriteFigureReport(out, "Fig. 6: BcWAN process latency (with block verification)",
			experiments.PaperFig6MeanSeconds, res)
		if err := writeCSV(*csvDir, "fig6_latencies.csv", res); err != nil {
			return err
		}
	}

	if want("budget") {
		rows, err := experiments.BudgetTable(132, 0.01)
		if err != nil {
			return err
		}
		experiments.WriteBudgetTable(out, rows, 132, 0.01)
	}

	if want("doublespend") {
		trials := 100
		if *quick {
			trials = 20
		}
		var results []*experiments.DoubleSpendResult
		for _, confs := range []int64{0, 1, 2, 6} {
			res, err := experiments.RunDoubleSpend(experiments.DoubleSpendConfig{
				Seed:              11,
				Trials:            trials,
				WaitConfirmations: confs,
				RaceWinProb:       0.5,
				Price:             100,
				BlockInterval:     15 * time.Second,
			})
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		experiments.WriteDoubleSpend(out, results)
	}

	if want("reputation") {
		cmp := experiments.RunReputationComparison(11, 10, 0.3, 0.5, 20_000, 100)
		experiments.WriteReputation(out, cmp)
	}

	if want("sweeps") {
		sweepBase := scale(experiments.Fig5Config())
		sweepBase.Exchanges = min(sweepBase.Exchanges, 200)

		intervals := []time.Duration{5 * time.Second, 15 * time.Second, 30 * time.Second, 60 * time.Second}
		stallBase := sweepBase
		stallBase.VerificationStall = experiments.Fig6Config().VerificationStall
		byInterval, err := experiments.SweepBlockInterval(stallBase, intervals)
		if err != nil {
			return err
		}
		experiments.WriteSweep(out, "Ablation: block interval (verification on)",
			experiments.DurationLabels(intervals), byInterval)

		gateways := []int{2, 5, 10}
		byGateways, err := experiments.SweepGateways(sweepBase, gateways)
		if err != nil {
			return err
		}
		experiments.WriteSweep(out, "Ablation: gateway count",
			experiments.IntLabels(gateways), byGateways)

		sfs := []lora.SpreadingFactor{lora.SF7, lora.SF8}
		bySF, err := experiments.SweepSpreadingFactor(sweepBase, sfs)
		if err != nil {
			return err
		}
		experiments.WriteSweep(out, "Ablation: spreading factor (SF9+ cannot carry the 148 B payload)",
			experiments.SFLabels(sfs), bySF)

		confs := []int64{0, 1, 2}
		byConfs, err := experiments.SweepConfirmations(sweepBase, confs)
		if err != nil {
			return err
		}
		experiments.WriteSweep(out, "Ablation: confirmation policy",
			experiments.Int64Labels(confs), byConfs)
	}

	for _, b := range experiments.Benches {
		if b.Run == nil || !want(b.Kind) {
			continue
		}
		if err := b.Run(*quick, *resultsDir, out); err != nil {
			return err
		}
	}

	if want("legacy") {
		cfg := scale(experiments.Fig5Config())
		legacy, err := experiments.LegacyLatency(cfg, 2000)
		if err != nil {
			return err
		}
		res, err := experiments.Run(cfg)
		if err != nil {
			return err
		}
		experiments.WriteLegacyComparison(out, legacy, res)
	}
	return nil
}

// writeFig4 prints the message-format arithmetic of Fig. 4 and §5.1.
func writeFig4(out *os.File) {
	fmt.Fprintln(out, "== Fig. 4: encrypted message format ==")
	fmt.Fprintf(out, "AES-256-CBC frame: 1 B len + %d B IV + 1 B len + 16 B ciphertext = %d B\n",
		bccrypto.FrameIVLen, bccrypto.CanonicalFrameLen)
	fmt.Fprintf(out, "RSA-512 double encryption Em:  %d B\n", bccrypto.RSA512ModulusLen)
	fmt.Fprintf(out, "RSA-512 signature Sig:         %d B\n", bccrypto.RSA512ModulusLen)
	fmt.Fprintf(out, "minimum crypto payload:        %d B (paper: 128 B)\n", 2*bccrypto.RSA512ModulusLen)
	fmt.Fprintf(out, "with 20 B @R + 13 B MAC header: %d B on air\n", 2*bccrypto.RSA512ModulusLen+20+13)
	fmt.Fprintln(out)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// writeCSV dumps a result's per-exchange latencies — the raw series the
// paper's scatter figures plot — as "index,latency_seconds" rows.
func writeCSV(dir, name string, res *experiments.Result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "exchange,latency_seconds"); err != nil {
		return err
	}
	for i, l := range res.Latencies {
		if _, err := fmt.Fprintf(f, "%d,%.6f\n", i, l.Seconds()); err != nil {
			return err
		}
	}
	return nil
}
