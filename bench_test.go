// Benchmarks regenerating the paper's evaluation, one per table/figure
// (see DESIGN.md §2 for the index). Each bench runs a scaled experiment
// per iteration and reports the headline quantity the paper's figure
// shows via b.ReportMetric — mean latency for Figs. 5/6, the message
// budget for the §5.2 setup, loss rates for the §6/§4.4 ablations.
//
// Paper-scale numbers (2000 exchanges, 5×30 sensors) are produced by
// `go run ./cmd/bcwan-bench`; these benches use reduced populations so
// `go test -bench=.` completes in minutes.
package bcwan_test

import (
	"crypto/rand"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/experiments"
	"bcwan/internal/lora"
)

// benchConfig scales the paper setup down for testing.B iteration.
func benchConfig(base experiments.Config) experiments.Config {
	base.Gateways = 2
	base.SensorsPerGateway = 5
	base.Exchanges = 40
	return base
}

// reportLatency publishes the figure's headline metrics.
func reportLatency(b *testing.B, res *experiments.Result) {
	b.Helper()
	b.ReportMetric(res.Summary.Mean.Seconds(), "s-mean/exchange")
	b.ReportMetric(res.Summary.Median.Seconds(), "s-median/exchange")
	b.ReportMetric(float64(res.Failed), "failed")
}

// BenchmarkFig4MessageFormat regenerates the Fig. 4 arithmetic: the
// 34-byte AES frame and the 128-byte double-encryption+signature payload.
func BenchmarkFig4MessageFormat(b *testing.B) {
	key := make([]byte, bccrypto.AESKeySize)
	eKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	nodeKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := bccrypto.EncryptFrame(rand.Reader, key, []byte("21.5C"))
		if err != nil {
			b.Fatal(err)
		}
		if len(frame) != bccrypto.CanonicalFrameLen {
			b.Fatalf("frame = %d B, want %d (Fig. 4)", len(frame), bccrypto.CanonicalFrameLen)
		}
		em, err := bccrypto.EncryptRSA512(rand.Reader, eKey.Public(), frame)
		if err != nil {
			b.Fatal(err)
		}
		sig := bccrypto.SignRSA512(nodeKey, em)
		if len(em)+len(sig) != 128 {
			b.Fatalf("payload = %d B, want 128 (§5.1)", len(em)+len(sig))
		}
	}
	b.ReportMetric(float64(bccrypto.CanonicalFrameLen), "frame-bytes")
	b.ReportMetric(128, "payload-bytes")
}

// BenchmarkFig5LatencyNoVerification regenerates Fig. 5: exchange latency
// with block verification disabled (paper mean 1.604 s).
func BenchmarkFig5LatencyNoVerification(b *testing.B) {
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(experiments.Fig5Config())
		cfg.Seed = int64(i + 1)
		res, err := experiments.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportLatency(b, last)
}

// BenchmarkFig6LatencyWithVerification regenerates Fig. 6: exchange
// latency with the Multichain verification stall (paper mean 30.241 s).
func BenchmarkFig6LatencyWithVerification(b *testing.B) {
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(experiments.Fig6Config())
		cfg.Seed = int64(i + 1)
		res, err := experiments.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportLatency(b, last)
}

// BenchmarkSetupDutyCycleBudget regenerates the §5.2 capacity figure:
// the duty-cycle message budget at SF7 (paper: 183 msg/sensor/hour).
func BenchmarkSetupDutyCycleBudget(b *testing.B) {
	var budget float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BudgetTable(132, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		budget = rows[0].MsgsPerHour
	}
	b.ReportMetric(budget, "msgs-per-hour-SF7")
}

// BenchmarkAblationConfirmations regenerates the §6 latency cost of the
// confirmation policy: each confirmation adds about one block interval.
func BenchmarkAblationConfirmations(b *testing.B) {
	var added time.Duration
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(experiments.Fig5Config())
		cfg.Exchanges = 10
		results, err := experiments.SweepConfirmations(cfg, []int64{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		added = results[1].Summary.Mean - results[0].Summary.Mean
	}
	b.ReportMetric(added.Seconds(), "s-added-per-confirmation")
}

// BenchmarkAblationDoubleSpend regenerates the §6 attack outcome: gateway
// loss rate with zero confirmations versus one.
func BenchmarkAblationDoubleSpend(b *testing.B) {
	var loss0, loss1 float64
	for i := 0; i < b.N; i++ {
		for _, confs := range []int64{0, 1} {
			res, err := experiments.RunDoubleSpend(experiments.DoubleSpendConfig{
				Seed:              int64(i + 1),
				Trials:            10,
				WaitConfirmations: confs,
				RaceWinProb:       0.5,
				Price:             100,
				BlockInterval:     15 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			if confs == 0 {
				loss0 = res.LossRate
			} else {
				loss1 = res.LossRate
			}
		}
	}
	b.ReportMetric(loss0*100, "loss-pct-0conf")
	b.ReportMetric(loss1*100, "loss-pct-1conf")
}

// BenchmarkAblationReputation regenerates the §4.4 comparison: the
// reputation baseline's payment loss rate (BcWAN's is structurally 0).
func BenchmarkAblationReputation(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		cmp := experiments.RunReputationComparison(int64(i+1), 10, 0.3, 0.5, 5000, 100)
		loss = cmp.Reputation.LossRate
	}
	b.ReportMetric(loss*100, "reputation-loss-pct")
	b.ReportMetric(0, "bcwan-loss-pct")
}

// BenchmarkAblationBlockInterval regenerates the block-interval sweep
// (verification on): longer intervals mean fewer stalls.
func BenchmarkAblationBlockInterval(b *testing.B) {
	var short, long time.Duration
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(experiments.Fig6Config())
		cfg.Exchanges = 20
		results, err := experiments.SweepBlockInterval(cfg, []time.Duration{15 * time.Second, 60 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		short, long = results[0].Summary.Mean, results[1].Summary.Mean
	}
	b.ReportMetric(short.Seconds(), "s-mean-15s-interval")
	b.ReportMetric(long.Seconds(), "s-mean-60s-interval")
}

// BenchmarkAblationGatewayCount regenerates the gateway-count sweep: the
// P2P design keeps latency flat as the federation grows.
func BenchmarkAblationGatewayCount(b *testing.B) {
	var small, large time.Duration
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(experiments.Fig5Config())
		cfg.Exchanges = 20
		results, err := experiments.SweepGateways(cfg, []int{2, 8})
		if err != nil {
			b.Fatal(err)
		}
		small, large = results[0].Summary.Mean, results[1].Summary.Mean
	}
	b.ReportMetric(small.Seconds(), "s-mean-2gw")
	b.ReportMetric(large.Seconds(), "s-mean-8gw")
}

// BenchmarkAblationSpreadingFactor regenerates the SF sweep: SF8 roughly
// doubles airtime over SF7; SF9+ cannot carry the 148-byte payload.
func BenchmarkAblationSpreadingFactor(b *testing.B) {
	var sf7, sf8 time.Duration
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(experiments.Fig5Config())
		cfg.Exchanges = 20
		results, err := experiments.SweepSpreadingFactor(cfg, []lora.SpreadingFactor{lora.SF7, lora.SF8})
		if err != nil {
			b.Fatal(err)
		}
		sf7, sf8 = results[0].Summary.Mean, results[1].Summary.Mean
	}
	b.ReportMetric(sf7.Seconds(), "s-mean-SF7")
	b.ReportMetric(sf8.Seconds(), "s-mean-SF8")
}

// BenchmarkLegacyBaseline regenerates the centralized Fig. 1 latency the
// discussion (§6) compares against: BcWAN's overhead stays "a few
// seconds" over the trusted architecture.
func BenchmarkLegacyBaseline(b *testing.B) {
	var legacy experiments.LatencyStats
	for i := 0; i < b.N; i++ {
		stats, err := experiments.LegacyLatency(benchConfig(experiments.Fig5Config()), 1000)
		if err != nil {
			b.Fatal(err)
		}
		legacy = stats
	}
	b.ReportMetric(legacy.Mean.Seconds(), "s-mean-legacy")
}

// BenchmarkBlockConnect regenerates the validation-pipeline replay:
// block-connect throughput (txs/sec) with a cold signature cache and on
// the warm mempool-primed path, on a verifier as wide as GOMAXPROCS (run
// with -cpu 1,2,4 to see the pool's speedup).
func BenchmarkBlockConnect(b *testing.B) {
	cfg := experiments.BlockConnectConfig{Blocks: 4, TxsPerBlock: 12}
	var doc *experiments.BlockConnectDoc
	for i := 0; i < b.N; i++ {
		var err error
		doc, err = experiments.RunBlockConnect(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range doc.Results {
		name := "txs-per-sec-cold"
		if r.Warm {
			name = "txs-per-sec-warm"
		}
		b.ReportMetric(r.TxsPerSec, name)
	}
}
