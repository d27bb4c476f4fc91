package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"bcwan/internal/lora"
)

// Scaled-down configs keep unit tests fast; the full paper-scale runs
// live in the bench harness.
func smallFig5() Config { return Fig5Config().scale(2, 5, 30) }
func smallFig6() Config { return Fig6Config().scale(2, 5, 30) }

func TestFig5RunCompletesAllExchanges(t *testing.T) {
	res, err := Run(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Failed != 30 {
		t.Fatalf("completed %d + failed %d != 30", res.Completed, res.Failed)
	}
	if res.Failed > 2 {
		t.Fatalf("failed = %d, want ≤ 2 without stalls", res.Failed)
	}
	// Without verification stalls the mean sits in the low seconds
	// (paper: 1.604 s).
	if res.Summary.Mean < 500*time.Millisecond || res.Summary.Mean > 5*time.Second {
		t.Fatalf("mean = %v, want low seconds", res.Summary.Mean)
	}
}

func TestFig6StallDominatesLatency(t *testing.T) {
	res5, err := Run(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	res6, err := Run(smallFig6())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: verification blows latency up by an order
	// of magnitude (1.604 s → 30.241 s ≈ 19×). Require ≥ 5× at this
	// small scale.
	ratio := float64(res6.Summary.Mean) / float64(res5.Summary.Mean)
	if ratio < 5 {
		t.Fatalf("stall ratio = %.1fx, want ≥ 5x (paper ≈ 19x)", ratio)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Mean != b.Summary.Mean || a.Completed != b.Completed {
		t.Fatalf("same seed, different results: %v vs %v", a.Summary, b.Summary)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := smallFig5()
	cfg.Gateways = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero gateways accepted")
	}
}

func TestBudgetTableMatchesPaperOrder(t *testing.T) {
	rows, err := BudgetTable(132, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 SFs", len(rows))
	}
	// SF7 budget ≈ paper's 183 (same order; see EXPERIMENTS.md).
	sf7 := rows[0]
	if sf7.SF != lora.SF7 || sf7.MsgsPerHour < 120 || sf7.MsgsPerHour > 220 {
		t.Fatalf("SF7 budget = %.1f, want same order as paper's 183", sf7.MsgsPerHour)
	}
	// Budgets fall monotonically with SF until the payload stops
	// fitting (SF10+ caps at 51 B < 132 B).
	if rows[1].MsgsPerHour >= rows[0].MsgsPerHour {
		t.Fatal("SF8 budget not below SF7")
	}
	for _, r := range rows[3:] {
		if r.MsgsPerHour != 0 {
			t.Fatalf("%s: 132 B payload should not fit", r.SF)
		}
	}
}

func TestSummarizeStats(t *testing.T) {
	lat := []time.Duration{
		1 * time.Second, 2 * time.Second, 3 * time.Second,
		4 * time.Second, 10 * time.Second,
	}
	s := Summarize(lat)
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Mean != 4*time.Second {
		t.Fatalf("mean = %v, want 4s", s.Mean)
	}
	if s.Median != 3*time.Second {
		t.Fatalf("median = %v, want 3s", s.Median)
	}
	if s.Min != time.Second || s.Max != 10*time.Second {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.StdDev <= 0 {
		t.Fatal("stddev not positive")
	}
	if Summarize(nil).Count != 0 {
		t.Fatal("empty sample not zero")
	}
}

func TestHistogram(t *testing.T) {
	lat := []time.Duration{
		100 * time.Millisecond, 150 * time.Millisecond, 1200 * time.Millisecond,
	}
	h := NewHistogram(lat, time.Second)
	if len(h.Counts) != 2 || h.Counts[0] != 2 || h.Counts[1] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	out := h.Render(10)
	if !strings.Contains(out, "#") {
		t.Fatalf("render = %q", out)
	}
	if NewHistogram(nil, time.Second).Render(10) == "" {
		t.Fatal("empty histogram renders nothing")
	}
}

func TestSweepConfirmationsAddsBlockLatency(t *testing.T) {
	base := smallFig5()
	base.Exchanges = 10
	base.SensorsPerGateway = 2
	results, err := SweepConfirmations(base, []int64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// One confirmation adds roughly a block interval (15 s) to the
	// mean.
	added := results[1].Summary.Mean - results[0].Summary.Mean
	if added < base.BlockInterval/2 {
		t.Fatalf("1 confirmation added only %v, want ≥ %v", added, base.BlockInterval/2)
	}
}

func TestSweepSpreadingFactorRaisesLatency(t *testing.T) {
	base := smallFig5()
	base.Exchanges = 10
	base.SensorsPerGateway = 2
	results, err := SweepSpreadingFactor(base, []lora.SpreadingFactor{lora.SF7, lora.SF8})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Summary.Mean <= results[0].Summary.Mean {
		t.Fatalf("SF8 mean %v not above SF7 mean %v",
			results[1].Summary.Mean, results[0].Summary.Mean)
	}
}

func TestSpreadingFactorAboveSF8CannotCarryExchange(t *testing.T) {
	// EU868 caps SF9 payloads at 115 B; the 148 B (Em‖Sig‖@R) data
	// payload does not fit in a single frame, so every exchange fails —
	// the protocol as specified is SF7/SF8-only without fragmentation.
	base := smallFig5()
	base.Exchanges = 4
	base.SensorsPerGateway = 2
	base.SF = lora.SF9
	base.ExchangeTimeout = 30 * time.Second
	base.MaxRetries = 0
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Fatalf("completed = %d, want 0 at SF9", res.Completed)
	}
	if res.Failed != 4 {
		t.Fatalf("failed = %d, want 4", res.Failed)
	}
}

func TestDoubleSpendZeroConfirmationsLoses(t *testing.T) {
	res, err := RunDoubleSpend(DoubleSpendConfig{
		Seed:              3,
		Trials:            6,
		WaitConfirmations: 0,
		RaceWinProb:       1.0, // attacker always wins the race
		Price:             100,
		BlockInterval:     15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LossRate != 1.0 {
		t.Fatalf("loss rate = %.2f, want 1.0 when the attacker always wins", res.LossRate)
	}
	if res.AddedLatency != 0 {
		t.Fatalf("added latency = %v, want 0", res.AddedLatency)
	}
}

func TestDoubleSpendConfirmationsProtect(t *testing.T) {
	res, err := RunDoubleSpend(DoubleSpendConfig{
		Seed:              3,
		Trials:            6,
		WaitConfirmations: 1,
		RaceWinProb:       1.0,
		Price:             100,
		BlockInterval:     15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LossRate != 0 {
		t.Fatalf("loss rate = %.2f, want 0 with 1 confirmation on a permissioned chain", res.LossRate)
	}
	if res.AddedLatency != 15*time.Second {
		t.Fatalf("added latency = %v, want one block interval", res.AddedLatency)
	}
}

func TestDoubleSpendHonestRecipientSafe(t *testing.T) {
	res, err := RunDoubleSpend(DoubleSpendConfig{
		Seed:              3,
		Trials:            4,
		WaitConfirmations: 0,
		RaceWinProb:       0, // attacker never wins
		Price:             100,
		BlockInterval:     15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LossRate != 0 {
		t.Fatalf("loss rate = %.2f, want 0 when the race is never won", res.LossRate)
	}
}

func TestReputationComparison(t *testing.T) {
	cmp := RunReputationComparison(5, 10, 0.3, 0.5, 3000, 100)
	if cmp.Reputation.LossRate <= 0 {
		t.Fatal("reputation baseline lost nothing — comparison vacuous")
	}
	if cmp.BcWANLossRate != 0 {
		t.Fatal("BcWAN loss rate must be structurally zero")
	}
}

func TestLegacyLatencyFasterThanBcWAN(t *testing.T) {
	cfg := smallFig5()
	legacy, err := LegacyLatency(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Mean >= res.Summary.Mean {
		t.Fatalf("legacy mean %v not below BcWAN mean %v — the decentralization overhead must be visible",
			legacy.Mean, res.Summary.Mean)
	}
	// But BcWAN stays "close to real-time" (§6): within low seconds.
	if res.Summary.Mean > 5*time.Second {
		t.Fatalf("BcWAN mean %v not near-real-time", res.Summary.Mean)
	}
}

func TestReportsRender(t *testing.T) {
	res, err := Run(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteFigureReport(&sb, "Fig. 5", PaperFig5MeanSeconds, res)
	rows, err := BudgetTable(132, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	WriteBudgetTable(&sb, rows, 132, 0.01)
	WriteSweep(&sb, "sweep", []string{"a"}, []*Result{res})
	WriteReputation(&sb, RunReputationComparison(1, 5, 0.2, 0.5, 500, 100))
	legacy, err := LegacyLatency(smallFig5(), 50)
	if err != nil {
		t.Fatal(err)
	}
	WriteLegacyComparison(&sb, legacy, res)
	out := sb.String()
	for _, want := range []string{"Fig. 5", "paper:", "msgs/sensor/h", "reputation:", "overhead factor"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestLabelHelpers(t *testing.T) {
	if got := SFLabels([]lora.SpreadingFactor{lora.SF7})[0]; got != "SF7" {
		t.Fatal(got)
	}
	if got := DurationLabels([]time.Duration{time.Second})[0]; got != "1s" {
		t.Fatal(got)
	}
	if got := IntLabels([]int{7})[0]; got != "7" {
		t.Fatal(got)
	}
	if got := Int64Labels([]int64{7})[0]; got != "7" {
		t.Fatal(got)
	}
}

func TestLatencyRatioFig6OverFig5SameOrderAsPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale calibration check")
	}
	res5, err := Run(Fig5Config().scale(3, 8, 120))
	if err != nil {
		t.Fatal(err)
	}
	res6, err := Run(Fig6Config().scale(3, 8, 120))
	if err != nil {
		t.Fatal(err)
	}
	paperRatio := PaperFig6MeanSeconds / PaperFig5MeanSeconds // ≈ 18.9
	ratio := float64(res6.Summary.Mean) / float64(res5.Summary.Mean)
	if ratio < paperRatio/3 || ratio > paperRatio*3 {
		t.Fatalf("ratio = %.1f, want within 3x of paper's %.1f", ratio, paperRatio)
	}
	// And the absolute means stay in the paper's regimes.
	if math.Abs(res5.Summary.Mean.Seconds()-PaperFig5MeanSeconds) > 1.5 {
		t.Fatalf("Fig5 mean %.2fs too far from paper's %.2fs",
			res5.Summary.Mean.Seconds(), PaperFig5MeanSeconds)
	}
	if res6.Summary.Mean.Seconds() < 10 || res6.Summary.Mean.Seconds() > 90 {
		t.Fatalf("Fig6 mean %.2fs outside the paper's regime (~30s)", res6.Summary.Mean.Seconds())
	}
}

func TestBlockConnectSweep(t *testing.T) {
	cfg := BlockConnectConfig{Blocks: 3, TxsPerBlock: 4}
	doc, err := RunBlockConnect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := doc.Results
	// Two cache states, ordered cold-first.
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for i, r := range results {
		if r.Blocks != cfg.Blocks || r.Txs != cfg.Blocks*cfg.TxsPerBlock {
			t.Fatalf("result %d connected %d blocks / %d txs, want %d / %d",
				i, r.Blocks, r.Txs, cfg.Blocks, cfg.Blocks*cfg.TxsPerBlock)
		}
		if wantWarm := i >= 1; r.Warm != wantWarm {
			t.Fatalf("result %d warm = %v, want %v", i, r.Warm, wantWarm)
		}
		if r.TxsPerSec <= 0 {
			t.Fatalf("result %d throughput not positive", i)
		}
		if r.SigCacheHitRate < 0 || r.SigCacheHitRate > 1 {
			t.Fatalf("result %d hit rate = %v", i, r.SigCacheHitRate)
		}
		// Warm replays verified every payment at admission, so block
		// connect must find those checks cached.
		if r.Warm && r.SigCacheHits == 0 {
			t.Fatalf("result %d warm replay had zero sig-cache hits", i)
		}
	}
	var buf strings.Builder
	WriteBlockConnect(&buf, doc)
	if !strings.Contains(buf.String(), "warm (mempool-primed)") {
		t.Fatalf("report missing warm rows:\n%s", buf.String())
	}

	got := reload(t, doc)
	if got.Host.NProc < 1 || got.Host.GOMAXPROCS < 1 || got.Host.GoVersion == "" {
		t.Fatalf("JSON doc host stamp = %+v", got.Host)
	}
	if got.Blocks != cfg.Blocks || len(got.Results) != len(results) {
		t.Fatalf("JSON doc = %d blocks / %d rows, want %d / %d",
			got.Blocks, len(got.Results), cfg.Blocks, len(results))
	}
	for i, row := range got.Results {
		if row.NsPerBlock <= 0 || row.BlocksPerSec <= 0 {
			t.Fatalf("JSON row %d has non-positive timing: %+v", i, row)
		}
	}
}

func TestBlockConnectRejectsBadConfig(t *testing.T) {
	if _, err := RunBlockConnect(BlockConnectConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}
