package reputation

import (
	"sync"
	"testing"

	"bcwan/internal/telemetry"
)

func TestHonestGatewayGainsReputation(t *testing.T) {
	s := New()
	before := s.Score("gw")
	if got := s.Exchange("gw", 100, false); got != OutcomeDelivered {
		t.Fatalf("outcome = %v", got)
	}
	if s.Score("gw") <= before {
		t.Fatal("score did not increase")
	}
	if s.Snapshot().PaymentsLost != 0 {
		t.Fatal("honest delivery recorded a loss")
	}
}

func TestCheatingLosesPaymentAndReputation(t *testing.T) {
	s := New()
	if got := s.Exchange("gw", 100, true); got != OutcomeCheated {
		t.Fatalf("outcome = %v", got)
	}
	if lost := s.Snapshot().PaymentsLost; lost != 100 {
		t.Fatalf("PaymentsLost = %d, want 100 (pay-first exchange)", lost)
	}
	if s.Score("gw") >= initialScore {
		t.Fatal("score did not drop")
	}
}

func TestRepeatOffenderEventuallyRefused(t *testing.T) {
	s := New()
	refused := false
	for i := 0; i < 10; i++ {
		if s.Exchange("gw", 100, true) == OutcomeRefused {
			refused = true
			break
		}
	}
	if !refused {
		t.Fatal("cheater never banished")
	}
	// Refusals stop further losses.
	before := s.Snapshot().PaymentsLost
	s.Exchange("gw", 100, true)
	if s.Snapshot().PaymentsLost != before {
		t.Fatal("refused exchange still lost payment")
	}
}

func TestUntrustedGatewayRefused(t *testing.T) {
	s := New()
	s.ReportWithheld("gw", 0) // one cheat: 1.0 - 0.6 is below the 0.5 threshold
	if got := s.Exchange("gw", 100, false); got != OutcomeRefused {
		t.Fatalf("outcome = %v, want refused", got)
	}
}

func TestReportsAdjustScoreAndStats(t *testing.T) {
	s := New()
	s.Instrument(telemetry.NewRegistry())
	s.ReportDelivered("gw")
	if got := s.Score("gw"); got <= initialScore || got > maxScore {
		t.Fatalf("score after delivery = %v", got)
	}
	s.ReportWithheld("gw", 100)
	s.ReportReplay("gw")
	s.ReportRefused("gw")
	if s.Trusted("gw") {
		t.Fatal("gateway still trusted after withhold + replay")
	}
	got := s.Snapshot()
	want := Stats{Delivered: 1, Cheated: 1, Refused: 1, Replays: 1, PaymentsLost: 100}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestConcurrentReportsRaceFree(t *testing.T) {
	s := New()
	s.Instrument(telemetry.NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := IDFromHash([20]byte{byte(w)})
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0:
					s.ReportDelivered(id)
				case 1:
					s.ReportWithheld(id, 1)
				case 2:
					s.ReportReplay(id)
				case 3:
					s.Exchange(id, 1, i%2 == 0)
				default:
					_ = s.Trusted(id)
					_ = s.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Snapshot(); got.Delivered == 0 || got.Cheated == 0 {
		t.Fatalf("stats lost updates: %+v", got)
	}
}

// TestCreditCapBoundsLossToOneCheat is the score-cap rationale: even an
// adversary that banks maximal honest credit first is ejected by its
// FIRST cheat, so a victim never pays a given adversary for more than
// one withheld delivery.
func TestCreditCapBoundsLossToOneCheat(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ { // bank as much credit as the system allows
		s.ReportDelivered("gw")
	}
	if got := s.Score("gw"); got > maxScore {
		t.Fatalf("score %v exceeds cap %v", got, maxScore)
	}
	s.ReportWithheld("gw", 100)
	if s.Trusted("gw") {
		t.Fatalf("score %v still trusted after one cheat from the cap", s.Score("gw"))
	}
	if lost := s.Snapshot().PaymentsLost; lost != 100 {
		t.Fatalf("PaymentsLost = %d, want exactly one payment", lost)
	}
}

func TestSimulateAllHonestLosesNothing(t *testing.T) {
	res := Simulate(1, 10, 0, 0, 2000, 100)
	if res.PaymentsLost != 0 || res.LossRate != 0 {
		t.Fatalf("loss = %d (%f)", res.PaymentsLost, res.LossRate)
	}
	if res.Delivered != 2000 {
		t.Fatalf("delivered = %d", res.Delivered)
	}
}

func TestSimulateCheatersCauseBoundedLoss(t *testing.T) {
	// The §4.4 claim: reputation reduces but does not eliminate loss.
	res := Simulate(42, 10, 0.3, 0.5, 5000, 100)
	if res.PaymentsLost == 0 {
		t.Fatal("cheaters caused no loss — reputation would equal fair exchange")
	}
	if res.LossRate >= 0.5 {
		t.Fatalf("loss rate %.2f implausibly high — banishment not working", res.LossRate)
	}
	if res.Refused == 0 {
		t.Fatal("no cheater was ever banished")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := Simulate(7, 10, 0.3, 0.5, 1000, 100)
	b := Simulate(7, 10, 0.3, 0.5, 1000, 100)
	if a != b {
		t.Fatal("same seed produced different results")
	}
}

func TestMoreAggressiveCheatingBanishedFaster(t *testing.T) {
	gentle := Simulate(3, 10, 0.3, 0.1, 5000, 100)
	brazen := Simulate(3, 10, 0.3, 1.0, 5000, 100)
	// A brazen cheater is caught quickly, so per-exchange loss rate
	// stays comparable or lower than sustained sneaky cheating at
	// scale; at minimum both must lose something and refusals must be
	// higher for brazen cheaters.
	if brazen.Refused <= gentle.Refused {
		t.Fatalf("brazen refusals %d ≤ gentle %d", brazen.Refused, gentle.Refused)
	}
}
