// Package reputation implements the reputation-based fair-exchange
// alternative the paper considers and rejects (§4.4): the recipient pays
// first, misbehaving gateways lose reputation, and recipients refuse to
// deal with gateways below a trust threshold. It "reduces the probability
// of misbehavior but does not eliminate the problem" — the ablation
// benchmark quantifies exactly that residual loss against BcWAN's
// script-enforced exchange.
//
// Since PR 8 the same scoring table also backs the live defense layer:
// recipients report non-disclosure and replayed deliveries against a
// gateway's score, and refuse to exchange with gateways below the
// threshold (the chaos Byzantine campaign exercises this end to end).
package reputation

import (
	"encoding/hex"
	"math/rand"
	"sync"

	"bcwan/internal/telemetry"
)

// Outcome classifies one exchange attempt.
type Outcome int

// Exchange outcomes.
const (
	// OutcomeDelivered: payment made, data delivered.
	OutcomeDelivered Outcome = 1 + iota
	// OutcomeCheated: payment made, data withheld.
	OutcomeCheated
	// OutcomeRefused: the recipient refused to pay an untrusted
	// gateway; no payment, no data.
	OutcomeRefused
)

// Scoring. New gateways get the benefit of the doubt, and credit is capped
// low enough that a single proven cheat ejects: without a cap a patient
// adversary banks honest deliveries and then cheats several times before
// crossing the threshold; with maxScore - cheatPenalty below
// trustThreshold (1.05 - 0.6 = 0.45 < 0.5), ONE proven cheat ejects from
// any reachable score, which is what makes the chaos bounded-loss
// invariant structural rather than probabilistic.
const (
	initialScore   = 1.0  // a new gateway's reputation
	deliverReward  = 0.1  // added on honest delivery
	cheatPenalty   = 0.6  // subtracted on a reported cheat or replay
	trustThreshold = 0.5  // the minimum score a recipient deals with
	maxScore       = 1.05 // the cap on accrued credit
)

// System is the recipients' shared reputation table. All methods are
// safe for concurrent use; the stats are only exposed through Snapshot
// so no caller can observe them without the lock.
type System struct {
	mu     sync.Mutex
	scores map[string]float64
	stats  Stats
	// metrics is set by Instrument before concurrent use; all uses are
	// nil-safe.
	metrics *repMetrics
}

// Stats counts exchange outcomes and losses.
type Stats struct {
	Delivered uint64
	Cheated   uint64
	Refused   uint64
	// Replays counts deliveries rejected because the same ciphertext was
	// already sold once.
	Replays uint64
	// PaymentsLost is the total value paid without delivery — the
	// quantity BcWAN's script reduces to zero.
	PaymentsLost uint64
}

// New creates a reputation system.
func New() *System {
	return &System{scores: make(map[string]float64)}
}

// IDFromHash derives the reputation identity of a gateway from its
// public-key hash (the @G that signs its claims and bindings).
func IDFromHash(hash [20]byte) string {
	return hex.EncodeToString(hash[:])
}

// Instrument registers report counters in reg. Call before concurrent
// use; a nil registry is a no-op.
func (s *System) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = newRepMetrics(reg)
}

// Snapshot returns a copy of the outcome counters.
func (s *System) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Score returns a gateway's current reputation.
func (s *System) Score(gatewayID string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scoreLocked(gatewayID)
}

func (s *System) scoreLocked(gatewayID string) float64 {
	if v, ok := s.scores[gatewayID]; ok {
		return v
	}
	return initialScore
}

// Threshold returns the trust threshold below which recipients refuse a
// gateway.
func (s *System) Threshold() float64 { return trustThreshold }

// Trusted reports whether a recipient would pay the gateway.
func (s *System) Trusted(gatewayID string) bool {
	return s.Score(gatewayID) >= trustThreshold
}

// ReportDelivered rewards a gateway for a completed exchange (the key
// was disclosed and the plaintext recovered).
func (s *System) ReportDelivered(gatewayID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rewardLocked(gatewayID)
	s.stats.Delivered++
	s.metrics.report("delivered")
}

// ReportWithheld penalizes a gateway that took a payment (or a channel
// delta) without disclosing the key. lost is the value actually lost —
// zero when the Listing 1 refund path made the victim whole, one update
// delta when a channel counterparty kept a countersigned balance.
func (s *System) ReportWithheld(gatewayID string, lost uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.penalizeLocked(gatewayID)
	s.stats.Cheated++
	s.stats.PaymentsLost += lost
	s.metrics.report("withheld")
}

// ReportReplay penalizes a gateway that re-delivered a message it
// already sold once (double-sell).
func (s *System) ReportReplay(gatewayID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.penalizeLocked(gatewayID)
	s.stats.Replays++
	s.metrics.report("replay")
}

// ReportRefused records that a recipient declined to deal with an
// untrusted gateway (no payment moved).
func (s *System) ReportRefused(gatewayID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Refused++
	s.metrics.refused()
}

func (s *System) rewardLocked(gatewayID string) {
	s.scores[gatewayID] = min(s.scoreLocked(gatewayID)+deliverReward, maxScore)
}

func (s *System) penalizeLocked(gatewayID string) {
	before := s.scoreLocked(gatewayID)
	after := before - cheatPenalty
	s.scores[gatewayID] = after
	if before >= trustThreshold && after < trustThreshold {
		s.metrics.ejected()
	}
}

// Exchange plays one pay-first exchange: the recipient checks trust, pays
// price, and the gateway delivers unless it cheats (per cheats). The
// reputation table is updated from the observed outcome.
func (s *System) Exchange(gatewayID string, price uint64, cheats bool) Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scoreLocked(gatewayID) < trustThreshold {
		s.stats.Refused++
		s.metrics.refused()
		return OutcomeRefused
	}
	if cheats {
		s.penalizeLocked(gatewayID)
		s.stats.Cheated++
		s.stats.PaymentsLost += price
		s.metrics.report("withheld")
		return OutcomeCheated
	}
	s.rewardLocked(gatewayID)
	s.stats.Delivered++
	s.metrics.report("delivered")
	return OutcomeDelivered
}

// SimResult summarizes a Monte Carlo run.
type SimResult struct {
	Exchanges    int
	Delivered    uint64
	Cheated      uint64
	Refused      uint64
	PaymentsLost uint64
	// LossRate is PaymentsLost / (total value offered).
	LossRate float64
}

// Simulate runs rounds of exchanges against a gateway population where a
// fraction of gateways cheat with the given probability. It returns the
// realized loss rate — nonzero for reputation, structurally zero for the
// BcWAN script exchange. All randomness comes from the caller's seed (a
// private rand.Source, never the global one), so runs replay exactly and
// stay data-race-free under concurrent Simulate calls.
func Simulate(seed int64, gateways int, cheaterFraction, cheatProb float64, rounds int, price uint64) SimResult {
	rng := rand.New(rand.NewSource(seed))
	sys := New()
	ids := make([]string, gateways)
	cheater := make([]bool, gateways)
	for i := range ids {
		ids[i] = gatewayID(i)
		cheater[i] = rng.Float64() < cheaterFraction
	}
	total := uint64(0)
	for r := 0; r < rounds; r++ {
		g := rng.Intn(gateways)
		cheats := cheater[g] && rng.Float64() < cheatProb
		if sys.Exchange(ids[g], price, cheats) != OutcomeRefused {
			total += price
		}
	}
	stats := sys.Snapshot()
	res := SimResult{
		Exchanges:    rounds,
		Delivered:    stats.Delivered,
		Cheated:      stats.Cheated,
		Refused:      stats.Refused,
		PaymentsLost: stats.PaymentsLost,
	}
	if total > 0 {
		res.LossRate = float64(res.PaymentsLost) / float64(total)
	}
	return res
}

func gatewayID(i int) string {
	return "gw-" + string(rune('A'+i%26)) + string(rune('0'+i/26))
}

// repMetrics counts reports; nil-safe so an uninstrumented system costs
// nothing.
type repMetrics struct {
	reports   map[string]*telemetry.Counter
	refusals  *telemetry.Counter
	ejections *telemetry.Counter
}

func newRepMetrics(reg *telemetry.Registry) *repMetrics {
	ns := reg.Namespace("reputation")
	m := &repMetrics{
		reports:   make(map[string]*telemetry.Counter),
		refusals:  ns.Counter("refusals_total", "Exchanges refused because the gateway was below the trust threshold."),
		ejections: ns.Counter("ejections_total", "Gateways whose score crossed below the trust threshold."),
	}
	for _, kind := range []string{"delivered", "withheld", "replay"} {
		m.reports[kind] = ns.Counter("reports_total",
			"Exchange outcome reports, by kind.", telemetry.L("kind", kind))
	}
	return m
}

func (m *repMetrics) report(kind string) {
	if m != nil {
		m.reports[kind].Inc()
	}
}

func (m *repMetrics) refused() {
	if m != nil {
		m.refusals.Inc()
	}
}

func (m *repMetrics) ejected() {
	if m != nil {
		m.ejections.Inc()
	}
}
