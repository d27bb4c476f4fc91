package experiments

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/fairex"
	"bcwan/internal/lora"
	"bcwan/internal/netsim"
	"bcwan/internal/reputation"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

// SweepBlockInterval reruns the latency experiment across Multichain's
// block-interval tunable (§5.1 notes the tunables "impact ... the overall
// performance"). Longer intervals mean fewer verification stalls and
// lower mean latency when verification is on.
func SweepBlockInterval(base Config, intervals []time.Duration) ([]*Result, error) {
	out := make([]*Result, 0, len(intervals))
	for _, iv := range intervals {
		cfg := base
		cfg.BlockInterval = iv
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("interval %v: %w", iv, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// SweepGateways reruns the latency experiment across deployment sizes:
// the P2P architecture should keep exchange latency flat as gateways are
// added (no central server to saturate).
func SweepGateways(base Config, gateways []int) ([]*Result, error) {
	out := make([]*Result, 0, len(gateways))
	for _, g := range gateways {
		cfg := base
		cfg.Gateways = g
		// Keep total exchanges constant for comparable statistics.
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("gateways %d: %w", g, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// SweepSpreadingFactor reruns the latency experiment across SF7–SF12:
// airtime grows ~2× per step, raising exchange latency and shrinking the
// duty-cycle budget (§5.2).
func SweepSpreadingFactor(base Config, sfs []lora.SpreadingFactor) ([]*Result, error) {
	out := make([]*Result, 0, len(sfs))
	for _, sf := range sfs {
		cfg := base
		cfg.SF = sf
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sf, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// SweepConfirmations reruns the latency experiment across the gateway's
// confirmation policy (§6): each required confirmation adds roughly one
// block interval to the exchange.
func SweepConfirmations(base Config, confs []int64) ([]*Result, error) {
	out := make([]*Result, 0, len(confs))
	for _, n := range confs {
		cfg := base
		cfg.WaitConfirmations = n
		if n > 0 {
			extra := time.Duration(n+2) * cfg.BlockInterval
			cfg.ExchangeTimeout += extra
			cfg.MeanInterArrival += extra
		}
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("confirmations %d: %w", n, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// DutyCycleBudget reproduces the §5.2 capacity table: the theoretical
// message budget per sensor per hour for each spreading factor at the
// paper's payload size (128 B + 4 B header).
type DutyCycleBudget struct {
	SF          lora.SpreadingFactor
	TimeOnAir   time.Duration
	MsgsPerHour float64
}

// BudgetTable computes the duty-cycle budget for all spreading factors.
// Payloads above an SF's EU868 cap yield a zero row (not transmittable in
// one frame).
func BudgetTable(payloadLen int, duty float64) ([]DutyCycleBudget, error) {
	phy := lora.DefaultPHY()
	var out []DutyCycleBudget
	for sf := lora.SF7; sf <= lora.SF12; sf++ {
		row := DutyCycleBudget{SF: sf}
		if payloadLen <= lora.MaxPayload(sf) {
			toa, err := lora.TimeOnAir(payloadLen, sf, phy)
			if err != nil {
				return nil, err
			}
			budget, err := lora.MaxMessagesPerHour(payloadLen, sf, duty, phy)
			if err != nil {
				return nil, err
			}
			row.TimeOnAir = toa
			row.MsgsPerHour = budget
		}
		out = append(out, row)
	}
	return out, nil
}

// DoubleSpendConfig parameterizes the §6 attack experiment.
type DoubleSpendConfig struct {
	Seed int64
	// Trials is the number of attacked exchanges.
	Trials int
	// WaitConfirmations is the gateway's policy under attack.
	WaitConfirmations int64
	// RaceWinProb is the probability the attacker's conflicting
	// transaction reaches the miner before the honest payment.
	RaceWinProb float64
	// Price per exchange.
	Price uint64
	// BlockInterval for the added-latency accounting.
	BlockInterval time.Duration
}

// DoubleSpendResult reports the attack outcome.
type DoubleSpendResult struct {
	Config DoubleSpendConfig
	// KeyRevealedUnpaid counts exchanges where the gateway disclosed
	// eSk but the payment never confirmed — its revenue loss.
	KeyRevealedUnpaid int
	// ExchangesSafe counts exchanges where the fair exchange held
	// (either paid, or key withheld).
	ExchangesSafe int
	// LossRate is KeyRevealedUnpaid / Trials.
	LossRate float64
	// AddedLatency is the confirmation-wait latency cost per exchange.
	AddedLatency time.Duration
}

// RunDoubleSpend plays the §6 attack on the real chain machinery: a
// malicious recipient pays, obtains eSk the moment the gateway claims
// against the unconfirmed payment, and races a conflicting transaction to
// the miner.
func RunDoubleSpend(cfg DoubleSpendConfig) (*DoubleSpendResult, error) {
	rng := newDeterministicRand(cfg.Seed)
	res := &DoubleSpendResult{Config: cfg}

	for trial := 0; trial < cfg.Trials; trial++ {
		lost, err := runDoubleSpendTrial(cfg, rng.Float64() < cfg.RaceWinProb)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", trial, err)
		}
		if lost {
			res.KeyRevealedUnpaid++
		} else {
			res.ExchangesSafe++
		}
	}
	res.LossRate = float64(res.KeyRevealedUnpaid) / float64(cfg.Trials)
	res.AddedLatency = time.Duration(cfg.WaitConfirmations) * cfg.BlockInterval
	return res, nil
}

// runDoubleSpendTrial runs one attacked exchange; it reports whether the
// gateway revealed the key without being paid.
func runDoubleSpendTrial(cfg DoubleSpendConfig, attackerWinsRace bool) (bool, error) {
	gwWallet, err := wallet.New(rand.Reader)
	if err != nil {
		return false, err
	}
	buyerWallet, err := wallet.New(rand.Reader)
	if err != nil {
		return false, err
	}
	minerWallet, err := wallet.New(rand.Reader)
	if err != nil {
		return false, err
	}
	params := chain.DefaultParams()
	params.BlockInterval = cfg.BlockInterval
	genesis := chain.GenesisBlock(map[[20]byte]uint64{buyerWallet.PubKeyHash(): cfg.Price * 10})
	c, err := chain.New(params, genesis)
	if err != nil {
		return false, err
	}
	c.AuthorizeMiner(minerWallet.PublicBytes())
	pool := chain.NewMempool()
	pool.UseVerifier(c.Verifier())
	miner := chain.NewMiner(minerWallet.Key(), c, pool, rand.Reader)
	ledger := &fairex.Node{Chain: c, Pool: pool}

	eKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		return false, err
	}
	krParams := script.KeyReleaseParams{
		RSAPubKey:         bccrypto.MarshalRSA512PublicKey(eKey.Public()),
		GatewayPubKeyHash: gwWallet.PubKeyHash(),
		RefundHeight:      c.Height() + 100,
		BuyerPubKeyHash:   buyerWallet.PubKeyHash(),
	}
	payment, err := buyerWallet.BuildKeyReleasePayment(ledger.Spendable(buyerWallet.PubKeyHash()), krParams, cfg.Price, 1)
	if err != nil {
		return false, err
	}
	if err := ledger.Submit(payment); err != nil {
		return false, err
	}

	// The attacker's conflicting transaction spends the same inputs back
	// to itself.
	doubleSpend := &chain.Tx{Version: 2}
	var inValue uint64
	// The confirmed set as it stands with the payment only pooled: the
	// attacker prices its conflicting spend from the same inputs.
	baseUTXO := c.UTXO()
	for _, in := range payment.Inputs {
		doubleSpend.Inputs = append(doubleSpend.Inputs, chain.TxIn{Prev: in.Prev})
		if e, ok := baseUTXO.Get(in.Prev); ok {
			inValue += e.Out.Value
		}
	}
	doubleSpend.Outputs = []chain.TxOut{{
		Value: inValue - 1,
		Lock:  script.PayToPubKeyHash(buyerWallet.PubKeyHash()),
	}}
	if err := buyerWallet.SignP2PKHInputs(doubleSpend, baseUTXO); err != nil {
		return false, err
	}

	now := simOrigin
	mine := func() error {
		now = now.Add(cfg.BlockInterval)
		_, err := miner.Mine(now)
		return err
	}

	revealed := false
	if cfg.WaitConfirmations == 0 {
		// The PoC behaviour: claim against the unconfirmed payment —
		// this publishes eSk immediately.
		claim, err := gwWallet.BuildClaim(
			chain.OutPoint{TxID: payment.ID(), Index: 0}, payment.Outputs[0], eKey, 1)
		if err != nil {
			return false, err
		}
		if err := ledger.Submit(claim); err != nil {
			return false, err
		}
		revealed = true
		if attackerWinsRace {
			// The conflicting tx reaches the miner first and evicts
			// both the payment and the now-orphaned claim.
			pool.ForceReplace(doubleSpend)
		}
	} else {
		if attackerWinsRace {
			pool.ForceReplace(doubleSpend)
		}
		// The gateway waits for confirmations before revealing.
		for i := int64(0); i < cfg.WaitConfirmations; i++ {
			if err := mine(); err != nil {
				return false, err
			}
		}
		if c.Confirmations(payment.ID()) >= cfg.WaitConfirmations {
			claim, err := gwWallet.BuildClaim(
				chain.OutPoint{TxID: payment.ID(), Index: 0}, payment.Outputs[0], eKey, 1)
			if err != nil {
				return false, err
			}
			if err := ledger.Submit(claim); err != nil {
				return false, err
			}
			revealed = true
		}
	}
	// Settle the chain.
	for i := 0; i < 3; i++ {
		if err := mine(); err != nil {
			return false, err
		}
	}
	// Once per trial, after the chain settled: confirmed balance only.
	paid := gwWallet.Balance(c.UTXO()) > 0
	return revealed && !paid, nil
}

// ReputationComparison quantifies §4.4: the reputation baseline loses a
// fraction of payments to cheaters, while the script-based fair exchange
// loses none (structurally — the claim path is the only way to learn
// eSk, and it pays the gateway atomically).
type ReputationComparison struct {
	Reputation reputation.SimResult
	// BcWANLossRate is zero by construction; included for the table.
	BcWANLossRate float64
}

// RunReputationComparison runs the Monte Carlo baseline.
func RunReputationComparison(seed int64, gateways int, cheaterFraction, cheatProb float64, rounds int, price uint64) ReputationComparison {
	return ReputationComparison{
		Reputation:    reputation.Simulate(reputation.DefaultConfig(), seed, gateways, cheaterFraction, cheatProb, rounds, price),
		BcWANLossRate: 0,
	}
}

// LegacyLatency estimates the centralized Fig. 1 baseline latency for one
// uplink: data-frame airtime plus two WAN legs (gateway → network server
// → application server) and the same daemon processing — no blockchain
// interaction at all. It uses the same latency model as the BcWAN runs so
// the comparison isolates the architecture.
func LegacyLatency(cfg Config, samples int) (LatencyStats, error) {
	wan := netsim.NewPlanetLab(cfg.Seed, 4)
	phy := lora.DefaultPHY()
	// Frame: 128 B payload + header, as the paper sizes it.
	toa, err := lora.TimeOnAir(132, cfg.SF, phy)
	if err != nil {
		return LatencyStats{}, err
	}
	lat := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		total := toa +
			cfg.DaemonProcessing + wan.Latency(0, 1) + // gateway → NS
			cfg.DaemonProcessing + wan.Latency(1, 2) + // NS → AS
			cfg.DaemonProcessing // AS decrypt/deliver
		lat = append(lat, total)
	}
	return Summarize(lat), nil
}

// newDeterministicRand returns a seeded math/rand source for attack
// trials.
func newDeterministicRand(seed int64) *mrand.Rand {
	return mrand.New(mrand.NewSource(seed))
}
