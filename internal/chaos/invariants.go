package chaos

import (
	"bytes"
	"errors"
	"fmt"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/channel"
	"bcwan/internal/fairex"
	"bcwan/internal/reputation"
	"bcwan/internal/script"
)

// The four safety properties every scenario must preserve (§4.4 and §6
// of the paper): value conservation, convergence, fair-exchange
// atomicity, and no double spend across reorgs.

// Exchange records one fair exchange so the atomicity invariant can be
// checked against whatever the chain ended up recording.
type Exchange struct {
	// Delivery is the gateway's offer (carries ePk, Em and the
	// gateway's payment hash).
	Delivery *fairex.Delivery
	// Payment is the recipient's Listing 1 payment transaction.
	Payment *chain.Tx
	// SharedKey is the device↔recipient AES key K.
	SharedKey []byte
	// Plaintext is the sensor reading the exchange transported.
	Plaintext []byte
	// BuyerPubKeyHash is the refund destination (the recipient).
	BuyerPubKeyHash [20]byte
}

// PaymentID is the payment transaction id.
func (e *Exchange) PaymentID() chain.Hash { return e.Payment.ID() }

// CheckInvariants runs every invariant against the cluster's live
// nodes and the recorded exchanges, returning all violations joined.
func CheckInvariants(c *Cluster, exchanges []*Exchange) error {
	var errs []error
	if err := CheckConvergence(c); err != nil {
		errs = append(errs, err)
	}
	var ref *chain.Chain
	for _, p := range c.peers {
		if !p.Alive {
			continue
		}
		ch := p.Node.Chain()
		if ref == nil {
			ref = ch
		}
		if err := CheckConservation(ch, c.GenesisValue); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.Name, err))
		}
		if err := CheckNoDoubleSpend(ch); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.Name, err))
		}
		// The incremental state (undo-journal UTXO set, tx/spender
		// indexes) must match a from-genesis replay exactly — the chain's
		// own O(n) cross-check of its O(depth) bookkeeping.
		if err := ch.CheckConsistency(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.Name, err))
		}
	}
	if ref != nil {
		for i, ex := range exchanges {
			if err := CheckAtomicity(ref, ex); err != nil {
				errs = append(errs, fmt.Errorf("exchange %d: %w", i, err))
			}
		}
	}
	return errors.Join(errs...)
}

// CheckConvergence asserts all live nodes agree on the best tip.
func CheckConvergence(c *Cluster) error {
	if c.Converged() {
		return nil
	}
	var tips []string
	for _, p := range c.peers {
		if p.Alive {
			t := p.Node.Chain().Tip()
			tips = append(tips, fmt.Sprintf("%s@%d=%s", p.Name, t.Header.Height, t.ID()))
		}
	}
	return fmt.Errorf("chaos: chains diverged: %v", tips)
}

// CheckConservation asserts no value was minted or burned outside the
// coinbase schedule: the spendable total must be exactly the genesis
// allocation plus one reward per mined block. (Fees move value into
// the coinbase rather than destroying it, so they cancel out.)
func CheckConservation(ch *chain.Chain, genesisValue uint64) error {
	var height int64
	var got uint64
	ch.ReadState(func(tip *chain.Block, utxo *chain.UTXOSet) {
		height, got = tip.Header.Height, utxo.TotalValue()
	})
	if want := genesisValue + ch.Params().CoinbaseReward*uint64(height); got != want {
		return fmt.Errorf("chaos: value not conserved at height %d: UTXO total %d, want %d",
			height, got, want)
	}
	return nil
}

// CheckNoDoubleSpend replays the best branch into a fresh UTXO set; a
// transaction spending a missing (already spent) output or recreating
// an existing one means the chain the node converged to contains a
// double spend. A pruned node has no bodies below its horizon, so the
// replay starts from the horizon state (itself cross-checked against
// the undo journals by Chain.CheckConsistency) instead of genesis.
func CheckNoDoubleSpend(ch *chain.Chain) error {
	utxo := chain.NewUTXOSet()
	start := int64(0)
	if base := ch.PruneBase(); base > 0 {
		u, err := ch.StateAt(base)
		if err != nil {
			return fmt.Errorf("chaos: double-spend check: %w", err)
		}
		utxo, start = u, base+1
	}
	for h := start; h <= ch.Height(); h++ {
		b, ok := ch.BlockAt(h)
		if !ok {
			return fmt.Errorf("chaos: best branch missing height %d", h)
		}
		for i, tx := range b.Txs {
			if err := utxo.ApplyTx(tx, h); err != nil {
				return fmt.Errorf("chaos: double-spend check: height %d tx %d (%s): %w",
					h, i, tx.ID(), err)
			}
		}
	}
	var want uint64
	ch.ReadState(func(_ *chain.Block, live *chain.UTXOSet) { want = live.TotalValue() })
	if got := utxo.TotalValue(); got != want {
		return fmt.Errorf("chaos: replayed UTXO total %d differs from node's %d", got, want)
	}
	return nil
}

// CheckAtomicity asserts the fair-exchange property on one exchange:
// the gateway is paid ⟺ the RSA-512 key is disclosed on-chain ⟺ the
// recipient can decrypt. Three terminal states are legal — unsettled
// (payment unspent: nobody paid, nothing disclosed), claimed (gateway
// paid AND key disclosed AND plaintext recoverable), refunded (buyer
// repaid, no key). Anything else is a violation.
func CheckAtomicity(ch *chain.Chain, ex *Exchange) error {
	op := chain.OutPoint{TxID: ex.PaymentID(), Index: 0}
	spender, _, spent := ch.FindSpender(op)
	if !spent {
		// Unsettled: safe (liveness is the scenario's business).
		return nil
	}
	if _, _, ok := ch.FindTx(ex.PaymentID()); !ok {
		return fmt.Errorf("chaos: atomicity: spender confirmed but payment %s is not", ex.PaymentID())
	}
	for _, in := range spender.Inputs {
		if in.Prev != op {
			continue
		}
		keyBytes, err := script.ExtractClaimedRSAKey(in.Unlock)
		if err != nil {
			return checkRefund(spender, ex)
		}
		return checkClaim(spender, ex, keyBytes)
	}
	return fmt.Errorf("chaos: atomicity: spender %s does not reference payment output", spender.ID())
}

// checkClaim verifies the claim arm: key disclosed ⇒ it is the offered
// ephemeral key, the ciphertext decrypts to the original reading, and
// the money went to the gateway.
func checkClaim(spender *chain.Tx, ex *Exchange, keyBytes []byte) error {
	eSk, err := bccrypto.UnmarshalRSA512PrivateKey(keyBytes)
	if err != nil {
		return fmt.Errorf("chaos: atomicity: disclosed key unparseable: %w", err)
	}
	ePk, err := bccrypto.UnmarshalRSA512PublicKey(ex.Delivery.EPk)
	if err != nil {
		return fmt.Errorf("chaos: atomicity: offered ePk unparseable: %w", err)
	}
	if !eSk.MatchesPublic(ePk) {
		return fmt.Errorf("chaos: atomicity: gateway paid but disclosed key does not match offered ePk")
	}
	frame, err := bccrypto.DecryptRSA512(eSk, ex.Delivery.Em)
	if err != nil {
		return fmt.Errorf("chaos: atomicity: gateway paid but RSA layer does not decrypt: %w", err)
	}
	plain, err := bccrypto.DecryptFrame(ex.SharedKey, frame)
	if err != nil {
		return fmt.Errorf("chaos: atomicity: gateway paid but AES layer does not decrypt: %w", err)
	}
	if !bytes.Equal(plain, ex.Plaintext) {
		return fmt.Errorf("chaos: atomicity: decrypted plaintext differs from the sensor reading")
	}
	if len(spender.Outputs) == 0 {
		return fmt.Errorf("chaos: atomicity: claim has no outputs")
	}
	hash, err := script.ExtractP2PKHHash(spender.Outputs[0].Lock)
	if err != nil {
		return fmt.Errorf("chaos: atomicity: claim output 0 is not P2PKH: %w", err)
	}
	if hash != ex.Delivery.GatewayPubKeyHash {
		return fmt.Errorf("chaos: atomicity: key disclosed but the claim pays %x, not the gateway", hash)
	}
	return nil
}

// CheckChannelLossBound asserts the bounded-loss property of an
// off-chain payment channel (DESIGN.md §14) after an arbitrary crash:
// the payee's countersigned balance may run ahead of the payer's acked
// prefix by at most ONE update worth at most maxDelta, and neither side
// may hold a balance the other never signed.
func CheckChannelLossBound(payer, payee channel.State, maxDelta uint64) error {
	if payer.ID != payee.ID {
		return fmt.Errorf("chaos: channel states %s and %s are different channels", payer.ID, payee.ID)
	}
	var errs []error
	if payee.Paid < payer.AckedPaid {
		errs = append(errs, fmt.Errorf("chaos: payee balance %d below the payer's acked %d — a countersigned update was lost",
			payee.Paid, payer.AckedPaid))
	} else if diff := payee.Paid - payer.AckedPaid; diff > maxDelta {
		errs = append(errs, fmt.Errorf("chaos: channel divergence %d exceeds one update delta %d", diff, maxDelta))
	}
	if payee.Version > payer.AckedVersion+1 {
		errs = append(errs, fmt.Errorf("chaos: payee at version %d with payer acked %d — more than one update in flight",
			payee.Version, payer.AckedVersion))
	}
	if payer.Paid < payee.Paid {
		errs = append(errs, fmt.Errorf("chaos: payee holds balance %d the payer only signed up to %d",
			payee.Paid, payer.Paid))
	}
	if payer.Capacity != payee.Capacity {
		errs = append(errs, fmt.Errorf("chaos: capacity disagreement: payer %d, payee %d", payer.Capacity, payee.Capacity))
	}
	if payer.Paid+payer.CloseFee > payer.Capacity {
		errs = append(errs, fmt.Errorf("chaos: payer signed %d + close fee %d past capacity %d",
			payer.Paid, payer.CloseFee, payer.Capacity))
	}
	return errors.Join(errs...)
}

// --- Byzantine invariants ---------------------------------------------
//
// The two properties the reputation defense must deliver against
// adversarial gateways (DESIGN.md §15): a victim never loses more than
// one in-flight payment to any single adversary before refusing it
// (bounded loss), and a persistent equivocator's score crosses the
// trust threshold and it stops earning within a bounded number of
// exchanges (eventual ejection).

// ExchangeAttempt records one attempted exchange with a gateway from
// the victim's point of view, in the order the attempts were made.
type ExchangeAttempt struct {
	// Gateway is the counterparty's reputation id.
	Gateway string
	// Paid is what the victim irrevocably committed to the gateway in
	// this attempt (claimed payment or countersigned channel delta).
	Paid uint64
	// Lost is the part of Paid that is unrecoverable (0 when a refund
	// script or an honest settlement made the victim whole).
	Lost uint64
	// Refused marks an attempt the victim rejected up front (untrusted
	// gateway or detected replay) — nothing was committed.
	Refused bool
	// Delivered marks a fully settled honest exchange.
	Delivered bool
}

// ByzantineLog accumulates the attempts of one scenario.
type ByzantineLog struct {
	Attempts []ExchangeAttempt
}

// Record appends one attempt.
func (l *ByzantineLog) Record(a ExchangeAttempt) { l.Attempts = append(l.Attempts, a) }

// CheckBoundedLossPerVictim asserts the bounded-loss invariant: for
// every gateway, the victim's total unrecoverable loss is at most
// maxLoss (one in-flight payment), and once the victim has refused a
// gateway it never commits to — or loses — anything to it again.
func CheckBoundedLossPerVictim(log *ByzantineLog, maxLoss uint64) error {
	var errs []error
	lost := make(map[string]uint64)
	refused := make(map[string]bool)
	for i, a := range log.Attempts {
		if refused[a.Gateway] && (a.Paid > 0 || a.Lost > 0) {
			errs = append(errs, fmt.Errorf(
				"chaos: bounded loss: attempt %d committed %d (lost %d) to %s AFTER refusing it",
				i, a.Paid, a.Lost, a.Gateway))
		}
		lost[a.Gateway] += a.Lost
		if lost[a.Gateway] > maxLoss {
			errs = append(errs, fmt.Errorf(
				"chaos: bounded loss: total loss to %s reached %d after attempt %d, bound is %d",
				a.Gateway, lost[a.Gateway], i, maxLoss))
		}
		if a.Refused {
			refused[a.Gateway] = true
		}
	}
	return errors.Join(errs...)
}

// CheckEventualEjection asserts the eventual-ejection invariant: every
// gateway that cost the victim anything has (a) a reputation score
// below the trust threshold, (b) at least one refused attempt on
// record, and (c) no more than maxExchanges attempts between its first
// loss and its first refusal — the window in which it could still earn.
func CheckEventualEjection(log *ByzantineLog, sys *reputation.System, maxExchanges int) error {
	var errs []error
	firstLoss := make(map[string]int)
	firstRefusal := make(map[string]int)
	for i, a := range log.Attempts {
		if a.Lost > 0 {
			if _, ok := firstLoss[a.Gateway]; !ok {
				firstLoss[a.Gateway] = i
			}
		}
		if a.Refused {
			if _, ok := firstRefusal[a.Gateway]; !ok {
				firstRefusal[a.Gateway] = i
			}
		}
	}
	for gw, lossIdx := range firstLoss {
		if score := sys.Score(gw); score >= sys.Threshold() {
			errs = append(errs, fmt.Errorf(
				"chaos: eventual ejection: %s cost the victim money but still scores %.2f (threshold %.2f)",
				gw, score, sys.Threshold()))
		}
		refIdx, ok := firstRefusal[gw]
		if !ok {
			errs = append(errs, fmt.Errorf(
				"chaos: eventual ejection: %s cost the victim money and was never refused", gw))
			continue
		}
		if refIdx > lossIdx && refIdx-lossIdx > maxExchanges {
			errs = append(errs, fmt.Errorf(
				"chaos: eventual ejection: %s kept earning for %d attempts after its first loss, bound is %d",
				gw, refIdx-lossIdx, maxExchanges))
		}
	}
	return errors.Join(errs...)
}

// CheckByzantineInvariants runs both adversarial invariants. A log with
// no losses passes vacuously — honest scenarios can call it too.
func CheckByzantineInvariants(log *ByzantineLog, sys *reputation.System, maxLoss uint64, maxExchanges int) error {
	return errors.Join(
		CheckBoundedLossPerVictim(log, maxLoss),
		CheckEventualEjection(log, sys, maxExchanges),
	)
}

// checkRefund verifies the refund arm: no key disclosed ⇒ the money
// went back to the buyer.
func checkRefund(spender *chain.Tx, ex *Exchange) error {
	if len(spender.Outputs) == 0 {
		return fmt.Errorf("chaos: atomicity: refund has no outputs")
	}
	hash, err := script.ExtractP2PKHHash(spender.Outputs[0].Lock)
	if err != nil {
		return fmt.Errorf("chaos: atomicity: refund output 0 is not P2PKH: %w", err)
	}
	if hash != ex.BuyerPubKeyHash {
		return fmt.Errorf("chaos: atomicity: payment spent without key disclosure and pays %x, not the buyer", hash)
	}
	return nil
}
