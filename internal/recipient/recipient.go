// Package recipient implements the BcWAN recipient (the home party of a
// roaming sensor): it verifies deliveries from foreign gateways, pays for
// them with the Listing 1 key-release script, watches the chain for the
// gateway's claim, and recovers the plaintext by stripping both
// encryption layers (Fig. 3 steps 8–9 plus the final decryption).
package recipient

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/fairex"
	"bcwan/internal/lora"
	"bcwan/internal/reputation"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

// Config tunes the recipient's exchange policy.
type Config struct {
	// MaxPrice is the highest delivery price the recipient accepts.
	MaxPrice uint64
	// RefundWindow is the refund lock the recipient writes into its
	// payments, in blocks.
	RefundWindow int64
	// PaymentFee is the fee attached to payment transactions.
	PaymentFee uint64
	// RefundFee is the fee attached to refund transactions.
	RefundFee uint64
}

// DefaultConfig accepts the gateway default price.
func DefaultConfig() Config {
	return Config{MaxPrice: 100, RefundWindow: 100, PaymentFee: 1, RefundFee: 1}
}

// DeviceInfo is the recipient-side provisioning for one sensor: the
// shared AES key K and the node's RSA-512 public key Pk.
type DeviceInfo struct {
	SharedKey []byte
	NodePub   *bccrypto.RSA512PublicKey
}

// Recipient errors.
var (
	// ErrUnknownSensor reports a delivery for a device the recipient
	// was never provisioned with.
	ErrUnknownSensor = errors.New("recipient: unknown device")
	// ErrExchangeNotFound reports a claim settlement for an unknown
	// payment.
	ErrExchangeNotFound = errors.New("recipient: no pending exchange for payment")
	// ErrUntrustedGateway reports a delivery refused because the
	// gateway's reputation is below the trust threshold.
	ErrUntrustedGateway = errors.New("recipient: gateway below trust threshold")
	// ErrReplayedDelivery reports a delivery whose ciphertext was
	// already bought once — a double-sell attempt.
	ErrReplayedDelivery = errors.New("recipient: delivery already settled (replay)")
)

// maxSettledMemory bounds the replay-detection window (digests of
// ciphertexts already settled).
const maxSettledMemory = 4096

// pendingPayment tracks an exchange between payment and claim.
type pendingPayment struct {
	delivery *fairex.Delivery
	payment  *chain.Tx
}

// Message is a fully decrypted sensor reading.
type Message struct {
	DevEUI    lora.DevEUI
	Plaintext []byte
	PaymentID chain.Hash
}

// Recipient is one home party.
type Recipient struct {
	cfg    Config
	wallet *wallet.Wallet
	ledger fairex.Ledger
	random io.Reader

	// payMu serializes spends from the wallet (pay and Spending):
	// Spendable → Build → Submit runs as one step, so a concurrent spend
	// sees the coins the previous one spent already claimed by the pool
	// and never picks them again.
	payMu sync.Mutex

	mu              sync.Mutex
	devices         map[lora.DevEUI]DeviceInfo
	pending         map[chain.Hash]*pendingPayment
	pendingOffchain map[offchainKey]*fairex.Delivery

	// rep, when set, gates deliveries on gateway trust and feeds exchange
	// outcomes back as reputation reports (PR 8 defense layer).
	rep *reputation.System
	// settled remembers digests of already-settled ciphertexts so a
	// gateway cannot sell the same message twice; settledRing evicts the
	// oldest digest once maxSettledMemory is reached.
	settled     map[[sha256.Size]byte]bool
	settledRing [][sha256.Size]byte
	settledHead int

	// Stats aggregates outcomes.
	Stats Stats
}

// offchainKey identifies an exchange settled through a channel update
// (no payment transaction exists to key on).
type offchainKey struct {
	eui     lora.DevEUI
	counter uint32
}

// Stats counts recipient outcomes.
type Stats struct {
	Deliveries     uint64
	RejectedOffers uint64
	Payments       uint64
	Decryptions    uint64
	Refunds        uint64
	// OffChainSettles counts exchanges settled through a payment-channel
	// update instead of an on-chain payment + claim pair.
	OffChainSettles uint64
	// RefusedUntrusted counts deliveries refused because the gateway's
	// reputation was below the trust threshold.
	RefusedUntrusted uint64
	// ReplaysDetected counts double-sell attempts rejected before any
	// payment moved.
	ReplaysDetected uint64
}

// New creates a recipient.
func New(cfg Config, w *wallet.Wallet, ledger fairex.Ledger, random io.Reader) *Recipient {
	return &Recipient{
		cfg:             cfg,
		wallet:          w,
		ledger:          ledger,
		random:          random,
		devices:         make(map[lora.DevEUI]DeviceInfo),
		pending:         make(map[chain.Hash]*pendingPayment),
		pendingOffchain: make(map[offchainKey]*fairex.Delivery),
		settled:         make(map[[sha256.Size]byte]bool),
	}
}

// UseReputation attaches a reputation system: deliveries from gateways
// below the trust threshold are refused, replayed ciphertexts are
// rejected and reported, and settlements/refunds feed outcome reports.
// Call before concurrent use; a nil system disables the gate.
func (r *Recipient) UseReputation(sys *reputation.System) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rep = sys
}

// admit runs the PR 8 defense gate over an offer that already passed the
// signature and price checks: replayed ciphertexts are rejected (and
// charged against the gateway), then untrusted gateways are refused.
func (r *Recipient) admit(d *fairex.Delivery) error {
	digest := sha256.Sum256(d.Em)
	gw := reputation.IDFromHash(d.GatewayPubKeyHash)
	r.mu.Lock()
	rep := r.rep
	replayed := r.settled[digest]
	if replayed {
		r.Stats.ReplaysDetected++
	}
	r.mu.Unlock()
	if replayed {
		if rep != nil {
			rep.ReportReplay(gw)
		}
		return fmt.Errorf("%w: exchange %d of %s", ErrReplayedDelivery, d.Exchange, d.DevEUI)
	}
	if rep != nil && !rep.Trusted(gw) {
		rep.ReportRefused(gw)
		r.mu.Lock()
		r.Stats.RefusedUntrusted++
		r.mu.Unlock()
		return fmt.Errorf("%w: %s (score %.2f < %.2f)", ErrUntrustedGateway, gw, rep.Score(gw), rep.Threshold())
	}
	return nil
}

// markSettled remembers a settled ciphertext for replay detection and
// credits the gateway.
func (r *Recipient) markSettled(d *fairex.Delivery) {
	digest := sha256.Sum256(d.Em)
	r.mu.Lock()
	if !r.settled[digest] {
		r.settled[digest] = true
		if len(r.settledRing) < maxSettledMemory {
			r.settledRing = append(r.settledRing, digest)
		} else {
			delete(r.settled, r.settledRing[r.settledHead])
			r.settledRing[r.settledHead] = digest
			r.settledHead = (r.settledHead + 1) % maxSettledMemory
		}
	}
	rep := r.rep
	r.mu.Unlock()
	if rep != nil {
		rep.ReportDelivered(reputation.IDFromHash(d.GatewayPubKeyHash))
	}
}

// Wallet returns the recipient's wallet.
func (r *Recipient) Wallet() *wallet.Wallet { return r.wallet }

// Provision registers a sensor's keys (the provisioning phase of §4.4).
func (r *Recipient) Provision(eui lora.DevEUI, info DeviceInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.devices[eui] = info
}

// HandleDelivery performs Fig. 3 steps 8–9: verify the signature, accept
// the terms, build the key-release payment, and submit it. It returns the
// payment transaction (whose ID the Ack carries back to the gateway).
func (r *Recipient) HandleDelivery(d *fairex.Delivery) (*chain.Tx, error) {
	r.mu.Lock()
	info, known := r.devices[d.DevEUI]
	r.Stats.Deliveries++
	r.mu.Unlock()
	if !known {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSensor, d.DevEUI)
	}
	// Step 8: authenticity and integrity via the node's signature.
	if err := fairex.VerifyOffer(info.NodePub, d); err != nil {
		r.bumpRejected()
		return nil, err
	}
	if d.Price > r.cfg.MaxPrice {
		r.bumpRejected()
		return nil, fmt.Errorf("%w: asked %d, max %d", fairex.ErrPriceTooHigh, d.Price, r.cfg.MaxPrice)
	}
	if err := r.admit(d); err != nil {
		return nil, err
	}

	// Step 9: the Listing 1 payment.
	window := d.RefundWindow
	if r.cfg.RefundWindow > window {
		window = r.cfg.RefundWindow
	}
	params := script.KeyReleaseParams{
		RSAPubKey:         d.EPk,
		GatewayPubKeyHash: d.GatewayPubKeyHash,
		RefundHeight:      r.ledger.Height() + window,
		BuyerPubKeyHash:   r.wallet.PubKeyHash(),
	}
	payment, err := r.pay(params, d.Price)
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	r.pending[payment.ID()] = &pendingPayment{delivery: d, payment: payment}
	r.Stats.Payments++
	r.mu.Unlock()
	return payment, nil
}

// pay builds and submits one key-release payment under payMu.
func (r *Recipient) pay(params script.KeyReleaseParams, price uint64) (*chain.Tx, error) {
	r.payMu.Lock()
	defer r.payMu.Unlock()
	payment, err := r.wallet.BuildKeyReleasePayment(r.ledger.Spendable(r.wallet.PubKeyHash()), params, price, r.cfg.PaymentFee)
	if err != nil {
		return nil, fmt.Errorf("recipient: build payment: %w", err)
	}
	if err := r.ledger.Submit(payment); err != nil {
		return nil, fmt.Errorf("recipient: submit payment: %w", err)
	}
	return payment, nil
}

// Spending runs fn under the lock key-release payments are built under,
// for any other transaction funded from the recipient's wallet (a
// channel's funding, a directory binding): fn's Spendable → Build →
// Submit then never picks a coin a concurrent payment is spending.
func (r *Recipient) Spending(fn func() error) error {
	r.payMu.Lock()
	defer r.payMu.Unlock()
	return fn()
}

// SettleClaim completes the exchange once the gateway's claim is
// confirmed: extract eSk from the claim's unlocking script, strip the
// RSA layer, then the AES layer, and return the plaintext.
func (r *Recipient) SettleClaim(paymentID chain.Hash) (*Message, error) {
	eSk, err := fairex.ExtractKeyFromClaim(r.ledger, paymentID)
	if err != nil {
		return nil, err
	}
	return r.settle(paymentID, eSk)
}

// SettleClaimTx completes the exchange from a claim transaction observed
// unconfirmed (gossiped or in the mempool) — the proof of concept's
// zero-confirmation mode, whose double-spend exposure §6 discusses.
func (r *Recipient) SettleClaimTx(paymentID chain.Hash, claim *chain.Tx) (*Message, error) {
	for _, in := range claim.Inputs {
		if in.Prev.TxID != paymentID || in.Prev.Index != 0 {
			continue
		}
		keyBytes, err := script.ExtractClaimedRSAKey(in.Unlock)
		if err != nil {
			return nil, fmt.Errorf("recipient: claim unlock: %w", err)
		}
		eSk, err := bccrypto.UnmarshalRSA512PrivateKey(keyBytes)
		if err != nil {
			return nil, fmt.Errorf("recipient: revealed key: %w", err)
		}
		return r.settle(paymentID, eSk)
	}
	return nil, fairex.ErrNoClaim
}

func (r *Recipient) settle(paymentID chain.Hash, eSk *bccrypto.RSA512PrivateKey) (*Message, error) {
	r.mu.Lock()
	pend, ok := r.pending[paymentID]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExchangeNotFound, paymentID)
	}
	info := r.devices[pend.delivery.DevEUI]
	r.mu.Unlock()

	frame, err := bccrypto.DecryptRSA512(eSk, pend.delivery.Em)
	if err != nil {
		return nil, fmt.Errorf("recipient: rsa layer: %w", err)
	}
	plaintext, err := bccrypto.DecryptFrame(info.SharedKey, frame)
	if err != nil {
		return nil, fmt.Errorf("recipient: aes layer: %w", err)
	}
	r.mu.Lock()
	delete(r.pending, paymentID)
	r.Stats.Decryptions++
	r.mu.Unlock()
	r.markSettled(pend.delivery)
	return &Message{
		DevEUI:    pend.delivery.DevEUI,
		Plaintext: plaintext,
		PaymentID: paymentID,
	}, nil
}

// AcceptDeliveryOffChain performs the channel-mode variant of Fig. 3
// steps 8–9: it verifies the offer signature and price exactly like
// HandleDelivery, but instead of broadcasting an on-chain payment it
// registers the exchange for settlement through a channel update. The
// caller then streams the update and settles with SettleOffChain once the
// key is disclosed.
func (r *Recipient) AcceptDeliveryOffChain(d *fairex.Delivery) error {
	r.mu.Lock()
	info, known := r.devices[d.DevEUI]
	r.Stats.Deliveries++
	r.mu.Unlock()
	if !known {
		return fmt.Errorf("%w: %s", ErrUnknownSensor, d.DevEUI)
	}
	if err := fairex.VerifyOffer(info.NodePub, d); err != nil {
		r.bumpRejected()
		return err
	}
	if d.Price > r.cfg.MaxPrice {
		r.bumpRejected()
		return fmt.Errorf("%w: asked %d, max %d", fairex.ErrPriceTooHigh, d.Price, r.cfg.MaxPrice)
	}
	if err := r.admit(d); err != nil {
		return err
	}
	r.mu.Lock()
	r.pendingOffchain[offchainKey{eui: d.DevEUI, counter: d.Exchange}] = d
	r.mu.Unlock()
	return nil
}

// SettleOffChain completes a channel-mode exchange: verify that the
// disclosed key bytes match the delivery's ePk, strip both encryption
// layers, and return the plaintext. Called with the key carried by the
// gateway's channel update acknowledgement.
func (r *Recipient) SettleOffChain(devEUI lora.DevEUI, exchange uint32, keyBytes []byte) (*Message, error) {
	ok := offchainKey{eui: devEUI, counter: exchange}
	r.mu.Lock()
	d, found := r.pendingOffchain[ok]
	info := r.devices[devEUI]
	r.mu.Unlock()
	if !found {
		return nil, fmt.Errorf("%w: %s (exchange %d)", ErrExchangeNotFound, devEUI, exchange)
	}
	eSk, err := fairex.VerifyDisclosedKey(d, keyBytes)
	if err != nil {
		return nil, err
	}
	frame, err := bccrypto.DecryptRSA512(eSk, d.Em)
	if err != nil {
		return nil, fmt.Errorf("recipient: rsa layer: %w", err)
	}
	plaintext, err := bccrypto.DecryptFrame(info.SharedKey, frame)
	if err != nil {
		return nil, fmt.Errorf("recipient: aes layer: %w", err)
	}
	r.mu.Lock()
	delete(r.pendingOffchain, ok)
	r.Stats.Decryptions++
	r.Stats.OffChainSettles++
	r.mu.Unlock()
	r.markSettled(d)
	return &Message{DevEUI: devEUI, Plaintext: plaintext}, nil
}

// DropOffChain abandons a registered off-chain exchange (e.g. the channel
// path failed and the delivery is being re-settled on-chain).
func (r *Recipient) DropOffChain(devEUI lora.DevEUI, exchange uint32) {
	r.mu.Lock()
	delete(r.pendingOffchain, offchainKey{eui: devEUI, counter: exchange})
	r.mu.Unlock()
}

// Refund reclaims an expired, unclaimed payment through the Listing 1
// OP_ELSE path. It fails (at the ledger) before the refund height.
func (r *Recipient) Refund(paymentID chain.Hash) (*chain.Tx, error) {
	r.mu.Lock()
	pend, ok := r.pending[paymentID]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrExchangeNotFound, paymentID)
	}
	params, err := script.ParseKeyRelease(pend.payment.Outputs[0].Lock)
	if err != nil {
		return nil, fmt.Errorf("recipient: parse own payment: %w", err)
	}
	refund, err := r.wallet.BuildRefund(
		chain.OutPoint{TxID: paymentID, Index: 0},
		pend.payment.Outputs[0], params.RefundHeight, r.cfg.RefundFee)
	if err != nil {
		return nil, fmt.Errorf("recipient: build refund: %w", err)
	}
	if err := r.ledger.Submit(refund); err != nil {
		return nil, fmt.Errorf("recipient: submit refund: %w", err)
	}
	r.mu.Lock()
	delete(r.pending, paymentID)
	r.Stats.Refunds++
	rep := r.rep
	r.mu.Unlock()
	// A refund means the gateway took the payment's escrow hostage and
	// never disclosed the key: the Listing 1 OP_ELSE path made the victim
	// whole (lost = 0), but the non-disclosure still decays the gateway's
	// score so persistent withholders get refused.
	if rep != nil {
		rep.ReportWithheld(reputation.IDFromHash(pend.delivery.GatewayPubKeyHash), 0)
	}
	return refund, nil
}

// ReportNonDisclosure charges a gateway that kept an off-chain delivery's
// payment without ever disclosing the key (the channel settlement path,
// where there is no refund script to fall back on). lost is the channel
// delta that cannot be recovered.
func (r *Recipient) ReportNonDisclosure(gatewayPubKeyHash [20]byte, lost uint64) {
	r.mu.Lock()
	rep := r.rep
	r.mu.Unlock()
	if rep != nil {
		rep.ReportWithheld(reputation.IDFromHash(gatewayPubKeyHash), lost)
	}
}

// PendingPayments lists the exchanges awaiting a claim.
func (r *Recipient) PendingPayments() []chain.Hash {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]chain.Hash, 0, len(r.pending))
	for id := range r.pending {
		out = append(out, id)
	}
	return out
}

func (r *Recipient) bumpRejected() {
	r.mu.Lock()
	r.Stats.RejectedOffers++
	r.mu.Unlock()
}
