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
}

// DefaultConfig accepts the gateway default price.
func DefaultConfig() Config {
	return Config{MaxPrice: 100, RefundWindow: 100}
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
	// ErrExchangeNotFound reports a settlement of an exchange the
	// recipient holds no open record of.
	ErrExchangeNotFound = errors.New("recipient: no pending exchange for payment")
	// ErrUntrustedGateway reports a delivery refused because the
	// gateway's reputation is below the trust threshold.
	ErrUntrustedGateway = errors.New("recipient: gateway below trust threshold")
	// ErrReplayedDelivery reports a delivery whose ciphertext was
	// already bought once — a double-sell attempt.
	ErrReplayedDelivery = errors.New("recipient: delivery already settled (replay)")
	// ErrDeliveryInFlight reports a copy of a delivery whose exchange is
	// still open. Nothing is paid for it and nobody is charged: a
	// duplicating link delivers such copies honestly.
	ErrDeliveryInFlight = errors.New("recipient: delivery already in flight")
	// ErrRefundTooEarly reports a refund asked for before the chain
	// reached the payment's refund height.
	ErrRefundTooEarly = errors.New("recipient: refund height not reached")
)

// maxSettledMemory bounds the replay-detection window (settled
// exchanges remembered by ciphertext digest).
const maxSettledMemory = 4096

// refundSkew is the block a payment's refund height adds to the window,
// so a recipient one block behind the height the gateway made its offer
// at still writes a refund height fairex.CheckPayment accepts.
const refundSkew = 1

// txFee is the miner fee each payment and refund transaction pays.
const txFee = 1

// Exchange is the recipient's record of one delivery, from admission
// (Admit) through its payment (Pay, or a channel update) to its
// decryption (Open).
type Exchange struct {
	digest   [sha256.Size]byte // of the ciphertext Em
	delivery *fairex.Delivery
	shared   []byte    // the sensor's AES key
	payment  *chain.Tx // nil unless paid on-chain
	// refundHeight is the height from which the payment's refund path
	// opens; set with payment.
	refundHeight int64
}

// settledExchange stands in the table for every settled exchange: the
// replay memory keeps only the digest.
var settledExchange = &Exchange{}

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
	ledger *fairex.Node

	// payMu serializes spends from the wallet (pay and Spending):
	// Spendable → Build → Submit runs as one step, so a concurrent spend
	// sees the coins the previous one spent already claimed by the pool
	// and never picks them again.
	payMu sync.Mutex

	mu      sync.Mutex
	devices map[lora.DevEUI]DeviceInfo
	// exchanges holds one record per ciphertext digest: the open
	// exchange, or settledExchange once it settled. byPayment indexes
	// the open ones paid on-chain. settledRing evicts the oldest settled
	// digest once maxSettledMemory is reached.
	exchanges   map[[sha256.Size]byte]*Exchange
	byPayment   map[chain.Hash]*Exchange
	settledRing [][sha256.Size]byte
	settledHead int

	// rep, when set, gates deliveries on gateway trust and feeds exchange
	// outcomes back as reputation reports (PR 8 defense layer).
	rep *reputation.System

	// Stats aggregates outcomes.
	Stats Stats
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
func New(cfg Config, w *wallet.Wallet, ledger *fairex.Node) *Recipient {
	return &Recipient{
		cfg:       cfg,
		wallet:    w,
		ledger:    ledger,
		devices:   make(map[lora.DevEUI]DeviceInfo),
		exchanges: make(map[[sha256.Size]byte]*Exchange),
		byPayment: make(map[chain.Hash]*Exchange),
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
	x, err := r.Admit(d)
	if err != nil {
		return nil, err
	}
	return r.Pay(x)
}

// Admit performs Fig. 3 step 8 and opens the exchange's record: it
// checks the node's signature and the price, refuses a settled
// ciphertext as a replay (charging the gateway) and a copy of an open
// exchange as in flight (charging nobody), then refuses an untrusted
// gateway. The checks on the table and the insert are one step.
func (r *Recipient) Admit(d *fairex.Delivery) (*Exchange, error) {
	r.mu.Lock()
	info, known := r.devices[d.DevEUI]
	r.Stats.Deliveries++
	r.mu.Unlock()
	if !known {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSensor, d.DevEUI)
	}
	if err := fairex.VerifyOffer(info.NodePub, d); err != nil {
		r.bumpRejected()
		return nil, err
	}
	if d.Price > r.cfg.MaxPrice {
		r.bumpRejected()
		return nil, fmt.Errorf("%w: asked %d, max %d", fairex.ErrPriceTooHigh, d.Price, r.cfg.MaxPrice)
	}
	x := &Exchange{digest: sha256.Sum256(d.Em), delivery: d, shared: info.SharedKey}
	gw := reputation.IDFromHash(d.GatewayPubKeyHash)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch prev := r.exchanges[x.digest]; {
	case prev == settledExchange:
		r.Stats.ReplaysDetected++
		if r.rep != nil {
			r.rep.ReportReplay(gw)
		}
		return nil, fmt.Errorf("%w: exchange %d of %s", ErrReplayedDelivery, d.Exchange, d.DevEUI)
	case prev != nil:
		return nil, fmt.Errorf("%w: exchange %d of %s", ErrDeliveryInFlight, d.Exchange, d.DevEUI)
	case r.rep != nil && !r.rep.Trusted(gw):
		r.rep.ReportRefused(gw)
		r.Stats.RefusedUntrusted++
		return nil, fmt.Errorf("%w: %s (score %.2f < %.2f)", ErrUntrustedGateway, gw, r.rep.Score(gw), r.rep.Threshold())
	}
	r.exchanges[x.digest] = x
	return x, nil
}

// Pay performs Fig. 3 step 9 for an admitted exchange: it builds and
// submits the Listing 1 payment. A failed payment forgets the exchange.
func (r *Recipient) Pay(x *Exchange) (*chain.Tx, error) {
	d := x.delivery
	refundHeight := r.ledger.Height() + max(d.RefundWindow, r.cfg.RefundWindow) + refundSkew
	payment, err := r.pay(script.KeyReleaseParams{
		RSAPubKey:         d.EPk,
		GatewayPubKeyHash: d.GatewayPubKeyHash,
		RefundHeight:      refundHeight,
		BuyerPubKeyHash:   r.wallet.PubKeyHash(),
	}, d.Price)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.forgetLocked(x)
		return nil, err
	}
	x.payment, x.refundHeight = payment, refundHeight
	r.byPayment[payment.ID()] = x
	r.Stats.Payments++
	return payment, nil
}

// pay builds and submits one key-release payment under payMu.
func (r *Recipient) pay(params script.KeyReleaseParams, price uint64) (*chain.Tx, error) {
	r.payMu.Lock()
	defer r.payMu.Unlock()
	payment, err := r.wallet.BuildKeyReleasePayment(r.ledger.Spendable(r.wallet.PubKeyHash()), params, price, txFee)
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
// confirmed: the claim is the transaction spending the payment.
func (r *Recipient) SettleClaim(paymentID chain.Hash) (*Message, error) {
	claim, _, ok := r.ledger.FindSpender(chain.OutPoint{TxID: paymentID, Index: 0})
	if !ok {
		return nil, fairex.ErrNoClaim
	}
	return r.SettleClaimTx(paymentID, claim)
}

// SettleClaimTx completes the exchange from a claim transaction observed
// unconfirmed (gossiped or in the mempool) — the proof of concept's
// zero-confirmation mode, whose double-spend exposure §6 discusses.
func (r *Recipient) SettleClaimTx(paymentID chain.Hash, claim *chain.Tx) (*Message, error) {
	eSk, err := fairex.ClaimedKey(claim, paymentID)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	x := r.byPayment[paymentID]
	r.mu.Unlock()
	if x == nil {
		return nil, fmt.Errorf("%w: %s", ErrExchangeNotFound, paymentID)
	}
	return r.Open(x, eSk)
}

// Open completes an exchange with the ephemeral private key its payment
// bought — recovered from the claim, or disclosed against a channel
// update and verified before that update was acknowledged: it strips
// the RSA layer, then the AES layer, and settles the exchange into the
// replay memory. A failed decryption leaves the exchange open.
func (r *Recipient) Open(x *Exchange, eSk *bccrypto.RSA512PrivateKey) (*Message, error) {
	d := x.delivery
	frame, err := bccrypto.DecryptRSA512(eSk, d.Em)
	if err != nil {
		return nil, fmt.Errorf("recipient: rsa layer: %w", err)
	}
	plaintext, err := bccrypto.DecryptFrame(x.shared, frame)
	if err != nil {
		return nil, fmt.Errorf("recipient: aes layer: %w", err)
	}
	msg := &Message{DevEUI: d.DevEUI, Plaintext: plaintext}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.exchanges[x.digest] != x {
		return nil, fmt.Errorf("%w: exchange %d of %s already closed", ErrExchangeNotFound, d.Exchange, d.DevEUI)
	}
	r.forgetLocked(x)
	r.exchanges[x.digest] = settledExchange
	if len(r.settledRing) < maxSettledMemory {
		r.settledRing = append(r.settledRing, x.digest)
	} else {
		delete(r.exchanges, r.settledRing[r.settledHead])
		r.settledRing[r.settledHead] = x.digest
		r.settledHead = (r.settledHead + 1) % maxSettledMemory
	}
	r.Stats.Decryptions++
	if x.payment != nil {
		msg.PaymentID = x.payment.ID()
	} else {
		r.Stats.OffChainSettles++
	}
	if r.rep != nil {
		r.rep.ReportDelivered(reputation.IDFromHash(d.GatewayPubKeyHash))
	}
	return msg, nil
}

// forgetLocked drops an open exchange's record; a copy of its delivery
// is then admitted afresh. r.mu must be held.
func (r *Recipient) forgetLocked(x *Exchange) {
	if r.exchanges[x.digest] == x {
		delete(r.exchanges, x.digest)
	}
	if x.payment != nil {
		delete(r.byPayment, x.payment.ID())
	}
}

// Refund reclaims an expired, unclaimed payment through the Listing 1
// OP_ELSE path and forgets the exchange. Before the chain reaches the
// payment's refund height it fails with ErrRefundTooEarly, and builds
// and signs nothing.
func (r *Recipient) Refund(paymentID chain.Hash) (*chain.Tx, error) {
	r.mu.Lock()
	x := r.byPayment[paymentID]
	r.mu.Unlock()
	if x == nil {
		return nil, fmt.Errorf("%w: %s", ErrExchangeNotFound, paymentID)
	}
	if height := r.ledger.Height(); height < x.refundHeight {
		return nil, fmt.Errorf("%w: height %d < refund height %d", ErrRefundTooEarly, height, x.refundHeight)
	}
	refund, err := r.wallet.BuildRefund(
		chain.OutPoint{TxID: paymentID, Index: 0},
		x.payment.Outputs[0], x.refundHeight, txFee)
	if err != nil {
		return nil, fmt.Errorf("recipient: build refund: %w", err)
	}
	if err := r.ledger.Submit(refund); err != nil {
		return nil, fmt.Errorf("recipient: submit refund: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.forgetLocked(x)
	r.Stats.Refunds++
	// A refund means the gateway took the payment's escrow hostage and
	// never disclosed the key: the Listing 1 OP_ELSE path made the victim
	// whole (lost = 0), but the non-disclosure still decays the gateway's
	// score so persistent withholders get refused.
	if r.rep != nil {
		r.rep.ReportWithheld(reputation.IDFromHash(x.delivery.GatewayPubKeyHash), 0)
	}
	return refund, nil
}

// ReportNonDisclosure closes an exchange paid through a channel update
// whose gateway never disclosed a valid key (no refund script to fall
// back on), and charges the gateway with lost, the channel delta that
// cannot be recovered.
func (r *Recipient) ReportNonDisclosure(x *Exchange, lost uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.forgetLocked(x)
	if r.rep != nil {
		r.rep.ReportWithheld(reputation.IDFromHash(x.delivery.GatewayPubKeyHash), lost)
	}
}

// PendingPayments lists the exchanges awaiting a claim.
func (r *Recipient) PendingPayments() []chain.Hash {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]chain.Hash, 0, len(r.byPayment))
	for id := range r.byPayment {
		out = append(out, id)
	}
	return out
}

func (r *Recipient) bumpRejected() {
	r.mu.Lock()
	r.Stats.RejectedOffers++
	r.mu.Unlock()
}
