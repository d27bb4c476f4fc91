// Package fairex carries the shared vocabulary of BcWAN's fair exchange
// (§4.4): the delivery message a gateway sends a recipient, the
// ledger interface both sides watch, offer verification, and extraction of
// the ephemeral private key from a confirmed claim transaction.
package fairex

import (
	"bytes"
	"errors"
	"fmt"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/lora"
	"bcwan/internal/script"
)

// Delivery is the Fig. 3 step 7 message: the gateway forwards the doubly
// encrypted message (Em), the ephemeral public key (ePk) and the node's
// signature (Sig) to the recipient over TCP/IP — here one message on the
// p2p overlay — together with the terms of the exchange.
type Delivery struct {
	// DevEUI identifies the originating sensor, so the recipient can
	// select the shared key K and the node's public key Pk.
	DevEUI lora.DevEUI
	// Exchange is the key-request counter naming this exchange on the
	// gateway (the ephemeral pair is minted per request).
	Exchange uint32
	// Em is the double encryption of the message (64 bytes).
	Em []byte
	// EPk is the serialized ephemeral RSA-512 public key.
	EPk []byte
	// Sig is the node's RSA-512 signature over Em ‖ EPk.
	Sig []byte
	// GatewayPubKeyHash is the payment destination of the claim path.
	GatewayPubKeyHash [20]byte
	// Price is the amount (in chain units) the gateway asks for the
	// key disclosure ("fixed or negotiated with the gateway", step 9).
	Price uint64
	// RefundWindow is the number of blocks after which the buyer may
	// reclaim the payment (Listing 1 uses block_height+100).
	RefundWindow int64
	// GatewayPubKey, when present, is the gateway's EC public key and
	// signals that the gateway accepts off-chain settlement through a
	// payment channel funded against this key, at the overlay address
	// the delivery came from.
	GatewayPubKey []byte
}

// Ack is the recipient's answer: the payment transaction it broadcast,
// or — when the exchange settled off-chain — the channel update that
// paid for it.
type Ack struct {
	Accepted bool
	// PaymentTxID names the payment transaction, when the delivery
	// settled on-chain.
	PaymentTxID chain.Hash
	Reason      string
	// ChannelID names the channel whose commitment update settled this
	// delivery, when channel mode was used.
	ChannelID chain.Hash
}

// Fair-exchange errors.
var (
	// ErrBadOfferSignature reports a Delivery whose Sig does not verify
	// under the node's provisioned public key — authenticity (§4.4
	// property 3) fails.
	ErrBadOfferSignature = errors.New("fairex: offer signature invalid")
	// ErrPriceTooHigh reports a gateway asking more than the recipient
	// accepts.
	ErrPriceTooHigh = errors.New("fairex: price above acceptance threshold")
	// ErrNoClaim reports that no claim transaction spends the payment.
	ErrNoClaim = errors.New("fairex: claim not found")
	// ErrBadPayment reports a payment transaction that does not match
	// the offered terms.
	ErrBadPayment = errors.New("fairex: payment does not match offer")
)

// SignedBlob returns the byte string the node signs: Em ‖ ePk. Signing
// the ephemeral key too guarantees "that ePk was the genuine ephemeral
// public key used in the process" (§5.1).
func SignedBlob(em, ePk []byte) []byte {
	out := make([]byte, 0, len(em)+len(ePk))
	out = append(out, em...)
	out = append(out, ePk...)
	return out
}

// VerifyOffer checks the Delivery's authenticity against the node's
// provisioned RSA-512 public key (Fig. 3 step 8).
func VerifyOffer(nodePub *bccrypto.RSA512PublicKey, d *Delivery) error {
	if err := bccrypto.VerifyRSA512(nodePub, SignedBlob(d.Em, d.EPk), d.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadOfferSignature, err)
	}
	return nil
}

// Node is the view of the blockchain both exchange parties share: an
// in-process chain and mempool, where the paper's daemon reaches the same
// view over Multichain's JSON-RPC.
type Node struct {
	Chain *chain.Chain
	Pool  *chain.Mempool
	// OnSubmit, when set, is called after a successful Submit (e.g. to
	// gossip the transaction to peers).
	OnSubmit func(*chain.Tx)
}

// Height returns the best-branch height.
func (n *Node) Height() int64 { return n.Chain.Height() }

// UTXO returns a private copy of the confirmed set with every pooled
// transaction applied. It costs O(set) per call — reports, tests and the
// benchmark harness use it; a wallet building a payment asks Spendable
// for its own coins instead.
func (n *Node) UTXO() *chain.UTXOSet {
	view := n.Chain.UTXO()
	n.Pool.ExtendView(view, n.Chain.Height())
	return view
}

// Spendable returns the coins one pubkey-hash can spend — confirmed or
// created by a pooled transaction, and claimed by none — as a small
// private set for wallet.Build* to select from. It reads the chain's
// pubkey-hash index and the mempool's overlay under Chain.mu's read lock
// (Mempool.mu nested inside, the order Submit takes them in) and keeps
// nothing of either past the callback: the returned set is the caller's.
func (n *Node) Spendable(pubKeyHash [script.HashLen]byte) *chain.UTXOSet {
	var coins *chain.UTXOSet
	n.Chain.ReadState(func(tip *chain.Block, utxo *chain.UTXOSet) {
		coins = n.Pool.Spendable(pubKeyHash, utxo, tip.Header.Height)
	})
	return coins
}

// Submit validates a transaction into the mempool, then calls OnSubmit
// to gossip it. Admission validates against the chain's live UTXO set
// under its read lock — no clone — with pooled ancestors layered on
// inside Accept's copy-on-write overlay.
func (n *Node) Submit(tx *chain.Tx) error {
	var err error
	n.Chain.ReadState(func(tip *chain.Block, utxo *chain.UTXOSet) {
		err = n.Pool.Accept(tx, utxo, tip.Header.Height, n.Chain.Params())
	})
	if err != nil {
		return err
	}
	if n.OnSubmit != nil {
		n.OnSubmit(tx)
	}
	return nil
}

// FindTx locates a confirmed transaction.
func (n *Node) FindTx(id chain.Hash) (*chain.Tx, int64, bool) { return n.Chain.FindTx(id) }

// FindSpender locates the confirmed transaction spending an output.
func (n *Node) FindSpender(op chain.OutPoint) (*chain.Tx, int64, bool) {
	return n.Chain.FindSpender(op)
}

// Confirmations counts blocks confirming a transaction.
func (n *Node) Confirmations(id chain.Hash) int64 { return n.Chain.Confirmations(id) }

// PendingTx looks a transaction up in the mempool.
func (n *Node) PendingTx(id chain.Hash) (*chain.Tx, bool) { return n.Pool.Get(id) }

// Params exposes the chain parameters.
func (n *Node) Params() chain.Params { return n.Chain.Params() }

// CheckPayment verifies that a payment transaction honors the Delivery
// terms: output 0 locked by the Listing 1 script with the offered ePk,
// the gateway's hash, at least the price, and the agreed refund window
// measured from the height the offer was made at (with slack for blocks
// mined in between).
func CheckPayment(d *Delivery, payment *chain.Tx, offerHeight int64) error {
	if len(payment.Outputs) == 0 {
		return fmt.Errorf("%w: no outputs", ErrBadPayment)
	}
	out := payment.Outputs[0]
	params, err := script.ParseKeyRelease(out.Lock)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadPayment, err)
	}
	if !bytes.Equal(params.RSAPubKey, d.EPk) {
		return fmt.Errorf("%w: wrong ephemeral key", ErrBadPayment)
	}
	if params.GatewayPubKeyHash != d.GatewayPubKeyHash {
		return fmt.Errorf("%w: wrong gateway hash", ErrBadPayment)
	}
	if out.Value < d.Price {
		return fmt.Errorf("%w: pays %d, price %d", ErrBadPayment, out.Value, d.Price)
	}
	if params.RefundHeight < offerHeight+d.RefundWindow {
		return fmt.Errorf("%w: refund height %d too early (want ≥ %d)",
			ErrBadPayment, params.RefundHeight, offerHeight+d.RefundWindow)
	}
	return nil
}

// ClaimedKey returns the RSA-512 private key claim's unlocking script
// reveals for the payment's output 0, confirmed or not.
func ClaimedKey(claim *chain.Tx, paymentID chain.Hash) (*bccrypto.RSA512PrivateKey, error) {
	for _, in := range claim.Inputs {
		if in.Prev.TxID != paymentID || in.Prev.Index != 0 {
			continue
		}
		keyBytes, err := script.ExtractClaimedRSAKey(in.Unlock)
		if err != nil {
			// The spender is the refund, not a claim.
			return nil, fmt.Errorf("%w: spender is not a claim", ErrNoClaim)
		}
		key, err := bccrypto.UnmarshalRSA512PrivateKey(keyBytes)
		if err != nil {
			return nil, fmt.Errorf("fairex: revealed key malformed: %w", err)
		}
		return key, nil
	}
	return nil, ErrNoClaim
}

// ErrBadDisclosedKey reports an off-chain disclosed key that does not
// match the delivery's ephemeral public key.
var ErrBadDisclosedKey = errors.New("fairex: disclosed key does not match ePk")

// VerifyDisclosedKey checks that key bytes disclosed through a channel
// update really are the ephemeral private key matching the delivery's
// ePk — the off-chain analogue of extracting eSk from a claim
// transaction. Fair exchange holds because the recipient only
// acknowledges (and thereby finalizes) the channel update after this
// check passes.
func VerifyDisclosedKey(d *Delivery, keyBytes []byte) (*bccrypto.RSA512PrivateKey, error) {
	key, err := bccrypto.UnmarshalRSA512PrivateKey(keyBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDisclosedKey, err)
	}
	pub, err := bccrypto.UnmarshalRSA512PublicKey(d.EPk)
	if err != nil {
		return nil, fmt.Errorf("%w: bad ePk: %v", ErrBadDisclosedKey, err)
	}
	if !key.MatchesPublic(pub) {
		return nil, ErrBadDisclosedKey
	}
	return key, nil
}
