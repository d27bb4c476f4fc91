// Package wallet builds and signs BcWAN blockchain transactions: plain
// P2PKH payments, OP_RETURN data publishes (the gateway IP directory),
// and the three fair-exchange transactions — the Listing 1 key-release
// payment, the gateway's claim, and the buyer's time-locked refund.
package wallet

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/script"
)

// Wallet owns an ECDSA identity and assembles transactions against a UTXO
// view.
type Wallet struct {
	key    *bccrypto.ECKey
	random io.Reader
}

// Wallet errors.
var (
	// ErrInsufficientFunds reports a balance below the requested spend.
	ErrInsufficientFunds = errors.New("wallet: insufficient funds")
)

// New creates a wallet with a fresh keypair.
func New(random io.Reader) (*Wallet, error) {
	key, err := bccrypto.GenerateECKey(random)
	if err != nil {
		return nil, fmt.Errorf("wallet: %w", err)
	}
	return &Wallet{key: key, random: random}, nil
}

// FromKey wraps an existing keypair.
func FromKey(key *bccrypto.ECKey, random io.Reader) *Wallet {
	return &Wallet{key: key, random: random}
}

// Address returns the wallet's base58check address — the blockchain
// address @R used by sensors to name their recipient.
func (w *Wallet) Address() string { return w.key.Address() }

// PubKeyHash returns the wallet's HASH160.
func (w *Wallet) PubKeyHash() [script.HashLen]byte { return w.key.PubKeyHash() }

// PublicBytes returns the serialized public key.
func (w *Wallet) PublicBytes() []byte { return w.key.PublicBytes() }

// Key exposes the underlying keypair (for block mining).
func (w *Wallet) Key() *bccrypto.ECKey { return w.key }

// Balance sums the wallet's spendable P2PKH outputs.
func (w *Wallet) Balance(utxo *chain.UTXOSet) uint64 {
	return utxo.BalanceOf(w.PubKeyHash())
}

// selectCoins picks outpoints worth at least target, deterministically
// (sorted by outpoint) for reproducible simulations.
func (w *Wallet) selectCoins(utxo *chain.UTXOSet, target uint64) ([]chain.OutPoint, uint64, error) {
	candidates := utxo.FindByPubKeyHash(w.PubKeyHash())
	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		for k := range a.TxID {
			if a.TxID[k] != b.TxID[k] {
				return a.TxID[k] < b.TxID[k]
			}
		}
		return a.Index < b.Index
	})
	var picked []chain.OutPoint
	var total uint64
	for _, op := range candidates {
		entry, ok := utxo.Get(op)
		if !ok {
			continue
		}
		picked = append(picked, op)
		total += entry.Out.Value
		if total >= target {
			return picked, total, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: have %d, need %d", ErrInsufficientFunds, total, target)
}

// buildSpend assembles a transaction paying the given outputs from the
// wallet's coins, adding a change output when needed, and signs every
// input.
func (w *Wallet) buildSpend(utxo *chain.UTXOSet, outputs []chain.TxOut, fee uint64) (*chain.Tx, error) {
	var outTotal uint64
	for _, o := range outputs {
		outTotal += o.Value
	}
	ins, inTotal, err := w.selectCoins(utxo, outTotal+fee)
	if err != nil {
		return nil, err
	}
	tx := &chain.Tx{Version: 1, Outputs: outputs}
	for _, op := range ins {
		tx.Inputs = append(tx.Inputs, chain.TxIn{Prev: op})
	}
	if change := inTotal - outTotal - fee; change > 0 {
		tx.Outputs = append(tx.Outputs, chain.TxOut{
			Value: change,
			Lock:  script.PayToPubKeyHash(w.PubKeyHash()),
		})
	}
	if err := w.SignP2PKHInputs(tx, utxo); err != nil {
		return nil, err
	}
	return tx, nil
}

// SignP2PKHInputs signs every input of tx, assuming each spends a P2PKH
// output present in utxo.
func (w *Wallet) SignP2PKHInputs(tx *chain.Tx, utxo *chain.UTXOSet) error {
	for i, in := range tx.Inputs {
		entry, ok := utxo.Get(in.Prev)
		if !ok {
			return fmt.Errorf("wallet: input %d: %w", i, chain.ErrMissingUTXO)
		}
		digest := tx.SigHash(i, entry.Out.Lock)
		sig, err := w.key.SignDigest(w.random, digest[:])
		if err != nil {
			return fmt.Errorf("wallet: sign input %d: %w", i, err)
		}
		tx.Inputs[i].Unlock = script.UnlockP2PKH(sig, w.PublicBytes())
	}
	return nil
}

// BuildPayment pays amount to a pubkey hash.
func (w *Wallet) BuildPayment(utxo *chain.UTXOSet, to [script.HashLen]byte, amount, fee uint64) (*chain.Tx, error) {
	return w.buildSpend(utxo, []chain.TxOut{{Value: amount, Lock: script.PayToPubKeyHash(to)}}, fee)
}

// BuildDataPublish embeds data in an OP_RETURN output (zero value). BcWAN
// recipients use it to broadcast their IP binding (§4.3).
func (w *Wallet) BuildDataPublish(utxo *chain.UTXOSet, data []byte, fee uint64) (*chain.Tx, error) {
	return w.buildSpend(utxo, []chain.TxOut{{Value: 0, Lock: script.NullData(data)}}, fee)
}

// BuildKeyReleasePayment creates the Fig. 3 step 9 payment: an output of
// the given amount locked by the Listing 1 script.
func (w *Wallet) BuildKeyReleasePayment(utxo *chain.UTXOSet, params script.KeyReleaseParams, amount, fee uint64) (*chain.Tx, error) {
	return w.buildSpend(utxo, []chain.TxOut{{Value: amount, Lock: script.KeyRelease(params)}}, fee)
}

// BuildClaim spends a key-release output through the claim path,
// publishing the ephemeral RSA private key on-chain (Fig. 3 step 10). The
// spent value, minus fee, pays the wallet itself.
func (w *Wallet) BuildClaim(prev chain.OutPoint, prevOut chain.TxOut, rsaPriv *bccrypto.RSA512PrivateKey, fee uint64) (*chain.Tx, error) {
	if prevOut.Value < fee {
		return nil, fmt.Errorf("%w: output %d below fee %d", ErrInsufficientFunds, prevOut.Value, fee)
	}
	tx := &chain.Tx{
		Version: 1,
		Inputs:  []chain.TxIn{{Prev: prev}},
		Outputs: []chain.TxOut{{
			Value: prevOut.Value - fee,
			Lock:  script.PayToPubKeyHash(w.PubKeyHash()),
		}},
	}
	digest := tx.SigHash(0, prevOut.Lock)
	sig, err := w.key.SignDigest(w.random, digest[:])
	if err != nil {
		return nil, fmt.Errorf("wallet: sign claim: %w", err)
	}
	tx.Inputs[0].Unlock = script.UnlockKeyReleaseClaim(
		sig, w.PublicBytes(), bccrypto.MarshalRSA512PrivateKey(rsaPriv))
	return tx, nil
}

// BuildChannelFunding locks capacity into a payment-channel output (the
// channel's on-chain anchor). The wallet must be the channel funder: its
// coins pay for the output and its hash is the refund destination.
func (w *Wallet) BuildChannelFunding(utxo *chain.UTXOSet, params script.ChannelParams, capacity, fee uint64) (*chain.Tx, error) {
	return w.buildSpend(utxo, []chain.TxOut{{Value: capacity, Lock: script.Channel(params)}}, fee)
}

// SignChannelDigest signs a channel commitment digest (a spending
// transaction's SigHash against the funding script) with the wallet key.
// Both channel parties contribute one such signature to the 2-of-2 close
// path.
func (w *Wallet) SignChannelDigest(digest [32]byte) ([]byte, error) {
	sig, err := w.key.SignDigest(w.random, digest[:])
	if err != nil {
		return nil, fmt.Errorf("wallet: sign channel digest: %w", err)
	}
	return sig, nil
}

// BuildRefund spends a key-release or channel funding output through its
// time-locked refund path, reclaiming the value minus fee to the wallet.
// The transaction carries LockTime = refundHeight, so the chain will not
// accept it before that height.
func (w *Wallet) BuildRefund(prev chain.OutPoint, prevOut chain.TxOut, refundHeight int64, fee uint64) (*chain.Tx, error) {
	if prevOut.Value < fee {
		return nil, fmt.Errorf("%w: output %d below fee %d", ErrInsufficientFunds, prevOut.Value, fee)
	}
	tx := &chain.Tx{
		Version:  1,
		LockTime: refundHeight,
		Inputs:   []chain.TxIn{{Prev: prev}},
		Outputs: []chain.TxOut{{
			Value: prevOut.Value - fee,
			Lock:  script.PayToPubKeyHash(w.PubKeyHash()),
		}},
	}
	digest := tx.SigHash(0, prevOut.Lock)
	sig, err := w.key.SignDigest(w.random, digest[:])
	if err != nil {
		return nil, fmt.Errorf("wallet: sign refund: %w", err)
	}
	tx.Inputs[0].Unlock = script.UnlockKeyReleaseRefund(sig, w.PublicBytes())
	return tx, nil
}
