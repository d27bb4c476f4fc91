// Package channel implements off-chain payment channels between a
// recipient (payer/funder) and a gateway (payee), batching many RSA-512
// key-disclosure settlements into a single on-chain close.
//
// The protocol is a one-way (Spillman-style) channel:
//
//  1. The recipient funds an on-chain 2-of-2 output with a CLTV refund
//     path (script.Channel) — the funding transaction.
//  2. For every delivered message the recipient signs a new commitment
//     transaction spending the funding output: version n+1, cumulative
//     paid amount increased by the message price. The gateway verifies
//     the signature, countersigns, and only then discloses the ephemeral
//     RSA private key.
//  3. Close: the gateway broadcasts the latest fully-signed commitment
//     (unilateral and cooperative close share the same transaction — the
//     highest-version commitment is always the cooperative balance). The
//     payer keeps the signature pair of its highest *acknowledged*
//     commitment, so it too can close unilaterally — at the acked
//     balance — even while a newer update is in flight unacknowledged.
//  4. Abandonment: once the chain reaches the refund height the funder
//     may reclaim the capacity through the CLTV path — but only a
//     channel the gateway earned nothing on is refunded in full; with
//     any acknowledged balance the funder settles by broadcasting the
//     acked commitment instead. A live gateway still closes before the
//     refund height (the daemon does so a safety margin early).
//
// Loss is bounded by one update delta: the payer is at most one signed,
// unacknowledged update ahead of the payee, the payee never discloses
// a key before holding (and persisting) the covering signature, and —
// with SetPriceFloor — never for an update paying less than the
// delivery price.
package channel

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/script"
)

// Channel errors.
var (
	ErrClosed         = errors.New("channel: closed")
	ErrExhausted      = errors.New("channel: capacity exhausted")
	ErrBadUpdate      = errors.New("channel: bad update")
	ErrStaleVersion   = errors.New("channel: stale or replayed version")
	ErrBadSignature   = errors.New("channel: bad signature")
	ErrBadFunding     = errors.New("channel: bad funding transaction")
	ErrNoCommitment   = errors.New("channel: no signed commitment yet")
	ErrRefundTooEarly = errors.New("channel: refund height not reached")
	ErrUnknownChannel = errors.New("channel: unknown channel")
)

// Status is the lifecycle state of a channel endpoint.
type Status uint8

// Channel lifecycle states.
const (
	StatusOpen Status = iota + 1
	StatusClosing
	StatusClosed
	StatusRefunded
)

// String names the status for logs.
func (s Status) String() string {
	switch s {
	case StatusOpen:
		return "open"
	case StatusClosing:
		return "closing"
	case StatusClosed:
		return "closed"
	case StatusRefunded:
		return "refunded"
	default:
		return "unknown"
	}
}

// Params are the immutable terms fixed at channel open.
type Params struct {
	// GatewayPub is the payee's EC public key.
	GatewayPub []byte `json:"gatewayPub"`
	// RecipientPub is the funder/payer's EC public key.
	RecipientPub []byte `json:"recipientPub"`
	// Capacity is the value locked in the funding output.
	Capacity uint64 `json:"capacity"`
	// CloseFee is the miner fee every commitment transaction pays.
	CloseFee uint64 `json:"closeFee"`
	// RefundHeight is the absolute height at which the funder may
	// reclaim the capacity unilaterally.
	RefundHeight int64 `json:"refundHeight"`
}

// ScriptParams converts the channel terms into the funding script
// template parameters.
func (p Params) ScriptParams() script.ChannelParams {
	return script.ChannelParams{
		GatewayPubKey:    p.GatewayPub,
		RecipientPubKey:  p.RecipientPub,
		RefundHeight:     p.RefundHeight,
		FunderPubKeyHash: bccrypto.Hash160(p.RecipientPub),
	}
}

// State is the persistent view one endpoint holds of a channel. The payer
// and payee views differ only in which signatures are populated and in
// AckedVersion/AckedPaid (payer side: the prefix the payee has confirmed).
type State struct {
	// ID is the funding transaction id; the funding output is (ID, 0).
	ID chain.Hash `json:"-"`
	Params
	// Role the local endpoint plays.
	Role Role `json:"role"`
	// Version is the highest commitment version this endpoint has signed
	// (payer) or verified and countersigned (payee). Version 0 means no
	// off-chain update has happened yet.
	Version uint64 `json:"version"`
	// Paid is the cumulative amount paid to the gateway at Version.
	Paid uint64 `json:"paid"`
	// RecipientSig and GatewaySig sign the Version commitment. The payee
	// always holds both for its Version; the payer holds GatewaySig only
	// up to AckedVersion.
	RecipientSig []byte `json:"recipientSig,omitempty"`
	GatewaySig   []byte `json:"gatewaySig,omitempty"`
	// AckedVersion/AckedPaid (payer only): highest version for which the
	// gateway's countersignature has been received. Paid - AckedPaid is
	// the in-flight delta — the payer's maximum possible loss.
	AckedVersion uint64 `json:"ackedVersion"`
	AckedPaid    uint64 `json:"ackedPaid"`
	// AckedRecipientSig/AckedGatewaySig (payer only) are the signature
	// pair of the AckedVersion commitment. They survive SignUpdate so the
	// payer can always close unilaterally at its acked balance even while
	// a newer update is in flight unacknowledged.
	AckedRecipientSig []byte `json:"ackedRecipientSig,omitempty"`
	AckedGatewaySig   []byte `json:"ackedGatewaySig,omitempty"`
	Status            Status `json:"status"`
	// PeerAddr is the p2p address of the remote endpoint, when known.
	PeerAddr string `json:"peerAddr,omitempty"`
}

// Role distinguishes the two channel endpoints.
type Role uint8

// Endpoint roles.
const (
	RolePayer Role = iota + 1 // recipient: funds the channel, signs updates
	RolePayee                 // gateway: verifies updates, discloses keys, closes
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RolePayer:
		return "payer"
	case RolePayee:
		return "payee"
	default:
		return "unknown"
	}
}

// InFlight returns the payer's unacknowledged delta — the bounded-loss
// window.
func (s *State) InFlight() uint64 {
	if s.Paid < s.AckedPaid {
		return 0
	}
	return s.Paid - s.AckedPaid
}

// Update is one off-chain payment: the payer's signature over commitment
// (Version, Paid) of channel ID.
type Update struct {
	ChannelID    chain.Hash
	Version      uint64
	Paid         uint64
	RecipientSig []byte
}

// versionMarkerPrefix tags the OP_RETURN output that binds a commitment
// transaction to its monotonic version (and makes every commitment tx
// unique even when balances repeat).
var versionMarkerPrefix = []byte("bcch")

// VersionMarker encodes the commitment-version OP_RETURN payload.
func VersionMarker(version uint64) []byte {
	return binary.BigEndian.AppendUint64(append([]byte(nil), versionMarkerPrefix...), version)
}

// CommitmentTx builds the (unsigned) commitment transaction for a given
// version and cumulative paid amount: it spends the funding output and
// pays the gateway its cumulative total, the remainder back to the
// funder, and carries an OP_RETURN version marker.
func CommitmentTx(p Params, id chain.Hash, version, paid uint64) (*chain.Tx, error) {
	if paid+p.CloseFee > p.Capacity {
		return nil, fmt.Errorf("%w: paid %d + fee %d > capacity %d", ErrExhausted, paid, p.CloseFee, p.Capacity)
	}
	tx := &chain.Tx{
		Version: 1,
		Inputs:  []chain.TxIn{{Prev: chain.OutPoint{TxID: id, Index: 0}}},
		Outputs: []chain.TxOut{
			{Value: paid, Lock: script.PayToPubKeyHash(bccrypto.Hash160(p.GatewayPub))},
			{Value: p.Capacity - paid - p.CloseFee, Lock: script.PayToPubKeyHash(bccrypto.Hash160(p.RecipientPub))},
			{Value: 0, Lock: script.NullData(VersionMarker(version))},
		},
	}
	return tx, nil
}

// CommitmentDigest returns the digest both parties sign for a commitment.
func CommitmentDigest(p Params, id chain.Hash, version, paid uint64) (chain.Hash, error) {
	tx, err := CommitmentTx(p, id, version, paid)
	if err != nil {
		return chain.Hash{}, err
	}
	return tx.SigHash(0, script.Channel(p.ScriptParams())), nil
}

// SignedCommitment assembles the fully-signed commitment transaction for
// the endpoint's latest state. This is both the cooperative and the
// unilateral close transaction.
func SignedCommitment(s *State) (*chain.Tx, error) {
	if s.Version == 0 || len(s.RecipientSig) == 0 || len(s.GatewaySig) == 0 {
		return nil, ErrNoCommitment
	}
	tx, err := CommitmentTx(s.Params, s.ID, s.Version, s.Paid)
	if err != nil {
		return nil, err
	}
	tx.Inputs[0].Unlock = script.UnlockChannelClose(s.RecipientSig, s.GatewaySig)
	return tx, nil
}

// AckedCommitment assembles the fully-signed commitment transaction at
// the payer's highest acknowledged version. Unlike SignedCommitment it
// keeps working while a newer update is in flight unacknowledged — the
// payer's unilateral close settles the acked balance, never less.
func AckedCommitment(s *State) (*chain.Tx, error) {
	if s.AckedVersion == 0 || len(s.AckedRecipientSig) == 0 || len(s.AckedGatewaySig) == 0 {
		return nil, ErrNoCommitment
	}
	tx, err := CommitmentTx(s.Params, s.ID, s.AckedVersion, s.AckedPaid)
	if err != nil {
		return nil, err
	}
	tx.Inputs[0].Unlock = script.UnlockChannelClose(s.AckedRecipientSig, s.AckedGatewaySig)
	return tx, nil
}

// VerifyFunding checks that a funding transaction's output 0 locks the
// agreed capacity under the channel script for the given terms.
func VerifyFunding(tx *chain.Tx, p Params) error {
	if len(tx.Outputs) == 0 {
		return fmt.Errorf("%w: no outputs", ErrBadFunding)
	}
	out := tx.Outputs[0]
	if out.Value != p.Capacity {
		return fmt.Errorf("%w: output value %d != capacity %d", ErrBadFunding, out.Value, p.Capacity)
	}
	want := script.Channel(p.ScriptParams())
	if !script.Equal(out.Lock, want) {
		return fmt.Errorf("%w: locking script does not match channel terms", ErrBadFunding)
	}
	return nil
}
