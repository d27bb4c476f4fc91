package channel

import (
	"bytes"
	"fmt"
	"sync"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/fairex"
	"bcwan/internal/wallet"
)

// Payer is the recipient-side channel endpoint: it funds the channel and
// signs monotonically-versioned commitment updates.
type Payer struct {
	mu     sync.Mutex
	st     *State
	wallet *wallet.Wallet
	ledger *fairex.Node
	store  *Store
}

// OpenPayer funds a new channel: it builds and submits the on-chain
// funding transaction and returns the endpoint plus the funding tx for
// relay to the payee.
func OpenPayer(w *wallet.Wallet, ledger *fairex.Node, store *Store, gatewayPub []byte, capacity, fundFee, closeFee uint64, refundWindow int64, peerAddr string) (*Payer, *chain.Tx, error) {
	if capacity <= closeFee {
		return nil, nil, fmt.Errorf("%w: capacity %d <= close fee %d", ErrExhausted, capacity, closeFee)
	}
	params := Params{
		GatewayPub:   append([]byte(nil), gatewayPub...),
		RecipientPub: w.PublicBytes(),
		Capacity:     capacity,
		CloseFee:     closeFee,
		RefundHeight: ledger.Height() + refundWindow,
	}
	funding, err := w.BuildChannelFunding(ledger.Spendable(w.PubKeyHash()), params.ScriptParams(), capacity, fundFee)
	if err != nil {
		return nil, nil, err
	}
	if err := ledger.Submit(funding); err != nil {
		return nil, nil, fmt.Errorf("channel: submit funding: %w", err)
	}
	p := &Payer{st: new(State), wallet: w, ledger: ledger, store: store}
	if err := commit(p.store, p.st, State{
		ID:       funding.ID(),
		Params:   params,
		Role:     RolePayer,
		Status:   StatusOpen,
		PeerAddr: peerAddr,
	}); err != nil {
		return nil, nil, err
	}
	return p, funding, nil
}

// LoadPayer rebuilds a payer endpoint from a persisted state (after a
// restart). The wallet must hold the key matching the state's
// RecipientPub.
func LoadPayer(st *State, w *wallet.Wallet, ledger *fairex.Node, store *Store) (*Payer, error) {
	if st.Role != RolePayer {
		return nil, fmt.Errorf("%w: state role %s is not payer", ErrUnknownChannel, st.Role)
	}
	return &Payer{st: st, wallet: w, ledger: ledger, store: store}, nil
}

// State returns a copy of the endpoint's channel state.
func (p *Payer) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return *p.st
}

// SignUpdate produces the next commitment update paying delta more to the
// gateway. The signed state is persisted before the update is returned,
// so a crashed payer knows its in-flight delta on restart.
func (p *Payer) SignUpdate(delta uint64) (*Update, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.st.Status != StatusOpen {
		return nil, ErrClosed
	}
	paid := p.st.Paid + delta
	if paid+p.st.CloseFee > p.st.Capacity {
		return nil, fmt.Errorf("%w: paid %d + fee %d > capacity %d", ErrExhausted, paid, p.st.CloseFee, p.st.Capacity)
	}
	version := p.st.Version + 1
	digest, err := CommitmentDigest(p.st.Params, p.st.ID, version, paid)
	if err != nil {
		return nil, err
	}
	sig, err := p.wallet.SignChannelDigest(digest)
	if err != nil {
		return nil, err
	}
	next := *p.st
	next.Version, next.Paid, next.RecipientSig, next.GatewaySig = version, paid, sig, nil
	if err := commit(p.store, p.st, next); err != nil {
		return nil, err
	}
	return &Update{
		ChannelID:    next.ID,
		Version:      version,
		Paid:         paid,
		RecipientSig: sig,
	}, nil
}

// NoteAck records the gateway's countersignature for a version the payer
// signed, shrinking the in-flight window. Stale acknowledgements (below
// the current acked version) are ignored.
func (p *Payer) NoteAck(version uint64, gatewaySig []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if version <= p.st.AckedVersion {
		return nil
	}
	if version != p.st.Version {
		return fmt.Errorf("%w: ack version %d, latest signed %d", ErrStaleVersion, version, p.st.Version)
	}
	digest, err := CommitmentDigest(p.st.Params, p.st.ID, version, p.st.Paid)
	if err != nil {
		return err
	}
	if !bccrypto.VerifyECDigest(p.st.GatewayPub, digest[:], gatewaySig) {
		return fmt.Errorf("%w: gateway countersignature", ErrBadSignature)
	}
	next := *p.st
	next.GatewaySig = append([]byte(nil), gatewaySig...)
	next.AckedVersion = version
	next.AckedPaid = next.Paid
	// Keep the full signature pair of the acked commitment: SignUpdate
	// drops GatewaySig for the next version, and without this copy an
	// unacked in-flight update would leave the payer with no broadcastable
	// commitment at all.
	next.AckedRecipientSig = append([]byte(nil), next.RecipientSig...)
	next.AckedGatewaySig = append([]byte(nil), gatewaySig...)
	return commit(p.store, p.st, next)
}

// UnilateralClose broadcasts the commitment at the payer's highest
// acknowledged version, settling the channel without the gateway's help.
// It is the payer's close of last resort: the gateway keeps everything it
// has been acknowledged, the payer reclaims the remainder — strictly
// fairer than the full-capacity CLTV refund whenever AckedVersion > 0.
func (p *Payer) UnilateralClose() (*chain.Tx, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.st.Status == StatusClosed || p.st.Status == StatusRefunded {
		return nil, ErrClosed
	}
	tx, err := AckedCommitment(p.st)
	if err != nil {
		return nil, err
	}
	if err := p.ledger.Submit(tx); err != nil {
		return nil, fmt.Errorf("channel: submit unilateral close: %w", err)
	}
	if err := commit(p.store, p.st, withStatus(*p.st, StatusClosed)); err != nil {
		return nil, err
	}
	return tx, nil
}

// Refund reclaims the channel capacity through the CLTV path once the
// chain has reached the refund height. Used when the gateway abandons the
// channel.
func (p *Payer) Refund(fee uint64) (*chain.Tx, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if height := p.ledger.Height(); height < p.st.RefundHeight {
		return nil, fmt.Errorf("%w: height %d < refund height %d", ErrRefundTooEarly, height, p.st.RefundHeight)
	}
	funding, _, ok := p.ledger.FindTx(p.st.ID)
	if !ok {
		if funding, ok = p.ledger.PendingTx(p.st.ID); !ok {
			return nil, fmt.Errorf("%w: funding tx %s not found", ErrUnknownChannel, p.st.ID)
		}
	}
	tx, err := p.wallet.BuildRefund(
		chain.OutPoint{TxID: p.st.ID, Index: 0}, funding.Outputs[0], p.st.RefundHeight, fee)
	if err != nil {
		return nil, err
	}
	if err := p.ledger.Submit(tx); err != nil {
		return nil, fmt.Errorf("channel: submit refund: %w", err)
	}
	if err := commit(p.store, p.st, withStatus(*p.st, StatusRefunded)); err != nil {
		return nil, err
	}
	return tx, nil
}

// MarkClosing flags the channel so no further updates are signed.
func (p *Payer) MarkClosing() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.st.Status == StatusOpen {
		return commit(p.store, p.st, withStatus(*p.st, StatusClosing))
	}
	return nil
}

// commit saves next, then makes it *st: a failed save leaves the
// endpoint's memory exactly as far along as its disk.
func commit(store *Store, st *State, next State) error {
	if store != nil {
		if err := store.Save(&next); err != nil {
			return err
		}
	}
	*st = next
	return nil
}

// withStatus returns st moved to status s.
func withStatus(st State, s Status) State {
	st.Status = s
	return st
}

// Payee is the gateway-side channel endpoint: it verifies and countersigns
// updates and broadcasts the latest commitment at close.
type Payee struct {
	mu     sync.Mutex
	st     *State
	wallet *wallet.Wallet
	ledger *fairex.Node
	store  *Store
	// priceFloor is the minimum cumulative-paid increase per update. Zero
	// disables the check (raw endpoint use); the daemon sets it to the
	// gateway's delivery price so an underpaying update can never buy a
	// key disclosure.
	priceFloor uint64
}

// SetPriceFloor sets the minimum paid delta ApplyUpdate accepts per
// update. Each update must pay at least this much on top of the previous
// cumulative balance.
func (g *Payee) SetPriceFloor(v uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.priceFloor = v
}

// AcceptPayee validates a funding transaction against the agreed terms
// and creates the payee endpoint. The funding transaction is submitted to
// the payee's own mempool so it sees the channel anchor even if gossip
// lags.
func AcceptPayee(w *wallet.Wallet, ledger *fairex.Node, store *Store, funding *chain.Tx, p Params, peerAddr string) (*Payee, error) {
	if !bytes.Equal(p.GatewayPub, w.PublicBytes()) {
		return nil, fmt.Errorf("%w: gateway key is not ours", ErrBadFunding)
	}
	if err := VerifyFunding(funding, p); err != nil {
		return nil, err
	}
	if p.RefundHeight <= ledger.Height() {
		return nil, fmt.Errorf("%w: refund height %d already reached (height %d)", ErrBadFunding, p.RefundHeight, ledger.Height())
	}
	// Best effort: the funding tx usually arrives via gossip too, so an
	// already-known (or already-confirmed) funding is not an error.
	if _, _, confirmed := ledger.FindTx(funding.ID()); !confirmed {
		if _, pending := ledger.PendingTx(funding.ID()); !pending {
			if err := ledger.Submit(funding); err != nil {
				return nil, fmt.Errorf("%w: funding rejected: %v", ErrBadFunding, err)
			}
		}
	}
	g := &Payee{st: new(State), wallet: w, ledger: ledger, store: store}
	if err := commit(g.store, g.st, State{
		ID:       funding.ID(),
		Params:   p,
		Role:     RolePayee,
		Status:   StatusOpen,
		PeerAddr: peerAddr,
	}); err != nil {
		return nil, err
	}
	return g, nil
}

// LoadPayee rebuilds a payee endpoint from a persisted state.
func LoadPayee(st *State, w *wallet.Wallet, ledger *fairex.Node, store *Store) (*Payee, error) {
	if st.Role != RolePayee {
		return nil, fmt.Errorf("%w: state role %s is not payee", ErrUnknownChannel, st.Role)
	}
	return &Payee{st: st, wallet: w, ledger: ledger, store: store}, nil
}

// State returns a copy of the endpoint's channel state.
func (g *Payee) State() State {
	g.mu.Lock()
	defer g.mu.Unlock()
	return *g.st
}

// ApplyUpdate verifies a payer update — monotonic version, increasing
// cumulative amount within capacity, valid payer signature — then
// countersigns it. The new state is persisted BEFORE the countersignature
// is returned, so a key disclosure never outruns durable channel state.
func (g *Payee) ApplyUpdate(u *Update) ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.st.Status != StatusOpen {
		return nil, ErrClosed
	}
	if u.ChannelID != g.st.ID {
		return nil, ErrUnknownChannel
	}
	if u.Version <= g.st.Version {
		return nil, fmt.Errorf("%w: got %d, have %d", ErrStaleVersion, u.Version, g.st.Version)
	}
	if u.Paid <= g.st.Paid {
		return nil, fmt.Errorf("%w: paid must increase (got %d, have %d)", ErrBadUpdate, u.Paid, g.st.Paid)
	}
	if g.priceFloor > 0 && u.Paid-g.st.Paid < g.priceFloor {
		return nil, fmt.Errorf("%w: delta %d underpays the %d delivery price", ErrBadUpdate, u.Paid-g.st.Paid, g.priceFloor)
	}
	if u.Paid+g.st.CloseFee > g.st.Capacity {
		return nil, fmt.Errorf("%w: paid %d + fee %d > capacity %d", ErrExhausted, u.Paid, g.st.CloseFee, g.st.Capacity)
	}
	digest, err := CommitmentDigest(g.st.Params, g.st.ID, u.Version, u.Paid)
	if err != nil {
		return nil, err
	}
	if !bccrypto.VerifyECDigest(g.st.RecipientPub, digest[:], u.RecipientSig) {
		return nil, fmt.Errorf("%w: payer signature", ErrBadSignature)
	}
	gwSig, err := g.wallet.SignChannelDigest(digest)
	if err != nil {
		return nil, err
	}
	next := *g.st
	next.Version, next.Paid = u.Version, u.Paid
	next.RecipientSig, next.GatewaySig = append([]byte(nil), u.RecipientSig...), gwSig
	if err := commit(g.store, g.st, next); err != nil {
		return nil, err
	}
	return gwSig, nil
}

// Close broadcasts the latest fully-signed commitment, settling all
// off-chain payments in one on-chain transaction. Safe to call on either
// a cooperative or a unilateral close — both paths publish the same
// highest-version commitment.
func (g *Payee) Close() (*chain.Tx, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.st.Status == StatusClosed {
		return nil, ErrClosed
	}
	tx, err := SignedCommitment(g.st)
	if err != nil {
		return nil, err
	}
	if err := g.ledger.Submit(tx); err != nil {
		return nil, fmt.Errorf("channel: submit close: %w", err)
	}
	if err := commit(g.store, g.st, withStatus(*g.st, StatusClosed)); err != nil {
		return nil, err
	}
	return tx, nil
}

// Abandon retires a payee channel that has earned nothing (Version 0, so
// there is no commitment to broadcast): it only flips the status so no
// further updates are countersigned. The funder's CLTV refund is the
// on-chain settlement of such a channel.
func (g *Payee) Abandon() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.st.Status != StatusOpen {
		return nil
	}
	return commit(g.store, g.st, withStatus(*g.st, StatusClosed))
}
