package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/channel"
	"bcwan/internal/fairex"
	"bcwan/internal/lora"
	"bcwan/internal/p2p"
	"bcwan/internal/wallet"
)

// ChannelConfig tunes the payment-channel subsystem of a daemon.
type ChannelConfig struct {
	// Capacity is the amount locked into each funding transaction; it
	// bounds how many deliveries one channel settles before rolling over.
	Capacity uint64
	// RefundWindow is the CLTV timeout in blocks: past it the funder can
	// reclaim the capacity unilaterally, so the gateway must close first.
	// A payee rejects opens offering a shorter window than its own.
	RefundWindow int64
	// CloseMargin is the payee's safety margin in blocks: it closes any
	// open channel once the chain is within CloseMargin of RefundHeight,
	// so its earned balance is on-chain before the refund path unlocks.
	CloseMargin int64
	// StoreDir, when set, persists channel state there so endpoints
	// survive a daemon restart ("" = in-memory only).
	StoreDir string
}

// DefaultChannelConfig mirrors the fair-exchange defaults: 100 per
// delivery against a 10k channel, the paper's 100-block refund window.
func DefaultChannelConfig() ChannelConfig {
	return ChannelConfig{
		Capacity:     10_000,
		RefundWindow: 100,
		CloseMargin:  10,
	}
}

// channelRoundTrip bounds one open/accept handshake or one update/ack
// round trip.
const channelRoundTrip = 10 * time.Second

// channelFee is the miner fee each of a channel's three on-chain
// transactions pays: the funding, the close and the refund.
const channelFee = 1

// chanHeightSkew is how many blocks a funder's chain view may lag the
// payee's when the payee checks a funded RefundHeight against the agreed
// window.
const chanHeightSkew = 2

// ChannelSettlement is the payer-side outcome of one off-chain delivery
// settlement: which commitment paid for it and the disclosed key,
// verified against the delivery's ePk before the update was acked.
type ChannelSettlement struct {
	ChannelID chain.Hash
	Key       *bccrypto.RSA512PrivateKey
}

// ChannelSummary is the RPC-facing view of one channel endpoint.
type ChannelSummary struct {
	ID           string `json:"id"`
	Role         string `json:"role"`
	Status       string `json:"status"`
	Capacity     uint64 `json:"capacity"`
	Paid         uint64 `json:"paid"`
	Version      uint64 `json:"version"`
	AckedVersion uint64 `json:"ackedVersion,omitempty"`
	RefundHeight int64  `json:"refundHeight"`
	Peer         string `json:"peer,omitempty"`
}

func summarizeChannel(st channel.State) ChannelSummary {
	return ChannelSummary{
		ID:           st.ID.String(),
		Role:         st.Role.String(),
		Status:       st.Status.String(),
		Capacity:     st.Capacity,
		Paid:         st.Paid,
		Version:      st.Version,
		AckedVersion: st.AckedVersion,
		RefundHeight: st.RefundHeight,
		Peer:         st.PeerAddr,
	}
}

// updateKey names one in-flight update round trip.
type updateKey struct {
	id      chain.Hash
	version uint64
}

// ChannelManager runs the channel control plane of one daemon over the
// p2p overlay. A recipient daemon runs it in payer mode (it funds
// channels and signs updates); a gateway daemon runs it in payee mode
// (disclose != nil: it countersigns updates and answers each with the
// ephemeral key of the exchange the update pays for).
type ChannelManager struct {
	cfg    ChannelConfig
	node   *Node
	wallet *wallet.Wallet
	store  *channel.Store // nil when cfg.StoreDir == ""
	// disclose resolves a verified update into the exchange's ephemeral
	// private key (payee mode only).
	disclose func(lora.DevEUI, uint32) ([]byte, error)
	// price is the payee's minimum paid delta per update, the gateway's
	// delivery price: an update paying less never buys a key disclosure,
	// or a payer could drain disclosures for 1 unit apiece (payee mode
	// only).
	price uint64
	// spend runs a channel funding under the lock the recipient builds its
	// on-chain payments under, so the two never pick the same coin (payer
	// mode only).
	spend func(func() error) error

	// settleMu serializes payer-side rounds so commitment versions leave
	// in signing order.
	settleMu sync.Mutex

	// accepts and updateAcks route the payee's answers to the payer
	// round waiting for them, keyed by peer and by update.
	accepts    replies[string, *p2p.MsgChannelAccept]
	updateAcks replies[updateKey, *p2p.MsgChannelUpdateAck]

	mu           sync.Mutex
	payers       map[chain.Hash]*channel.Payer
	payees       map[chain.Hash]*channel.Payee
	byGateway    map[string]chain.Hash // gateway pubkey → open payer channel
	pendingOpens map[string]*p2p.MsgChannelOpen
}

// newChannelManager builds the manager, reloads persisted endpoints and
// registers the p2p handlers for its mode.
func newChannelManager(node *Node, w *wallet.Wallet, cfg ChannelConfig, disclose func(lora.DevEUI, uint32) ([]byte, error), price uint64, spend func(func() error) error) (*ChannelManager, error) {
	def := DefaultChannelConfig()
	if cfg.Capacity == 0 {
		cfg.Capacity = def.Capacity
	}
	if cfg.RefundWindow == 0 {
		cfg.RefundWindow = def.RefundWindow
	}
	if cfg.CloseMargin <= 0 {
		cfg.CloseMargin = def.CloseMargin
	}
	if cfg.CloseMargin >= cfg.RefundWindow {
		cfg.CloseMargin = cfg.RefundWindow / 2
	}
	m := &ChannelManager{
		cfg:          cfg,
		node:         node,
		wallet:       w,
		disclose:     disclose,
		price:        price,
		spend:        spend,
		payers:       make(map[chain.Hash]*channel.Payer),
		payees:       make(map[chain.Hash]*channel.Payee),
		byGateway:    make(map[string]chain.Hash),
		pendingOpens: make(map[string]*p2p.MsgChannelOpen),
	}
	if cfg.StoreDir != "" {
		store, err := channel.OpenStore(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		m.store = store
		if err := m.reload(); err != nil {
			return nil, err
		}
	}
	if disclose != nil {
		p2p.Handle(node.gossip, p2p.MsgTypeChannelOpen, p2p.DecodeChannelOpen, m.onChanOpen)
		p2p.Handle(node.gossip, p2p.MsgTypeChannelFund, decodeChanFund, m.onChanFund)
		p2p.Handle(node.gossip, p2p.MsgTypeChannelUpdate, p2p.DecodeChannelUpdate, m.onChanUpdate)
		p2p.Handle(node.gossip, p2p.MsgTypeChannelClose, p2p.DecodeChannelClose, m.onChanClose)
		// A payee must have its earned balance on-chain before the CLTV
		// refund path unlocks: close every channel nearing its deadline.
		node.Chain().Subscribe(func(*chain.Block) { m.CloseExpiring() })
	} else {
		p2p.Handle(node.gossip, p2p.MsgTypeChannelAccept, p2p.DecodeChannelAccept, m.onChanAccept)
		p2p.Handle(node.gossip, p2p.MsgTypeChannelUpdateAck, p2p.DecodeChannelUpdateAck, m.onChanUpdateAck)
		// A payer abandoned past the CLTV timeout reclaims its capacity.
		node.Chain().Subscribe(func(*chain.Block) { m.RefundExpired() })
	}
	return m, nil
}

// reload rebuilds endpoints from the store after a restart.
func (m *ChannelManager) reload() error {
	states, err := m.store.Load()
	if err != nil {
		return err
	}
	for _, st := range states {
		switch st.Role {
		case channel.RolePayer:
			p, err := channel.LoadPayer(st, m.wallet, m.node.Ledger(), m.store)
			if err != nil {
				return err
			}
			m.payers[st.ID] = p
			if st.Status == channel.StatusOpen {
				m.byGateway[string(st.GatewayPub)] = st.ID
			}
		case channel.RolePayee:
			g, err := channel.LoadPayee(st, m.wallet, m.node.Ledger(), m.store)
			if err != nil {
				return err
			}
			g.SetPriceFloor(m.price)
			m.payees[st.ID] = g
		}
		if st.Status == channel.StatusOpen {
			m.node.metrics.channelsOpen.Inc()
		}
	}
	return nil
}

// close closes the channel store; its node calls it on shutdown.
func (m *ChannelManager) close() error {
	if m.store == nil {
		return nil
	}
	return m.store.Close()
}

// --- payee (gateway) side ---------------------------------------------

func (m *ChannelManager) onChanOpen(from string, req *p2p.MsgChannelOpen) {
	reply := &p2p.MsgChannelAccept{RecipientPub: req.RecipientPub}
	if len(req.RecipientPub) == 0 || req.Capacity == 0 || req.RefundWindow <= 0 {
		reply.OK = p2p.ChannelAckRejected
		reply.Reason = "bad open terms"
	} else if req.RefundWindow < m.cfg.RefundWindow {
		// A short window lets the funder hit the CLTV refund path before
		// the gateway's close margin can fire.
		reply.OK = p2p.ChannelAckRejected
		reply.Reason = fmt.Sprintf("refund window %d below the %d floor", req.RefundWindow, m.cfg.RefundWindow)
	} else {
		m.mu.Lock()
		m.pendingOpens[from] = req
		m.mu.Unlock()
		reply.GatewayPub = m.wallet.PublicBytes()
		reply.OK = p2p.ChannelAckOK
	}
	m.node.send(from, p2p.MsgTypeChannelAccept, reply.Encode())
}

// chanFund is a chanfund with its funding transaction decoded.
type chanFund struct {
	*p2p.MsgChannelFund
	funding *chain.Tx
}

func decodeChanFund(payload []byte) (m chanFund, err error) {
	if m.MsgChannelFund, err = p2p.DecodeChannelFund(payload); err == nil {
		m.funding, err = chain.DeserializeTx(m.FundingTx)
	}
	return m, err
}

func (m *ChannelManager) onChanFund(from string, fund chanFund) {
	m.mu.Lock()
	open := m.pendingOpens[from]
	delete(m.pendingOpens, from)
	m.mu.Unlock()
	if open == nil {
		m.node.logf("chanfund from %s without a pending open", from)
		return
	}
	funding := fund.funding
	if len(funding.Outputs) == 0 {
		m.node.logf("chanfund from %s: funding tx has no outputs", from)
		return
	}
	// The funder picks RefundHeight itself; hold it to the window agreed
	// in the open (modulo chain-view skew) or the funder could fund with
	// RefundHeight = height+1, extract a key and reclaim the capacity
	// through the CLTV path before the payee can close.
	height := m.node.Ledger().Height()
	minRefund := height + open.RefundWindow - chanHeightSkew
	if floor := height + m.cfg.CloseMargin + 1; minRefund < floor {
		minRefund = floor
	}
	if fund.RefundHeight < minRefund {
		m.node.logf("chanfund from %s rejected: refund height %d below %d (height %d, window %d)",
			from, fund.RefundHeight, minRefund, height, open.RefundWindow)
		return
	}
	params := channel.Params{
		GatewayPub:   m.wallet.PublicBytes(),
		RecipientPub: open.RecipientPub,
		Capacity:     funding.Outputs[0].Value,
		CloseFee:     fund.CloseFee,
		RefundHeight: fund.RefundHeight,
	}
	payee, err := channel.AcceptPayee(m.wallet, m.node.Ledger(), m.store, funding, params, from)
	if err != nil {
		m.node.logf("chanfund from %s rejected: %v", from, err)
		return
	}
	payee.SetPriceFloor(m.price)
	st := payee.State()
	m.mu.Lock()
	m.payees[st.ID] = payee
	m.mu.Unlock()
	m.node.metrics.channelsOpened.Inc()
	m.node.metrics.channelsOpen.Inc()
}

func (m *ChannelManager) onChanUpdate(from string, u *p2p.MsgChannelUpdate) {
	ack := &p2p.MsgChannelUpdateAck{
		ChannelID:   u.ChannelID,
		ChanVersion: u.ChanVersion,
		DevEUI:      u.DevEUI,
		Exchange:    u.Exchange,
	}
	id := chain.Hash(u.ChannelID)
	m.mu.Lock()
	payee := m.payees[id]
	m.mu.Unlock()
	if payee == nil {
		ack.Status = p2p.ChannelAckRejected
		ack.Reason = "unknown channel"
		m.node.send(from, p2p.MsgTypeChannelUpdateAck, ack.Encode())
		return
	}
	prevPaid := payee.State().Paid
	gwSig, err := payee.ApplyUpdate(&channel.Update{
		ChannelID:    id,
		Version:      u.ChanVersion,
		Paid:         u.Paid,
		RecipientSig: u.RecipientSig,
	})
	if err != nil {
		ack.Status = p2p.ChannelAckRejected
		ack.Reason = err.Error()
		m.node.send(from, p2p.MsgTypeChannelUpdateAck, ack.Encode())
		return
	}
	// The update is countersigned and durable; only now is the key
	// released — the off-chain half of the fair exchange.
	key, err := m.disclose(lora.DevEUI(u.DevEUI), u.Exchange)
	if err != nil {
		ack.Status = p2p.ChannelAckRejected
		ack.Reason = err.Error()
		m.node.send(from, p2p.MsgTypeChannelUpdateAck, ack.Encode())
		return
	}
	ack.Status = p2p.ChannelAckOK
	ack.Key = key
	ack.GatewaySig = gwSig
	m.node.metrics.channelUpdates.Inc()
	m.node.metrics.channelValue.Add(u.Paid - prevPaid)
	m.node.send(from, p2p.MsgTypeChannelUpdateAck, ack.Encode())
}

func (m *ChannelManager) onChanClose(_ string, req *p2p.MsgChannelClose) {
	id := chain.Hash(req.ChannelID)
	m.mu.Lock()
	payee := m.payees[id]
	m.mu.Unlock()
	if payee == nil {
		return
	}
	if _, err := payee.Close(); err != nil {
		m.node.logf("channel %s close: %v", id, err)
		return
	}
	m.node.metrics.channelsClosed.Inc()
	m.node.metrics.channelsOpen.Dec()
}

// --- payer (recipient) side -------------------------------------------

func (m *ChannelManager) onChanAccept(from string, acc *p2p.MsgChannelAccept) {
	m.accepts.deliver(from, acc)
}

func (m *ChannelManager) onChanUpdateAck(_ string, ack *p2p.MsgChannelUpdateAck) {
	m.updateAcks.deliver(updateKey{chain.Hash(ack.ChannelID), ack.ChanVersion}, ack)
}

// SettleDelivery pays for one delivery off-chain: it signs the next
// commitment update, sends it to the gateway at peer (the overlay
// address the delivery came from), waits for the
// countersignature plus the disclosed ephemeral key, verifies both and
// acknowledges. A channel is opened (or rolled over) on demand. On any
// failure the channel is retired so the caller can fall back to on-chain
// settlement with at most one update delta in flight.
func (m *ChannelManager) SettleDelivery(peer string, d *fairex.Delivery) (*ChannelSettlement, error) {
	if m.disclose != nil {
		return nil, errors.New("daemon: payee-side manager cannot settle deliveries")
	}
	m.settleMu.Lock()
	defer m.settleMu.Unlock()
	payer, err := m.payerFor(peer, d.GatewayPubKey, d.Price)
	if err != nil {
		return nil, err
	}
	u, err := payer.SignUpdate(d.Price)
	if err != nil {
		// The state did not move, and the caller now pays this delivery
		// on-chain: retire the channel as after any failed round, so the
		// next delivery does not ride on a store that just failed.
		m.retirePayer(payer)
		return nil, err
	}
	waiter, cancel := m.updateAcks.wait(updateKey{u.ChannelID, u.Version})
	defer cancel()
	upd := &p2p.MsgChannelUpdate{
		ChannelID:    u.ChannelID,
		ChanVersion:  u.Version,
		Paid:         u.Paid,
		DevEUI:       d.DevEUI,
		Exchange:     d.Exchange,
		RecipientSig: u.RecipientSig,
	}
	if !m.node.send(peer, p2p.MsgTypeChannelUpdate, upd.Encode()) {
		m.retirePayer(payer)
		return nil, fmt.Errorf("daemon: channel peer %s unreachable", peer)
	}
	var ack *p2p.MsgChannelUpdateAck
	timeout := time.NewTimer(channelRoundTrip)
	defer timeout.Stop()
	select {
	case ack = <-waiter:
	case <-timeout.C:
		// The gateway may have applied the update without us seeing the
		// ack: the delta stays in flight and the channel is retired, so
		// the divergence never exceeds one update.
		m.retirePayer(payer)
		return nil, fmt.Errorf("daemon: channel update %d timed out", u.Version)
	}
	if ack.Status != p2p.ChannelAckOK {
		m.retirePayer(payer)
		return nil, fmt.Errorf("daemon: channel update rejected: %s", ack.Reason)
	}
	key, err := fairex.VerifyDisclosedKey(d, ack.Key)
	if err != nil {
		m.retirePayer(payer)
		return nil, err
	}
	if err := payer.NoteAck(u.Version, ack.GatewaySig); err != nil {
		m.retirePayer(payer)
		return nil, err
	}
	m.node.metrics.channelUpdates.Inc()
	m.node.metrics.channelValue.Add(d.Price)
	return &ChannelSettlement{ChannelID: u.ChannelID, Key: key}, nil
}

// payerFor returns an open channel to the gateway with room for one more
// payment, rolling an exhausted or dead channel over into a fresh one.
func (m *ChannelManager) payerFor(peer string, gwPub []byte, price uint64) (*channel.Payer, error) {
	if peer == "" || len(gwPub) == 0 {
		return nil, errors.New("daemon: delivery offers no channel endpoint")
	}
	m.mu.Lock()
	var existing *channel.Payer
	if id, ok := m.byGateway[string(gwPub)]; ok {
		existing = m.payers[id]
	}
	m.mu.Unlock()
	if existing != nil {
		st := existing.State()
		if st.Status == channel.StatusOpen && st.Paid+price+st.CloseFee <= st.Capacity {
			return existing, nil
		}
		m.retirePayer(existing)
	}
	return m.openPayer(peer, gwPub, m.cfg.Capacity)
}

// openPayer runs the open/accept/fund handshake and funds a new channel.
// wantGwPub, when non-nil, pins the gateway key the accept must name.
func (m *ChannelManager) openPayer(peer string, wantGwPub []byte, capacity uint64) (*channel.Payer, error) {
	waiter, cancel := m.accepts.wait(peer)
	defer cancel()
	open := &p2p.MsgChannelOpen{
		RecipientPub: m.wallet.PublicBytes(),
		Capacity:     capacity,
		RefundWindow: m.cfg.RefundWindow,
	}
	if !m.node.send(peer, p2p.MsgTypeChannelOpen, open.Encode()) {
		return nil, fmt.Errorf("daemon: channel peer %s unreachable", peer)
	}
	var acc *p2p.MsgChannelAccept
	timeout := time.NewTimer(channelRoundTrip)
	defer timeout.Stop()
	select {
	case acc = <-waiter:
	case <-timeout.C:
		return nil, fmt.Errorf("daemon: channel open to %s timed out", peer)
	}
	if acc.OK != p2p.ChannelAckOK {
		return nil, fmt.Errorf("daemon: channel open refused: %s", acc.Reason)
	}
	if len(wantGwPub) > 0 && !bytes.Equal(acc.GatewayPub, wantGwPub) {
		return nil, errors.New("daemon: channel accept names a different gateway key")
	}
	var payer *channel.Payer
	var funding *chain.Tx
	err := m.spend(func() (err error) {
		payer, funding, err = channel.OpenPayer(m.wallet, m.node.Ledger(), m.store,
			acc.GatewayPub, capacity, channelFee, channelFee, m.cfg.RefundWindow, peer)
		return err
	})
	if err != nil {
		return nil, err
	}
	st := payer.State()
	fund := &p2p.MsgChannelFund{
		ChannelID:    st.ID,
		RefundHeight: st.RefundHeight,
		CloseFee:     st.CloseFee,
		FundingTx:    funding.Serialize(),
	}
	if !m.node.send(peer, p2p.MsgTypeChannelFund, fund.Encode()) {
		return nil, fmt.Errorf("daemon: channel peer %s unreachable", peer)
	}
	m.mu.Lock()
	m.payers[st.ID] = payer
	m.byGateway[string(st.GatewayPub)] = st.ID
	m.mu.Unlock()
	m.node.metrics.channelsOpened.Inc()
	m.node.metrics.channelsOpen.Inc()
	return payer, nil
}

// retirePayer takes a channel out of rotation and settles it: a
// cooperative close request to the gateway when reachable, otherwise a
// unilateral broadcast of the latest fully-signed commitment.
func (m *ChannelManager) retirePayer(p *channel.Payer) {
	st := p.State()
	m.mu.Lock()
	if id, ok := m.byGateway[string(st.GatewayPub)]; ok && id == st.ID {
		delete(m.byGateway, string(st.GatewayPub))
	}
	m.mu.Unlock()
	if st.Status != channel.StatusOpen {
		return
	}
	if err := p.MarkClosing(); err != nil {
		m.node.logf("channel %s mark closing: %v", st.ID, err)
	}
	req := &p2p.MsgChannelClose{ChannelID: st.ID, Kind: p2p.ChannelCloseCooperative}
	if !m.node.send(st.PeerAddr, p2p.MsgTypeChannelClose, req.Encode()) {
		// The gateway is unreachable: broadcast the acked commitment
		// ourselves. ErrNoCommitment just means nothing was ever acked —
		// the CLTV refund is then the only settlement left.
		if _, err := p.UnilateralClose(); err != nil && !errors.Is(err, channel.ErrNoCommitment) {
			m.node.logf("channel %s unilateral close: %v", st.ID, err)
		}
	}
	m.node.metrics.channelsClosed.Inc()
	m.node.metrics.channelsOpen.Dec()
}

// RefundExpired settles every payer channel whose CLTV refund height has
// been reached without an on-chain close. A channel the gateway earned
// nothing on (no acked update) is refunded in full; one with an acked
// balance is never confiscated — the payer first asks for a cooperative
// close, then broadcasts the acked commitment itself, so the gateway
// keeps everything it was acknowledged. Returns how many full-capacity
// refunds were broadcast.
func (m *ChannelManager) RefundExpired() int {
	m.mu.Lock()
	candidates := make([]*channel.Payer, 0, len(m.payers))
	for _, p := range m.payers {
		candidates = append(candidates, p)
	}
	m.mu.Unlock()
	refunded := 0
	for _, p := range candidates {
		st := p.State()
		if st.Status != channel.StatusOpen && st.Status != channel.StatusClosing {
			continue
		}
		if m.node.Ledger().Height() < st.RefundHeight {
			continue
		}
		// Already closed on-chain? The funding output is spent and the
		// refund would be rejected; skip quietly.
		if _, _, spent := m.node.Ledger().FindSpender(chain.OutPoint{TxID: st.ID, Index: 0}); spent {
			continue
		}
		if st.AckedVersion > 0 {
			if st.Status == channel.StatusOpen {
				// Give the gateway one chance to settle cooperatively;
				// retirePayer falls back to broadcasting the acked
				// commitment when the peer is unreachable.
				m.retirePayer(p)
				continue
			}
			// Closing and still unspent: settle the acked balance
			// unilaterally instead of refunding the full capacity.
			if _, err := p.UnilateralClose(); err != nil {
				m.node.logf("channel %s unilateral close: %v", st.ID, err)
			}
			continue
		}
		if _, err := p.Refund(channelFee); err != nil {
			m.node.logf("channel %s refund: %v", st.ID, err)
			continue
		}
		m.mu.Lock()
		if id, ok := m.byGateway[string(st.GatewayPub)]; ok && id == st.ID {
			delete(m.byGateway, string(st.GatewayPub))
		}
		m.mu.Unlock()
		m.node.metrics.channelRefunds.Inc()
		if st.Status == channel.StatusOpen {
			// A closing channel already left the open gauge in retirePayer.
			m.node.metrics.channelsOpen.Dec()
		}
		refunded++
	}
	return refunded
}

// CloseExpiring (payee side) closes every open channel once the chain is
// within the configured CloseMargin of its refund height, putting the
// earned balance on-chain before the funder's CLTV path unlocks. Channels
// that never saw an update are abandoned locally — the funder's refund is
// their settlement. Returns how many channels were retired.
func (m *ChannelManager) CloseExpiring() int {
	height := m.node.Ledger().Height()
	m.mu.Lock()
	candidates := make([]*channel.Payee, 0, len(m.payees))
	for _, g := range m.payees {
		candidates = append(candidates, g)
	}
	m.mu.Unlock()
	closed := 0
	for _, g := range candidates {
		st := g.State()
		if st.Status != channel.StatusOpen {
			continue
		}
		if height < st.RefundHeight-m.cfg.CloseMargin {
			continue
		}
		if st.Version == 0 {
			if err := g.Abandon(); err != nil {
				m.node.logf("channel %s abandon: %v", st.ID, err)
				continue
			}
		} else if _, err := g.Close(); err != nil {
			m.node.logf("channel %s deadline close: %v", st.ID, err)
			continue
		}
		m.node.metrics.channelsClosed.Inc()
		m.node.metrics.channelsOpen.Dec()
		closed++
	}
	return closed
}

// --- RPC surface (rpc.ChannelOps) -------------------------------------

// OpenChannel opens a channel to a gateway's overlay address (payer mode
// only). A zero capacity uses the configured default.
func (m *ChannelManager) OpenChannel(peer string, capacity uint64) (any, error) {
	if m.disclose != nil {
		return nil, errors.New("daemon: a gateway daemon accepts channels, it does not open them")
	}
	if capacity == 0 {
		capacity = m.cfg.Capacity
	}
	m.settleMu.Lock()
	defer m.settleMu.Unlock()
	payer, err := m.openPayer(peer, nil, capacity)
	if err != nil {
		return nil, err
	}
	return summarizeChannel(payer.State()), nil
}

// ChannelInfo returns the state of one channel endpoint by id.
func (m *ChannelManager) ChannelInfo(id string) (any, error) {
	h, err := chain.HashFromString(id)
	if err != nil {
		return nil, fmt.Errorf("daemon: channel id: %w", err)
	}
	m.mu.Lock()
	payer := m.payers[h]
	payee := m.payees[h]
	m.mu.Unlock()
	switch {
	case payer != nil:
		return summarizeChannel(payer.State()), nil
	case payee != nil:
		return summarizeChannel(payee.State()), nil
	default:
		return nil, fmt.Errorf("daemon: %w: %s", channel.ErrUnknownChannel, id)
	}
}

// CloseChannel settles a channel on-chain: a payer asks the gateway to
// close cooperatively (broadcasting itself if the gateway is gone), a
// payee broadcasts its latest commitment directly.
func (m *ChannelManager) CloseChannel(id string) (any, error) {
	h, err := chain.HashFromString(id)
	if err != nil {
		return nil, fmt.Errorf("daemon: channel id: %w", err)
	}
	m.mu.Lock()
	payer := m.payers[h]
	payee := m.payees[h]
	m.mu.Unlock()
	switch {
	case payer != nil:
		m.settleMu.Lock()
		m.retirePayer(payer)
		m.settleMu.Unlock()
		return summarizeChannel(payer.State()), nil
	case payee != nil:
		if _, err := payee.Close(); err != nil {
			return nil, err
		}
		m.node.metrics.channelsClosed.Inc()
		m.node.metrics.channelsOpen.Dec()
		return summarizeChannel(payee.State()), nil
	default:
		return nil, fmt.Errorf("daemon: %w: %s", channel.ErrUnknownChannel, id)
	}
}

// ListChannels returns every known channel endpoint, payers first, in
// stable id order.
func (m *ChannelManager) ListChannels() (any, error) {
	m.mu.Lock()
	out := make([]ChannelSummary, 0, len(m.payers)+len(m.payees))
	for _, p := range m.payers {
		out = append(out, summarizeChannel(p.State()))
	}
	for _, g := range m.payees {
		out = append(out, summarizeChannel(g.State()))
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Role != out[j].Role {
			return out[i].Role < out[j].Role
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}
