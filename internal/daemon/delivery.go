package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/fairex"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/recipient"
	"bcwan/internal/registry"
	"bcwan/internal/reputation"
	"bcwan/internal/wallet"
)

// The Fig. 3 step 7 wire protocol: a gateway dials the recipient's
// published address, sends one JSON-encoded fairex.Delivery, and reads one
// fairex.Ack carrying the payment transaction id.

// deliveryTimeout bounds one delivery round trip.
const deliveryTimeout = 30 * time.Second

// GatewayDaemon is a deployable foreign gateway: a blockchain node plus
// the gateway actor and the TCP delivery client.
type GatewayDaemon struct {
	Node    *Node
	Gateway *gateway.Gateway
	logger  *log.Logger
	// channels is the payee-side channel manager (nil = on-chain only).
	channels *ChannelManager
}

// EnableChannels attaches a payee-side channel manager: the gateway
// advertises channel settlement in every delivery and answers verified
// commitment updates with the exchange's ephemeral key.
func (g *GatewayDaemon) EnableChannels(cfg ChannelConfig) (*ChannelManager, error) {
	if cfg.Price == 0 {
		// Every update must pay at least the delivery price, or a payer
		// could drain key disclosures for 1 unit apiece.
		cfg.Price = g.Gateway.Price()
	}
	mgr, err := newChannelManager(g.Node, g.Gateway.Wallet(), cfg, g.Gateway.DiscloseKey, nil)
	if err != nil {
		return nil, err
	}
	g.channels = mgr
	g.Node.setChannelOps(mgr)
	return mgr, nil
}

// NewGatewayDaemon wires a gateway actor onto a node.
func NewGatewayDaemon(node *Node, cfg gateway.Config, random io.Reader, logger *log.Logger) (*GatewayDaemon, error) {
	// The wallet signs claims while the gateway's key pool refills, both
	// from this one source.
	random = bccrypto.SerialReader(randomOrDefault(random))
	w, err := wallet.New(random)
	if err != nil {
		return nil, fmt.Errorf("daemon: gateway wallet: %w", err)
	}
	gw := gateway.New(cfg, w, node.Ledger(), node.Directory(), random)
	gw.Instrument(node.Telemetry())
	return &GatewayDaemon{
		Node:    node,
		Gateway: gw,
		logger:  logger,
	}, nil
}

// HandleUplink processes one LoRa frame from a sensor: key requests are
// answered locally (the returned frame is the downlink); data frames are
// delivered to the recipient over TCP and the payment is claimed. It
// returns the downlink frame for key requests, nil otherwise.
func (g *GatewayDaemon) HandleUplink(f *lora.Frame) (*lora.Frame, error) {
	switch f.Type {
	case lora.FrameKeyRequest:
		return g.Gateway.HandleKeyRequest(f)
	case lora.FrameData:
		return nil, g.deliverAndClaim(f)
	default:
		return nil, fmt.Errorf("daemon: unexpected frame type %d", f.Type)
	}
}

func (g *GatewayDaemon) deliverAndClaim(f *lora.Frame) error {
	offerHeight := g.Node.Chain().Height()
	delivery, netAddr, err := g.Gateway.HandleData(f)
	if err != nil {
		return err
	}
	if g.channels != nil {
		// Advertise off-chain settlement: the recipient may pay through a
		// channel update instead of a payment transaction.
		delivery.GatewayPubKey = g.Gateway.Wallet().PublicBytes()
		delivery.GatewayP2P = g.Node.P2PAddr()
	}
	ack, err := sendDelivery(netAddr, delivery)
	if err != nil {
		return fmt.Errorf("daemon: deliver to %s: %w", netAddr, err)
	}
	g.Node.metrics.deliveriesSent.Inc()
	if !ack.Accepted {
		return fmt.Errorf("daemon: recipient refused delivery: %s", ack.Reason)
	}
	if ack.ChannelID != "" {
		// Settled off-chain: the channel manager already disclosed the
		// key against the countersigned update — nothing to claim.
		return nil
	}
	paymentID, err := chain.HashFromString(ack.PaymentTxID)
	if err != nil {
		return fmt.Errorf("daemon: ack payment id: %w", err)
	}
	return g.claim(delivery, paymentID, offerHeight)
}

// claim performs Fig. 3 step 10 on this node's replica. The payment was
// admitted on the recipient's node, so the claim is re-tried each time a
// pool admission or block connect here may have surfaced (or confirmed)
// it, until deliveryTimeout. Any other verdict is permanent — a payment
// that fails CheckPayment cannot start passing — and returns at once.
func (g *GatewayDaemon) claim(d *fairex.Delivery, paymentID chain.Hash, offerHeight int64) error {
	start := time.Now()
	timeout := time.NewTimer(deliveryTimeout)
	defer timeout.Stop()
	for woken := false; ; woken = true {
		changed := g.Node.ledgerChanged() // before the check: no lost wake-up
		_, err := g.Gateway.VerifyAndClaim(d.DevEUI, d.Exchange, paymentID, offerHeight)
		switch {
		case err == nil:
			g.Node.metrics.claimWaitSeconds.ObserveSince(start)
			return nil
		case !errors.Is(err, gateway.ErrPaymentNotVisible) && !errors.Is(err, gateway.ErrNotEnoughConfirmations):
			return fmt.Errorf("daemon: claim: %w", err)
		case woken:
			g.Node.metrics.claimRechecks.Inc()
		}
		select {
		case <-changed:
		case <-timeout.C:
			return fmt.Errorf("daemon: claim: %w", err)
		}
	}
}

// sendDelivery performs the TCP round trip of Fig. 3 step 7.
func sendDelivery(addr string, d *fairex.Delivery) (*fairex.Ack, error) {
	conn, err := net.DialTimeout("tcp", addr, deliveryTimeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(deliveryTimeout)); err != nil {
		return nil, err
	}
	if err := json.NewEncoder(conn).Encode(d); err != nil {
		return nil, fmt.Errorf("send delivery: %w", err)
	}
	var ack fairex.Ack
	if err := json.NewDecoder(conn).Decode(&ack); err != nil {
		return nil, fmt.Errorf("read ack: %w", err)
	}
	return &ack, nil
}

// RecipientDaemon is a deployable recipient: a blockchain node plus the
// recipient actor, a TCP listener for gateway deliveries, and a chain
// watcher that settles exchanges as claims confirm.
type RecipientDaemon struct {
	Node      *Node
	Recipient *recipient.Recipient
	listener  net.Listener
	logger    *log.Logger
	// channels is the payer-side channel manager (nil = on-chain only).
	channels *ChannelManager

	mu       sync.Mutex
	inbox    []*recipient.Message
	onRecv   func(*recipient.Message)
	closed   bool
	loopDone chan struct{}
}

// NewRecipientDaemon wires a recipient actor onto a node, funds nothing
// (the caller funds its wallet), starts the delivery listener on
// listenAddr, and publishes the @R → IP binding once the wallet has
// funds (call PublishBinding).
func NewRecipientDaemon(node *Node, cfg recipient.Config, listenAddr string, random io.Reader, logger *log.Logger) (*RecipientDaemon, error) {
	w, err := wallet.New(randomOrDefault(random))
	if err != nil {
		return nil, fmt.Errorf("daemon: recipient wallet: %w", err)
	}
	l, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("daemon: recipient listen: %w", err)
	}
	r := &RecipientDaemon{
		Node:      node,
		Recipient: recipient.New(cfg, w, node.Ledger(), randomOrDefault(random)),
		listener:  l,
		logger:    logger,
		loopDone:  make(chan struct{}),
	}
	// Settle pending exchanges as blocks (with claims) arrive.
	node.Chain().Subscribe(func(*chain.Block) { r.settlePending() })
	go r.acceptLoop()
	return r, nil
}

// Addr returns the delivery listener address.
func (r *RecipientDaemon) Addr() string { return r.listener.Addr().String() }

// EnableChannels attaches a payer-side channel manager: deliveries that
// advertise a channel endpoint settle off-chain, falling back to the
// on-chain payment path on any channel failure.
func (r *RecipientDaemon) EnableChannels(cfg ChannelConfig) (*ChannelManager, error) {
	mgr, err := newChannelManager(r.Node, r.Recipient.Wallet(), cfg, nil, r.Recipient.Spending)
	if err != nil {
		return nil, err
	}
	r.channels = mgr
	r.Node.setChannelOps(mgr)
	return mgr, nil
}

// UseReputation threads a shared reputation system into the delivery
// path: deliveries from untrusted gateways are refused before payment,
// replays are detected and reported, and a channel counterparty that
// takes a commitment update without disclosing a valid key is reported
// as a real loss (no refund script protects a channel delta).
func (r *RecipientDaemon) UseReputation(sys *reputation.System) {
	r.Recipient.UseReputation(sys)
}

// settleViaChannel pays for one delivery through a channel update and
// decrypts the message with the disclosed key.
func (r *RecipientDaemon) settleViaChannel(d *fairex.Delivery) (*recipient.Message, *ChannelSettlement, error) {
	if err := r.Recipient.AcceptDeliveryOffChain(d); err != nil {
		return nil, nil, err
	}
	settle, err := r.channels.SettleDelivery(d)
	if err != nil {
		r.Recipient.DropOffChain(d.DevEUI, d.Exchange)
		if errors.Is(err, fairex.ErrBadDisclosedKey) {
			// The gateway countersigned the update (it holds the new
			// commitment) but the disclosed key is junk: the delta is
			// gone. Unlike the on-chain script there is no refund path,
			// so this is the one bounded loss the invariant permits.
			r.Recipient.ReportNonDisclosure(d.GatewayPubKeyHash, d.Price)
		}
		return nil, nil, err
	}
	msg, err := r.Recipient.SettleOffChain(d.DevEUI, d.Exchange, settle.Key)
	if err != nil {
		return nil, nil, err
	}
	return msg, settle, nil
}

// OnReceive installs a callback for decrypted messages.
func (r *RecipientDaemon) OnReceive(fn func(*recipient.Message)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onRecv = fn
}

// Inbox returns the decrypted messages so far.
func (r *RecipientDaemon) Inbox() []*recipient.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*recipient.Message(nil), r.inbox...)
}

// PublishBinding broadcasts the @R → IP binding transaction (§4.3) and
// returns it so callers can track its confirmation. The wallet must hold
// funds for the fee; the fee is spent under the lock key-release payments
// are built under.
func (r *RecipientDaemon) PublishBinding(fee uint64) (*chain.Tx, error) {
	w := r.Recipient.Wallet()
	var tx *chain.Tx
	err := r.Recipient.Spending(func() error {
		var err error
		if tx, err = registry.BuildPublish(w, r.Node.Ledger().Spendable(w.PubKeyHash()), r.Addr(), fee); err != nil {
			return err
		}
		return r.Node.Ledger().Submit(tx)
	})
	if err != nil {
		return nil, err
	}
	return tx, nil
}

// Close stops the delivery listener.
func (r *RecipientDaemon) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	err := r.listener.Close()
	<-r.loopDone
	return err
}

func (r *RecipientDaemon) acceptLoop() {
	defer close(r.loopDone)
	for {
		conn, err := r.listener.Accept()
		if err != nil {
			return
		}
		go r.handleConn(conn)
	}
}

func (r *RecipientDaemon) handleConn(conn net.Conn) {
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(deliveryTimeout)); err != nil {
		return
	}
	var d fairex.Delivery
	if err := json.NewDecoder(conn).Decode(&d); err != nil {
		r.logf("delivery decode: %v", err)
		return
	}
	r.Node.metrics.deliveriesReceived.Inc()
	ack := fairex.Ack{}
	if r.channels != nil && len(d.GatewayPubKey) > 0 && d.GatewayP2P != "" {
		msg, settle, err := r.settleViaChannel(&d)
		if err == nil {
			ack.Accepted = true
			ack.ChannelID = settle.ChannelID.String()
			ack.ChannelVersion = settle.Version
			// Commit, then ack: the gateway treats the ack as "the
			// reading is in the inbox", so the append comes first.
			r.mu.Lock()
			r.inbox = append(r.inbox, msg)
			fn := r.onRecv
			r.mu.Unlock()
			if fn != nil {
				fn(msg)
			}
			if err := json.NewEncoder(conn).Encode(&ack); err != nil {
				r.logf("ack encode: %v", err)
			}
			return
		}
		r.logf("channel settle failed, falling back on-chain: %v", err)
	}
	// Commit, then ack, on-chain too: HandleDelivery returns only after
	// Submit has admitted the payment to this node's mempool, so the id
	// the ack names is already pooled here and on its way to the gateway.
	payment, err := r.Recipient.HandleDelivery(&d)
	if err != nil {
		ack.Reason = err.Error()
	} else {
		ack.Accepted = true
		ack.PaymentTxID = payment.ID().String()
	}
	if err := json.NewEncoder(conn).Encode(&ack); err != nil {
		r.logf("ack encode: %v", err)
	}
}

// settlePending tries to settle every pending exchange from confirmed
// claims.
func (r *RecipientDaemon) settlePending() {
	for _, paymentID := range r.Recipient.PendingPayments() {
		msg, err := r.Recipient.SettleClaim(paymentID)
		if err != nil {
			continue // claim not on chain yet
		}
		r.mu.Lock()
		r.inbox = append(r.inbox, msg)
		fn := r.onRecv
		r.mu.Unlock()
		if fn != nil {
			fn(msg)
		}
	}
}

func (r *RecipientDaemon) logf(format string, args ...any) {
	if r.logger != nil {
		r.logger.Printf("recipient %s: %s", r.Addr(), fmt.Sprintf(format, args...))
	}
}
