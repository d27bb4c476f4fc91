package daemon

import (
	"errors"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/fairex"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/p2p"
	"bcwan/internal/recipient"
	"bcwan/internal/registry"
	"bcwan/internal/wallet"
)

// Fig. 3 step 7 rides the p2p overlay: the gateway sends the
// fairex.Delivery to the overlay address @R's binding names, and the
// recipient answers with a deliveryack, both in the p2p wire format.
const (
	msgTypeDelivery    = "delivery"
	msgTypeDeliveryAck = "deliveryack"
	// maxDeliveryField bounds each byte string of a delivery or an ack;
	// the largest real one, the ephemeral public key, is under 100 bytes.
	maxDeliveryField = 1 << 10
	// maxDeliveriesInFlight bounds the deliveries a recipient settles at
	// once; one more is refused.
	maxDeliveriesInFlight = 16
)

// deliveryTimeout bounds one delivery round trip, and the claim wait
// after it. A variable so tests can shrink it.
var deliveryTimeout = 30 * time.Second

// deliveryAck is the deliveryack payload.
type deliveryAck struct {
	DevEUI   lora.DevEUI
	Exchange uint32
	fairex.Ack
}

// ackKey names a delivery awaiting its ack: the address it went to,
// which the ack must come from, and its exchange.
type ackKey struct {
	peer     string
	dev      lora.DevEUI
	exchange uint32
}

func encodeDelivery(d *fairex.Delivery) []byte {
	w := p2p.NewWriter(1 + 8 + 4 + 4*4 + len(d.Em) + len(d.EPk) + len(d.Sig) + 20 + 8 + 8 + len(d.GatewayPubKey))
	w.Fixed(d.DevEUI[:])
	w.Uint32(d.Exchange)
	w.Bytes(d.Em)
	w.Bytes(d.EPk)
	w.Bytes(d.Sig)
	w.Fixed(d.GatewayPubKeyHash[:])
	w.Uint64(d.Price)
	w.Uint64(uint64(d.RefundWindow))
	w.Bytes(d.GatewayPubKey)
	return w.Payload()
}

func decodeDelivery(payload []byte) (*fairex.Delivery, error) {
	r := p2p.NewReader(payload)
	d := new(fairex.Delivery)
	r.Fixed(d.DevEUI[:])
	d.Exchange = r.Uint32()
	d.Em, d.EPk, d.Sig = r.Bytes(maxDeliveryField), r.Bytes(maxDeliveryField), r.Bytes(maxDeliveryField)
	r.Fixed(d.GatewayPubKeyHash[:])
	d.Price = r.Uint64()
	d.RefundWindow = int64(r.Uint64())
	d.GatewayPubKey = r.Bytes(maxDeliveryField)
	return d, r.Done()
}

func (a *deliveryAck) encode() []byte {
	w := p2p.NewWriter(1 + 8 + 4 + 1 + 32 + 32 + 4 + len(a.Reason))
	w.Fixed(a.DevEUI[:])
	w.Uint32(a.Exchange)
	w.Bool(a.Accepted)
	w.Fixed(a.PaymentTxID[:])
	w.Fixed(a.ChannelID[:])
	w.Bytes([]byte(a.Reason))
	return w.Payload()
}

func decodeDeliveryAck(payload []byte) (*deliveryAck, error) {
	r := p2p.NewReader(payload)
	a := new(deliveryAck)
	r.Fixed(a.DevEUI[:])
	a.Exchange = r.Uint32()
	a.Accepted = r.Bool()
	r.Fixed(a.PaymentTxID[:])
	r.Fixed(a.ChannelID[:])
	a.Reason = string(r.Bytes(maxDeliveryField))
	return a, r.Done()
}

// GatewayDaemon is a deployable foreign gateway: a blockchain node plus
// the gateway actor, delivering over the node's overlay.
type GatewayDaemon struct {
	Node    *Node
	Gateway *gateway.Gateway
	logger  *log.Logger
	// channels is the payee-side channel manager (nil = on-chain only).
	channels *ChannelManager
	// acks routes each deliveryack to the delivery waiting for it.
	acks replies[ackKey, *fairex.Ack]
}

// EnableChannels attaches a payee-side channel manager: the gateway
// advertises channel settlement in every delivery and answers verified
// commitment updates with the exchange's ephemeral key.
func (g *GatewayDaemon) EnableChannels(cfg ChannelConfig) (*ChannelManager, error) {
	mgr, err := newChannelManager(g.Node, g.Gateway.Wallet(), cfg, g.Gateway.DiscloseKey, g.Gateway.Price(), nil)
	if err != nil {
		return nil, err
	}
	g.channels = mgr
	g.Node.setChannels(mgr)
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
	g := &GatewayDaemon{
		Node:    node,
		Gateway: gw,
		logger:  logger,
	}
	p2p.Handle(node.gossip, msgTypeDeliveryAck, decodeDeliveryAck, g.onDeliveryAck)
	return g, nil
}

// HandleUplink processes one LoRa frame from a sensor: key requests are
// answered locally (the returned frame is the downlink); data frames are
// delivered to the recipient node and the payment is claimed. It
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
	}
	ack, err := g.deliver(netAddr, delivery)
	if err != nil {
		return fmt.Errorf("daemon: deliver to %s: %w", netAddr, err)
	}
	g.Node.metrics.deliveriesSent.Inc()
	if !ack.Accepted {
		return fmt.Errorf("daemon: recipient refused delivery: %s", ack.Reason)
	}
	if ack.ChannelID != (chain.Hash{}) {
		// Settled off-chain: the channel manager already disclosed the
		// key against the countersigned update — nothing to claim.
		return nil
	}
	return g.claim(delivery, ack.PaymentTxID, offerHeight)
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

// deliver performs Fig. 3 step 7: the delivery to the recipient node at
// addr, then its deliveryack, accepted only from addr.
func (g *GatewayDaemon) deliver(addr string, d *fairex.Delivery) (*fairex.Ack, error) {
	acked, cancel := g.acks.wait(ackKey{addr, d.DevEUI, d.Exchange})
	defer cancel()
	if !g.Node.send(addr, msgTypeDelivery, encodeDelivery(d)) {
		return nil, errors.New("recipient unreachable")
	}
	timeout := time.NewTimer(deliveryTimeout)
	defer timeout.Stop()
	select {
	case ack := <-acked:
		return ack, nil
	case <-timeout.C:
		return nil, fmt.Errorf("no ack within %s", deliveryTimeout)
	}
}

func (g *GatewayDaemon) onDeliveryAck(from string, a *deliveryAck) {
	g.acks.deliver(ackKey{from, a.DevEUI, a.Exchange}, &a.Ack)
}

// RecipientDaemon is a deployable recipient: a blockchain node plus the
// recipient actor, a delivery handler on the node's overlay, and a chain
// watcher that settles exchanges as claims confirm.
type RecipientDaemon struct {
	Node      *Node
	Recipient *recipient.Recipient
	logger    *log.Logger
	// channels is the payer-side channel manager (nil = on-chain only).
	channels *ChannelManager
	// slots holds one token per delivery being settled; Close takes them
	// all for good.
	slots     chan struct{}
	closeOnce sync.Once

	mu     sync.Mutex
	inbox  []*recipient.Message
	onRecv func(*recipient.Message)
}

// NewRecipientDaemon wires a recipient actor onto a node, taking
// deliveries on its overlay, and funds nothing (the caller funds its
// wallet, then calls PublishBinding). listenAddr is unused — deliveries
// arrive on the node's p2p listener — and stays for existing callers.
func NewRecipientDaemon(node *Node, cfg recipient.Config, listenAddr string, random io.Reader, logger *log.Logger) (*RecipientDaemon, error) {
	w, err := wallet.New(randomOrDefault(random))
	if err != nil {
		return nil, fmt.Errorf("daemon: recipient wallet: %w", err)
	}
	r := &RecipientDaemon{
		Node:      node,
		Recipient: recipient.New(cfg, w, node.Ledger()),
		logger:    logger,
		slots:     make(chan struct{}, maxDeliveriesInFlight),
	}
	// Settle pending exchanges as blocks (with claims) arrive.
	node.Chain().Subscribe(func(*chain.Block) { r.settlePending() })
	p2p.Handle(node.gossip, msgTypeDelivery, decodeDelivery, r.onDelivery)
	return r, nil
}

// EnableChannels attaches a payer-side channel manager: deliveries that
// advertise a channel endpoint settle off-chain, falling back to the
// on-chain payment path on any channel failure.
func (r *RecipientDaemon) EnableChannels(cfg ChannelConfig) (*ChannelManager, error) {
	mgr, err := newChannelManager(r.Node, r.Recipient.Wallet(), cfg, nil, 0, r.Recipient.Spending)
	if err != nil {
		return nil, err
	}
	r.channels = mgr
	r.Node.setChannels(mgr)
	return mgr, nil
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

// PublishBinding broadcasts the @R → IP binding transaction (§4.3) for
// the node's overlay address and returns it so callers can track its
// confirmation. The wallet must hold funds for the fee; the fee is
// spent under the lock key-release payments are built under.
func (r *RecipientDaemon) PublishBinding(fee uint64) (*chain.Tx, error) {
	w := r.Recipient.Wallet()
	var tx *chain.Tx
	err := r.Recipient.Spending(func() error {
		var err error
		if tx, err = registry.BuildPublish(w, r.Node.Ledger().Spendable(w.PubKeyHash()), r.Node.P2PAddr(), fee); err != nil {
			return err
		}
		return r.Node.Ledger().Submit(tx)
	})
	if err != nil {
		return nil, err
	}
	return tx, nil
}

// Close waits for the deliveries in flight and refuses every later one.
func (r *RecipientDaemon) Close() error {
	r.closeOnce.Do(func() {
		for i := 0; i < cap(r.slots); i++ {
			r.slots <- struct{}{}
		}
	})
	return nil
}

// onDelivery settles one delivery on a slot of its own, never on the
// p2p read loop: the channel branch waits for a chanupdateack that can
// arrive on this very connection. With every slot taken, or the daemon
// closed, the gateway is refused at once.
func (r *RecipientDaemon) onDelivery(from string, d *fairex.Delivery) {
	r.Node.metrics.deliveriesReceived.Inc()
	select {
	case r.slots <- struct{}{}:
	default:
		r.reply(from, d, fairex.Ack{Reason: "recipient busy"})
		return
	}
	go func() {
		if ack, answer := r.settle(from, d); answer {
			r.reply(from, d, ack)
		}
		<-r.slots
	}()
}

// settle admits one delivery and pays for it through the channel the
// gateway at from offers or, failing that, on-chain. It returns the ack
// to send, or false for a copy of a delivery already in flight: the
// first copy's ack is the gateway's one answer.
func (r *RecipientDaemon) settle(from string, d *fairex.Delivery) (fairex.Ack, bool) {
	x, err := r.Recipient.Admit(d)
	if errors.Is(err, recipient.ErrDeliveryInFlight) {
		return fairex.Ack{}, false
	}
	if err != nil {
		return fairex.Ack{Reason: err.Error()}, true
	}
	if r.channels != nil && len(d.GatewayPubKey) > 0 {
		settled, err := r.channels.SettleDelivery(from, d)
		if err == nil {
			msg, err := r.Recipient.Open(x, settled.Key)
			if err != nil {
				return fairex.Ack{Reason: err.Error()}, true
			}
			// Commit, then ack: the gateway treats the ack as "the
			// reading is in the inbox", so the append comes first.
			r.receive(msg)
			return fairex.Ack{Accepted: true, ChannelID: settled.ChannelID}, true
		}
		if errors.Is(err, fairex.ErrBadDisclosedKey) {
			// The gateway countersigned the update (it holds the new
			// commitment) but the disclosed key is junk: the delta is
			// gone. Unlike the on-chain script there is no refund path,
			// so this is the one bounded loss the invariant permits, and
			// the gateway is not paid a second time.
			r.Recipient.ReportNonDisclosure(x, d.Price)
			return fairex.Ack{Reason: err.Error()}, true
		}
		r.logf("channel settle failed, falling back on-chain: %v", err)
	}
	// Commit, then ack, on-chain too: Pay returns only after Submit has
	// admitted the payment to this node's mempool, so the id the ack
	// names is already pooled here and on its way to the gateway.
	payment, err := r.Recipient.Pay(x)
	if err != nil {
		return fairex.Ack{Reason: err.Error()}, true
	}
	return fairex.Ack{Accepted: true, PaymentTxID: payment.ID()}, true
}

// reply sends the deliveryack for d to the node it came from.
func (r *RecipientDaemon) reply(to string, d *fairex.Delivery, ack fairex.Ack) {
	a := &deliveryAck{DevEUI: d.DevEUI, Exchange: d.Exchange, Ack: ack}
	if !r.Node.send(to, msgTypeDeliveryAck, a.encode()) {
		r.logf("deliveryack to %s: peer unreachable", to)
	}
}

// receive commits a decrypted message to the inbox, then calls back.
func (r *RecipientDaemon) receive(msg *recipient.Message) {
	r.mu.Lock()
	r.inbox = append(r.inbox, msg)
	fn := r.onRecv
	r.mu.Unlock()
	if fn != nil {
		fn(msg)
	}
}

// settlePending settles every pending exchange whose claim is
// confirmed, and refunds every one its gateway left unclaimed until the
// payment's refund height, so no payment stays locked, or pending, for
// ever.
func (r *RecipientDaemon) settlePending() {
	for _, paymentID := range r.Recipient.PendingPayments() {
		msg, err := r.Recipient.SettleClaim(paymentID)
		if err == nil {
			r.receive(msg)
			continue
		}
		if !errors.Is(err, fairex.ErrNoClaim) {
			continue
		}
		if _, err := r.Recipient.Refund(paymentID); err != nil && !errors.Is(err, recipient.ErrRefundTooEarly) {
			r.logf("refund of unclaimed payment %s: %v", paymentID, err)
		}
	}
}

func (r *RecipientDaemon) logf(format string, args ...any) {
	if r.logger != nil {
		r.logger.Printf("recipient %s: %s", r.Node.P2PAddr(), fmt.Sprintf(format, args...))
	}
}
