// Package gateway implements the BcWAN foreign gateway: it serves
// ephemeral RSA-512 keys to nearby nodes over LoRa, forwards their
// encrypted messages to the right recipient by resolving @R in the
// blockchain, and claims its payment by revealing the ephemeral private
// key (Fig. 3 steps 1–2, 6–7 and 10).
package gateway

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/device"
	"bcwan/internal/fairex"
	"bcwan/internal/lora"
	"bcwan/internal/registry"
	"bcwan/internal/telemetry"
	"bcwan/internal/wallet"
)

// Config tunes a gateway's exchange policy.
type Config struct {
	// Price is the amount asked per delivery.
	Price uint64
	// RefundWindow is the refund lock offered to buyers, in blocks
	// (Listing 1 uses 100).
	RefundWindow int64
	// WaitConfirmations is how many confirmations of the payment the
	// gateway requires before revealing eSk. The paper's PoC uses 0
	// (discussed as a deliberate double-spend exposure in §6).
	WaitConfirmations int64
	// ClaimFee is the fee paid by the claim transaction.
	ClaimFee uint64
}

// DefaultConfig mirrors the proof of concept: no confirmation wait.
func DefaultConfig() Config {
	return Config{Price: 100, RefundWindow: 100, WaitConfirmations: 0, ClaimFee: 1}
}

// Gateway errors.
var (
	// ErrUnknownDevice reports a data frame from a device that never
	// requested a key.
	ErrUnknownDevice = errors.New("gateway: no pending ephemeral key for device")
	// ErrPaymentNotVisible reports a payment txid the gateway cannot
	// see in its mempool or chain.
	ErrPaymentNotVisible = errors.New("gateway: payment transaction not visible")
	// ErrNotEnoughConfirmations reports a payment below the configured
	// confirmation threshold.
	ErrNotEnoughConfirmations = errors.New("gateway: payment lacks confirmations")
)

// pendingExchange is the per-message state between key handout and claim.
type pendingExchange struct {
	key *bccrypto.RSA512PrivateKey
	pub []byte
	// issued is when the key was handed out; zero unless the gateway is
	// instrumented (it only feeds the key-disclosure histogram).
	issued time.Time
	// queued is this exchange's place in Gateway.pendingOrder.
	queued *list.Element
}

// exchangeKey identifies one pending exchange: the ephemeral pair is
// minted per key request, and the device echoes the request counter in
// its data frame so retransmitted requests cannot desynchronize the pair.
type exchangeKey struct {
	eui     lora.DevEUI
	counter uint32
}

// maxPending bounds abandoned exchange state: keys issued and neither
// claimed nor disclosed. Past it the oldest is dropped.
const maxPending = 10_000

// keyPoolSize is how many ephemeral pairs a gateway keeps minted ahead
// of the key requests that take them (DESIGN.md §18).
const keyPoolSize = 4

// mintedKey is one ephemeral pair and its public half's wire encoding.
type mintedKey struct {
	key *bccrypto.RSA512PrivateKey
	pub []byte
}

func mintKey(random io.Reader) (mintedKey, error) {
	key, err := bccrypto.GenerateRSA512(random)
	if err != nil {
		return mintedKey{}, err
	}
	return mintedKey{key: key, pub: bccrypto.MarshalRSA512PublicKey(key.Public())}, nil
}

// Gateway is one foreign gateway.
type Gateway struct {
	cfg    Config
	wallet *wallet.Wallet
	ledger *fairex.Node
	dir    *registry.Directory
	// random is read by key requests and by the key-pool refill at once.
	random io.Reader

	mu      sync.Mutex
	pending map[exchangeKey]*pendingExchange
	// pendingOrder lists the keys of pending, oldest first. The two hold
	// the same exchanges at all times — settling unlinks the element —
	// so an evicted head is always a live, abandoned exchange.
	pendingOrder *list.List
	// keys is the pool of pre-minted pairs, oldest first, never longer
	// than keyPoolSize; refilling is set while a refill goroutine runs.
	keys      []mintedKey
	refilling bool
	metrics   *gatewayMetrics

	// Stats counts protocol outcomes.
	Stats Stats
}

// Stats aggregates gateway outcomes for the experiment reports.
type Stats struct {
	KeysIssued     uint64
	Deliveries     uint64
	Claims         uint64
	FailedClaims   uint64
	UnknownDevices uint64
	// OffChainClaims counts exchanges settled through a payment-channel
	// update instead of an on-chain claim transaction.
	OffChainClaims uint64
}

// New creates a gateway.
func New(cfg Config, w *wallet.Wallet, ledger *fairex.Node, dir *registry.Directory, random io.Reader) *Gateway {
	return &Gateway{
		cfg:          cfg,
		wallet:       w,
		ledger:       ledger,
		dir:          dir,
		random:       bccrypto.SerialReader(random),
		pending:      make(map[exchangeKey]*pendingExchange),
		pendingOrder: list.New(),
		keys:         make([]mintedKey, 0, keyPoolSize),
	}
}

// Wallet returns the gateway's wallet.
func (g *Gateway) Wallet() *wallet.Wallet { return g.wallet }

// Price returns the amount the gateway asks per delivery.
func (g *Gateway) Price() uint64 { return g.cfg.Price }

// Instrument registers exchange metrics in reg (started/settled/failed
// counters and key-disclosure latency). Call before concurrent use; a
// nil registry is a no-op.
func (g *Gateway) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.metrics = newGatewayMetrics(reg)
}

// HandleKeyRequest performs Fig. 3 steps 1–2: take a fresh ephemeral
// RSA-512 pair for this message and answer with the public half.
func (g *Gateway) HandleKeyRequest(f *lora.Frame) (*lora.Frame, error) {
	if f.Type != lora.FrameKeyRequest {
		return nil, fmt.Errorf("gateway: frame type %d is not a key request", f.Type)
	}
	k, err := g.takeKey()
	if err != nil {
		return nil, fmt.Errorf("gateway: ephemeral keygen: %w", err)
	}
	g.track(exchangeKey{eui: f.DevEUI, counter: f.Counter}, &pendingExchange{key: k.key, pub: k.pub})
	// The response echoes the request counter; the device repeats it in
	// its data frame to name this exchange.
	return &lora.Frame{
		Type:    lora.FrameKeyResponse,
		DevEUI:  f.DevEUI,
		Counter: f.Counter,
		Payload: k.pub,
	}, nil
}

// takeKey hands out the oldest pooled pair, each exactly once, and
// starts a refill unless one is running. On an empty pool it mints the
// pair inline instead of waiting for the refill.
func (g *Gateway) takeKey() (mintedKey, error) {
	g.mu.Lock()
	var k mintedKey
	pooled := len(g.keys) > 0
	if pooled {
		k = g.keys[0]
		n := copy(g.keys, g.keys[1:])
		g.keys[n] = mintedKey{}
		g.keys = g.keys[:n]
	} else if g.metrics != nil {
		g.metrics.keysMintedInline.Inc()
	}
	if !g.refilling {
		g.refilling = true
		go g.refill()
	}
	g.mu.Unlock()
	if pooled {
		return k, nil
	}
	return mintKey(g.random)
}

// refill tops the pool up to keyPoolSize and exits. A keygen error ends
// it early; the inline mint of the request that finds the pool empty
// then reports the error.
func (g *Gateway) refill() {
	for {
		k, err := mintKey(g.random)
		g.mu.Lock()
		if err == nil {
			g.keys = append(g.keys, k)
		}
		if err != nil || len(g.keys) >= keyPoolSize {
			g.refilling = false
			g.mu.Unlock()
			return
		}
		g.mu.Unlock()
	}
}

// track records a freshly keyed exchange as pending, dropping the oldest
// pending one past maxPending.
func (g *Gateway) track(ek exchangeKey, pend *pendingExchange) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if prior, exists := g.pending[ek]; exists {
		// A retransmitted request replaces the pair and keeps its age.
		pend.queued = prior.queued
	} else {
		pend.queued = g.pendingOrder.PushBack(ek)
	}
	if g.metrics != nil {
		pend.issued = time.Now()
		g.metrics.exchangesStarted.Inc()
	}
	g.pending[ek] = pend
	if g.pendingOrder.Len() > maxPending {
		g.retireLocked(g.pendingOrder.Front().Value.(exchangeKey))
	}
	g.Stats.KeysIssued++
}

// HandleData performs Fig. 3 steps 6–7: decode (Em ‖ Sig ‖ @R), resolve
// the recipient's IP in the blockchain directory, and produce the
// Delivery to send together with the destination address.
func (g *Gateway) HandleData(f *lora.Frame) (*fairex.Delivery, string, error) {
	if f.Type != lora.FrameData {
		return nil, "", fmt.Errorf("gateway: frame type %d is not a data frame", f.Type)
	}
	payload, err := device.DecodeDataPayload(f.Payload)
	if err != nil {
		return nil, "", fmt.Errorf("gateway: %w", err)
	}
	ek := exchangeKey{eui: f.DevEUI, counter: f.Counter}
	g.mu.Lock()
	pend, ok := g.pending[ek]
	g.mu.Unlock()
	if !ok {
		g.mu.Lock()
		g.Stats.UnknownDevices++
		g.mu.Unlock()
		return nil, "", fmt.Errorf("%w: %s (exchange %d)", ErrUnknownDevice, f.DevEUI, f.Counter)
	}
	binding, err := g.dir.Lookup(payload.Recipient)
	if err != nil {
		return nil, "", fmt.Errorf("gateway: resolve @R %x: %w", payload.Recipient, err)
	}
	d := &fairex.Delivery{
		DevEUI:            f.DevEUI,
		Exchange:          f.Counter,
		Em:                payload.Em,
		EPk:               pend.pub,
		Sig:               payload.Sig,
		GatewayPubKeyHash: g.wallet.PubKeyHash(),
		Price:             g.cfg.Price,
		RefundWindow:      g.cfg.RefundWindow,
	}
	g.mu.Lock()
	g.Stats.Deliveries++
	g.mu.Unlock()
	return d, binding.NetAddr, nil
}

// VerifyAndClaim performs Fig. 3 step 10: after the recipient announces
// its payment transaction, check it honors the terms, optionally wait for
// confirmations, then build and submit the claim transaction whose
// unlocking script reveals eSk.
func (g *Gateway) VerifyAndClaim(devEUI lora.DevEUI, exchange uint32, paymentID chain.Hash, offerHeight int64) (*chain.Tx, error) {
	ek := exchangeKey{eui: devEUI, counter: exchange}
	g.mu.Lock()
	pend, ok := g.pending[ek]
	g.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s (exchange %d)", ErrUnknownDevice, devEUI, exchange)
	}

	payment, visible := g.ledger.PendingTx(paymentID)
	confirmed := false
	if !visible {
		var conf *chain.Tx
		conf, _, confirmed = g.ledger.FindTx(paymentID)
		if !confirmed {
			return nil, fmt.Errorf("%w: %s", ErrPaymentNotVisible, paymentID)
		}
		payment = conf
	}

	// Re-derive the delivery terms to validate the payment.
	d := &fairex.Delivery{
		DevEUI:            devEUI,
		Exchange:          exchange,
		EPk:               pend.pub,
		GatewayPubKeyHash: g.wallet.PubKeyHash(),
		Price:             g.cfg.Price,
		RefundWindow:      g.cfg.RefundWindow,
	}
	if err := fairex.CheckPayment(d, payment, offerHeight); err != nil {
		g.bumpFailed()
		return nil, err
	}

	if g.cfg.WaitConfirmations > 0 {
		if got := g.ledger.Confirmations(paymentID); got < g.cfg.WaitConfirmations {
			return nil, fmt.Errorf("%w: have %d, want %d",
				ErrNotEnoughConfirmations, got, g.cfg.WaitConfirmations)
		}
	}

	claim, err := g.wallet.BuildClaim(
		chain.OutPoint{TxID: paymentID, Index: 0}, payment.Outputs[0], pend.key, g.cfg.ClaimFee)
	if err != nil {
		g.bumpFailed()
		return nil, fmt.Errorf("gateway: build claim: %w", err)
	}
	if err := g.ledger.Submit(claim); err != nil {
		g.bumpFailed()
		return nil, fmt.Errorf("gateway: submit claim: %w", err)
	}
	g.mu.Lock()
	g.Stats.Claims++
	g.retireLocked(ek)
	if g.metrics != nil {
		g.metrics.exchangesSettled.Inc()
		if !pend.issued.IsZero() {
			g.metrics.keyDisclosureSeconds.ObserveSince(pend.issued)
		}
	}
	g.mu.Unlock()
	return claim, nil
}

// DiscloseKey settles an exchange off-chain: it returns the marshaled
// ephemeral private key for a pending exchange and retires it. The caller
// (the channel manager) invokes this only after a channel update covering
// the exchange price has been verified, countersigned, and persisted —
// the off-chain analogue of the claim transaction revealing eSk.
func (g *Gateway) DiscloseKey(devEUI lora.DevEUI, exchange uint32) ([]byte, error) {
	ek := exchangeKey{eui: devEUI, counter: exchange}
	g.mu.Lock()
	defer g.mu.Unlock()
	pend, ok := g.pending[ek]
	if !ok {
		return nil, fmt.Errorf("%w: %s (exchange %d)", ErrUnknownDevice, devEUI, exchange)
	}
	g.retireLocked(ek)
	g.Stats.OffChainClaims++
	if g.metrics != nil {
		g.metrics.exchangesSettled.Inc()
		if !pend.issued.IsZero() {
			g.metrics.keyDisclosureSeconds.ObserveSince(pend.issued)
		}
	}
	return bccrypto.MarshalRSA512PrivateKey(pend.key), nil
}

// retireLocked forgets a pending exchange, if it still is one, in the
// map and the age order together; the caller holds g.mu.
func (g *Gateway) retireLocked(ek exchangeKey) {
	if pend, ok := g.pending[ek]; ok {
		g.pendingOrder.Remove(pend.queued)
		delete(g.pending, ek)
	}
}

func (g *Gateway) bumpFailed() {
	g.mu.Lock()
	g.Stats.FailedClaims++
	if g.metrics != nil {
		g.metrics.exchangesFailed.Inc()
	}
	g.mu.Unlock()
}
