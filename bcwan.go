// Package bcwan is the public API of the BcWAN reproduction: a federated,
// blockchain-backed low-power WAN in which IoT end-devices deliver data to
// their home network through foreign gateways, and gateways are paid per
// delivery through an on-chain fair exchange (Bezahaf, Cathelain, Ducrocq:
// "BcWAN: A Federated Low-Power WAN for the Internet of Things",
// Middleware '18 Industry).
//
// The package wires the substrates in internal/ (blockchain with custom
// script operators, LoRa simulator, P2P overlay, wallets) into three
// actor roles — Gateway, Recipient, Sensor — sharing one Network. The
// typical flow mirrors the paper's Fig. 3:
//
//	net, _ := bcwan.NewNetwork(bcwan.DefaultNetworkConfig())
//	gw, _ := net.NewGateway(bcwan.DefaultGatewayConfig())
//	rcpt, _ := net.NewRecipient("10.0.0.7:7000", bcwan.DefaultRecipientConfig())
//	sensor, _ := rcpt.ProvisionSensor()
//	msg, _ := net.RunExchange(sensor, gw, rcpt, []byte("21.5C"))
package bcwan

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/device"
	"bcwan/internal/fairex"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/recipient"
	"bcwan/internal/registry"
	"bcwan/internal/wallet"
)

// NetworkConfig tunes the shared blockchain substrate.
type NetworkConfig struct {
	// BlockInterval is the target mining time (Multichain tunable).
	BlockInterval time.Duration
	// Treasury is the amount minted at genesis to fund actors.
	Treasury uint64
	// Random is the entropy source (defaults to crypto/rand). It need not
	// be safe for concurrent use: the network serializes its reads.
	Random io.Reader
}

// DefaultNetworkConfig mirrors the proof-of-concept chain settings.
func DefaultNetworkConfig() NetworkConfig {
	return NetworkConfig{
		BlockInterval: 15 * time.Second,
		Treasury:      100_000_000,
	}
}

// GatewayConfig re-exports the gateway policy knobs.
type GatewayConfig = gateway.Config

// DefaultGatewayConfig is the PoC policy: zero-confirmation claims.
func DefaultGatewayConfig() GatewayConfig { return gateway.DefaultConfig() }

// RecipientConfig re-exports the recipient policy knobs.
type RecipientConfig = recipient.Config

// DefaultRecipientConfig accepts the default price.
func DefaultRecipientConfig() RecipientConfig { return recipient.DefaultConfig() }

// Message is a decrypted sensor reading delivered to its recipient.
type Message = recipient.Message

// Network is an in-process BcWAN federation: one blockchain (chain +
// mempool + authorized miner), the on-chain IP directory, and a treasury
// that funds new actors.
type Network struct {
	cfg      NetworkConfig
	chain    *chain.Chain
	pool     *chain.Mempool
	miner    *chain.Miner
	ledger   *fairex.Node
	dir      *registry.Directory
	treasury *wallet.Wallet
	random   io.Reader

	mu  sync.Mutex
	now time.Time
}

// Network errors.
var (
	// ErrExchangeIncomplete reports a RunExchange that could not finish.
	ErrExchangeIncomplete = errors.New("bcwan: exchange incomplete")
)

// NewNetwork creates a federation with a funded treasury and a single
// authorized miner (the paper's master-node role).
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.Random == nil {
		cfg.Random = rand.Reader
	}
	// Every actor draws from this one source, and each gateway's key-pool
	// refill reads it from a goroutine of its own.
	cfg.Random = bccrypto.SerialReader(cfg.Random)
	if cfg.BlockInterval <= 0 {
		cfg.BlockInterval = 15 * time.Second
	}
	if cfg.Treasury == 0 {
		cfg.Treasury = 100_000_000
	}
	treasury, err := wallet.New(cfg.Random)
	if err != nil {
		return nil, fmt.Errorf("bcwan: treasury: %w", err)
	}
	minerWallet, err := wallet.New(cfg.Random)
	if err != nil {
		return nil, fmt.Errorf("bcwan: miner: %w", err)
	}
	params := chain.DefaultParams()
	params.BlockInterval = cfg.BlockInterval
	genesis := chain.GenesisBlock(map[[20]byte]uint64{treasury.PubKeyHash(): cfg.Treasury})
	c, err := chain.New(params, genesis)
	if err != nil {
		return nil, fmt.Errorf("bcwan: genesis: %w", err)
	}
	c.AuthorizeMiner(minerWallet.PublicBytes())
	pool := chain.NewMempool()
	pool.UseVerifier(c.Verifier())
	n := &Network{
		cfg:      cfg,
		chain:    c,
		pool:     pool,
		miner:    chain.NewMiner(minerWallet.Key(), c, pool, cfg.Random),
		treasury: treasury,
		random:   cfg.Random,
		now:      time.Now(),
	}
	n.ledger = &fairex.Node{Chain: c, Pool: pool}
	n.dir = registry.NewDirectory()
	n.dir.Attach(c)
	return n, nil
}

// Chain exposes the underlying blockchain (read-mostly: heights, blocks,
// confirmations).
func (n *Network) Chain() *chain.Chain { return n.chain }

// Ledger exposes the combined chain+mempool view protocol actors use.
func (n *Network) Ledger() *fairex.Node { return n.ledger }

// Directory exposes the on-chain IP directory (§4.3).
func (n *Network) Directory() *registry.Directory { return n.dir }

// MineBlock mints the next block from the mempool, advancing the
// network's logical clock by one block interval.
func (n *Network) MineBlock() (*chain.Block, error) {
	n.mu.Lock()
	n.now = n.now.Add(n.cfg.BlockInterval)
	at := n.now
	n.mu.Unlock()
	b, err := n.miner.Mine(at)
	if err != nil {
		return nil, fmt.Errorf("bcwan: mine: %w", err)
	}
	return b, nil
}

// Fund pays an amount from the treasury to a wallet and confirms it.
func (n *Network) Fund(w *wallet.Wallet, amount uint64) error {
	tx, err := n.treasury.BuildPayment(n.ledger.Spendable(n.treasury.PubKeyHash()), w.PubKeyHash(), amount, 1)
	if err != nil {
		return fmt.Errorf("bcwan: fund: %w", err)
	}
	if err := n.ledger.Submit(tx); err != nil {
		return fmt.Errorf("bcwan: fund: %w", err)
	}
	if _, err := n.MineBlock(); err != nil {
		return err
	}
	return nil
}

// Gateway is a foreign gateway actor.
type Gateway struct {
	*gateway.Gateway
	net *Network
}

// NewGateway creates a gateway on the network. Gateways need no funds:
// their revenue is the claims they win.
func (n *Network) NewGateway(cfg GatewayConfig) (*Gateway, error) {
	w, err := wallet.New(n.random)
	if err != nil {
		return nil, fmt.Errorf("bcwan: gateway wallet: %w", err)
	}
	return &Gateway{
		Gateway: gateway.New(cfg, w, n.ledger, n.dir, n.random),
		net:     n,
	}, nil
}

// Recipient is a home-network actor that pays for deliveries.
type Recipient struct {
	*recipient.Recipient
	net     *Network
	netAddr string
}

// NewRecipient creates a recipient listening at netAddr, funds it from
// the treasury, and publishes its IP binding on-chain.
func (n *Network) NewRecipient(netAddr string, cfg RecipientConfig) (*Recipient, error) {
	w, err := wallet.New(n.random)
	if err != nil {
		return nil, fmt.Errorf("bcwan: recipient wallet: %w", err)
	}
	if err := n.Fund(w, 1_000_000); err != nil {
		return nil, err
	}
	pub, err := registry.BuildPublish(w, n.ledger.Spendable(w.PubKeyHash()), netAddr, 1)
	if err != nil {
		return nil, fmt.Errorf("bcwan: publish binding: %w", err)
	}
	if err := n.ledger.Submit(pub); err != nil {
		return nil, fmt.Errorf("bcwan: publish binding: %w", err)
	}
	if _, err := n.MineBlock(); err != nil {
		return nil, err
	}
	return &Recipient{
		Recipient: recipient.New(cfg, w, n.ledger),
		net:       n,
		netAddr:   netAddr,
	}, nil
}

// Address returns the recipient's blockchain address @R.
func (r *Recipient) Address() string { return r.Wallet().Address() }

// NetAddr returns the recipient's published network address.
func (r *Recipient) NetAddr() string { return r.netAddr }

// Sensor is a provisioned end-device.
type Sensor struct {
	*device.Device
}

var nextEUI uint64 //nolint:gochecknoglobals // sequential device EUIs

var euiMu sync.Mutex

// ProvisionSensor mints a sensor bound to this recipient: it generates
// the shared AES-256 key K and the node's RSA-512 signing keypair, loads
// them on the device, and registers the counterparts with the recipient
// (§4.4's provisioning phase).
func (r *Recipient) ProvisionSensor() (*Sensor, error) {
	sharedKey := make([]byte, bccrypto.AESKeySize)
	if _, err := io.ReadFull(r.net.random, sharedKey); err != nil {
		return nil, fmt.Errorf("bcwan: shared key: %w", err)
	}
	nodeKey, err := bccrypto.GenerateRSA512(r.net.random)
	if err != nil {
		return nil, fmt.Errorf("bcwan: node key: %w", err)
	}
	euiMu.Lock()
	nextEUI++
	var eui lora.DevEUI
	for i := 0; i < 8; i++ {
		eui[i] = byte(nextEUI >> (8 * (7 - i)))
	}
	euiMu.Unlock()

	dev, err := device.New(device.Provisioning{
		DevEUI:        eui,
		SharedKey:     sharedKey,
		SigningKey:    nodeKey,
		RecipientAddr: r.Wallet().PubKeyHash(),
	}, r.net.random)
	if err != nil {
		return nil, err
	}
	r.Provision(eui, recipient.DeviceInfo{SharedKey: sharedKey, NodePub: nodeKey.Public()})
	return &Sensor{Device: dev}, nil
}

// Actor is one federation participant that may own several gateways.
// Per §4.2 (footnote 3), an actor with several gateways elects one as the
// master gateway — the gateway its own devices address their data to.
type Actor struct {
	Name     string
	net      *Network
	gateways []*Gateway
}

// NewActor creates a named participant.
func (n *Network) NewActor(name string) *Actor {
	return &Actor{Name: name, net: n}
}

// AddGateway deploys one more gateway owned by this actor.
func (a *Actor) AddGateway(cfg GatewayConfig) (*Gateway, error) {
	gw, err := a.net.NewGateway(cfg)
	if err != nil {
		return nil, err
	}
	a.gateways = append(a.gateways, gw)
	return gw, nil
}

// Gateways lists the actor's gateways.
func (a *Actor) Gateways() []*Gateway {
	return append([]*Gateway(nil), a.gateways...)
}

// MasterGateway elects the actor's master gateway deterministically: the
// gateway with the lexicographically smallest public key hash wins, so
// every party in the federation agrees on the election without
// coordination.
func (a *Actor) MasterGateway() (*Gateway, error) {
	if len(a.gateways) == 0 {
		return nil, errors.New("bcwan: actor has no gateways")
	}
	master := a.gateways[0]
	best := master.Wallet().PubKeyHash()
	for _, gw := range a.gateways[1:] {
		h := gw.Wallet().PubKeyHash()
		for i := range h {
			if h[i] != best[i] {
				if h[i] < best[i] {
					master, best = gw, h
				}
				break
			}
		}
	}
	return master, nil
}

// RunExchange executes one full Fig. 3 exchange in-process: key request
// and response, double encryption and signature on the sensor, delivery
// and IP resolution on the gateway, payment by the recipient, claim by
// the gateway (revealing eSk), one block to confirm, and the final double
// decryption. It returns the recipient's decrypted message.
func (n *Network) RunExchange(s *Sensor, g *Gateway, r *Recipient, reading []byte) (*Message, error) {
	keyResp, err := g.HandleKeyRequest(s.KeyRequestFrame())
	if err != nil {
		return nil, fmt.Errorf("%w: key request: %v", ErrExchangeIncomplete, err)
	}
	dataFrame, err := s.DataFrame(reading, keyResp.Payload, keyResp.Counter)
	if err != nil {
		return nil, fmt.Errorf("%w: data frame: %v", ErrExchangeIncomplete, err)
	}
	offerHeight := n.chain.Height()
	delivery, netAddr, err := g.HandleData(dataFrame)
	if err != nil {
		return nil, fmt.Errorf("%w: delivery: %v", ErrExchangeIncomplete, err)
	}
	if netAddr != r.NetAddr() {
		return nil, fmt.Errorf("%w: resolved %q, want %q", ErrExchangeIncomplete, netAddr, r.NetAddr())
	}
	payment, err := r.HandleDelivery(delivery)
	if err != nil {
		return nil, fmt.Errorf("%w: payment: %v", ErrExchangeIncomplete, err)
	}
	claim, err := g.VerifyAndClaim(delivery.DevEUI, delivery.Exchange, payment.ID(), offerHeight)
	if err != nil {
		return nil, fmt.Errorf("%w: claim: %v", ErrExchangeIncomplete, err)
	}
	if _, err := n.MineBlock(); err != nil {
		return nil, err
	}
	msg, err := r.SettleClaimTx(payment.ID(), claim)
	if err != nil {
		return nil, fmt.Errorf("%w: settle: %v", ErrExchangeIncomplete, err)
	}
	return msg, nil
}
