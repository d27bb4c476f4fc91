package chaos

import (
	"fmt"
	"io"
	"log"
	mrand "math/rand"
	"path/filepath"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/daemon"
	"bcwan/internal/device"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/recipient"
	"bcwan/internal/registry"
	"bcwan/internal/telemetry"
	"bcwan/internal/wallet"
)

// Options configures a chaos cluster.
type Options struct {
	// Seed fixes every random decision — key material, fault draws,
	// block signatures — so a scenario replays exactly.
	Seed int64
	// Nodes is the cluster size; node i listens on transport address
	// "n<i>".
	Nodes int
	// Miners lists the node indexes holding an authorized miner key.
	Miners []int
	// Dir is where each node persists its chain store (required).
	Dir string
	// FundRecipient is the genesis allocation of the recipient wallet
	// (defaults to 1,000,000).
	FundRecipient uint64
	// FundAdversary, when nonzero, allocates genesis funds to the
	// cluster's adversary wallet so Byzantine scenarios can publish
	// forged bindings and mine private branches that spend real coin.
	FundAdversary uint64
	// NoDial lists node indexes that do NOT auto-dial the rest of the
	// cluster on boot. An eclipse victim must start with empty peer
	// slots for the adversary to monopolize them.
	NoDial []int
	// PumpInterval is the pause after each gossip/mine round (defaults
	// to 10ms).
	PumpInterval time.Duration
	// DeferStart lists node indexes NOT booted by NewCluster; scenarios
	// start them later with Start, e.g. a gateway joining a mesh that
	// already has history to bootstrap from.
	DeferStart []int
	// NodeTweak, when set, may adjust each node's config just before it
	// boots (per-node prune depth, snapshot knobs, a wrapped transport...).
	NodeTweak func(i int, cfg *daemon.NodeConfig)
	// Logger receives node logs (nil = silent).
	Logger *log.Logger
}

// Peer is one cluster member.
type Peer struct {
	Index int
	Name  string
	// DataDir is the node's persistence root; the incremental chain
	// store (append-only block log + periodic snapshot) lives under it.
	DataDir string
	Node    *daemon.Node
	Alive   bool
	// generation distinguishes restarts so a reborn node does not
	// replay the random stream of its previous life.
	generation int
}

// Cluster is a multi-node BcWAN deployment over a fault-injecting
// in-memory network, with the exchange actors' wallets funded at
// genesis.
type Cluster struct {
	Opts    Options
	Net     *Net
	Reg     *telemetry.Registry
	Params  chain.Params
	Genesis *chain.Block
	// GenesisValue is the total value allocated at genesis, the base of
	// the conservation invariant.
	GenesisValue uint64

	RecipientWallet *wallet.Wallet
	GatewayWallet   *wallet.Wallet
	// AdversaryWallet is derived from its own seeded stream (not the
	// cluster rng) so adding an adversary never perturbs the random
	// draws of existing scenarios.
	AdversaryWallet *wallet.Wallet

	rng       *mrand.Rand
	minerKeys map[int]*bccrypto.ECKey
	minerPubs [][]byte
	peers     []*Peer
}

func nodeName(i int) string { return fmt.Sprintf("n%d", i) }

// NewCluster builds and starts a cluster of opts.Nodes daemons sharing
// one genesis.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("chaos: need at least one node")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("chaos: Options.Dir is required")
	}
	if opts.FundRecipient == 0 {
		opts.FundRecipient = 1_000_000
	}
	if opts.PumpInterval <= 0 {
		opts.PumpInterval = 10 * time.Millisecond
	}
	c := &Cluster{
		Opts:      opts,
		Net:       NewNet(opts.Seed),
		Reg:       telemetry.NewRegistry(),
		Params:    chain.DefaultParams(),
		rng:       mrand.New(mrand.NewSource(opts.Seed)),
		minerKeys: make(map[int]*bccrypto.ECKey),
	}
	c.Net.Instrument(c.Reg)

	var err error
	if c.RecipientWallet, err = wallet.New(c.rng); err != nil {
		return nil, fmt.Errorf("chaos: recipient wallet: %w", err)
	}
	if c.GatewayWallet, err = wallet.New(c.rng); err != nil {
		return nil, fmt.Errorf("chaos: gateway wallet: %w", err)
	}
	advRand := mrand.New(mrand.NewSource(linkSeed(opts.Seed, "adversary", "wallet")))
	if c.AdversaryWallet, err = wallet.New(advRand); err != nil {
		return nil, fmt.Errorf("chaos: adversary wallet: %w", err)
	}
	for _, idx := range opts.Miners {
		if idx < 0 || idx >= opts.Nodes {
			return nil, fmt.Errorf("chaos: miner index %d out of range", idx)
		}
		key, err := bccrypto.GenerateECKey(c.rng)
		if err != nil {
			return nil, fmt.Errorf("chaos: miner key: %w", err)
		}
		c.minerKeys[idx] = key
		c.minerPubs = append(c.minerPubs, key.PublicBytes())
	}

	alloc := map[[20]byte]uint64{c.RecipientWallet.PubKeyHash(): opts.FundRecipient}
	c.GenesisValue = opts.FundRecipient
	if opts.FundAdversary > 0 {
		alloc[c.AdversaryWallet.PubKeyHash()] = opts.FundAdversary
		c.GenesisValue += opts.FundAdversary
	}
	c.Genesis = chain.GenesisBlock(alloc)

	for i := 0; i < opts.Nodes; i++ {
		c.peers = append(c.peers, &Peer{
			Index:   i,
			Name:    nodeName(i),
			DataDir: filepath.Join(opts.Dir, nodeName(i)),
		})
	}
	deferred := make(map[int]bool, len(opts.DeferStart))
	for _, idx := range opts.DeferStart {
		if idx < 0 || idx >= opts.Nodes {
			c.Close()
			return nil, fmt.Errorf("chaos: defer-start index %d out of range", idx)
		}
		deferred[idx] = true
	}
	for i := range c.peers {
		if deferred[i] {
			continue
		}
		if _, err := c.startNode(i); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// nodeRandom derives a per-node, per-incarnation random stream from the
// cluster seed.
func (c *Cluster) nodeRandom(i, generation int) io.Reader {
	return mrand.New(mrand.NewSource(
		linkSeed(c.Opts.Seed, nodeName(i), fmt.Sprintf("random|%d", generation))))
}

// startNode boots peer i: fresh daemon, chain reloaded from its store,
// connections to every live peer (each greeted with a getheaders), and a
// catch-up round for anything missed while down. It returns the number
// of blocks recovered from disk.
func (c *Cluster) startNode(i int) (int, error) {
	p := c.peers[i]
	cfg := daemon.NodeConfig{
		Genesis:      c.Genesis,
		Params:       c.Params,
		Miners:       c.minerPubs,
		ListenP2P:    p.Name,
		MinerKey:     c.minerKeys[i],
		MineInterval: time.Hour, // scenarios mine explicitly
		Transport:    c.Net.TransportFor(p.Name),
		Random:       c.nodeRandom(i, p.generation),
		Logger:       c.Opts.Logger,
		// Re-request dropped relay objects at the cluster's time scale
		// (10 ms pumps, ~3 ms links). At the 500 ms default a laggard
		// stalls half a second per faulted block body while the pump
		// keeps mining, and catch-up barely outruns block production.
		RelayRequestTimeout: 50 * time.Millisecond,
		// Drive the sync state machine at the same time scale; the pump
		// also kicks it every round through RequestSync.
		SyncRetryInterval: 20 * time.Millisecond,
		// Compact aggressively so restart scenarios exercise the
		// checkpoint + tail recovery path, not just a plain log.
		StoreCompactEvery: 4,
	}
	if c.Opts.NodeTweak != nil {
		c.Opts.NodeTweak(i, &cfg)
	}
	node, err := daemon.NewNode(cfg)
	if err != nil {
		return 0, fmt.Errorf("chaos: start %s: %w", p.Name, err)
	}
	// The store appends every best-branch connect durably, so a crash at
	// any point restarts from the last fsync'd block.
	loaded, err := node.Open(p.DataDir)
	if err != nil {
		node.Close()
		return 0, fmt.Errorf("chaos: reload %s: %w", p.Name, err)
	}
	noDial := false
	for _, idx := range c.Opts.NoDial {
		if idx == i {
			noDial = true
		}
	}
	if !noDial {
		for _, other := range c.peers {
			if other != p && other.Alive {
				if err := node.Connect(other.Name); err != nil && c.Opts.Logger != nil {
					c.Opts.Logger.Printf("chaos: %s dial %s: %v", p.Name, other.Name, err)
				}
			}
		}
	}
	node.RequestSync()
	p.Node = node
	p.Alive = true
	return loaded, nil
}

// Peer returns cluster member i.
func (c *Cluster) Peer(i int) *Peer { return c.peers[i] }

// Node returns the daemon of cluster member i.
func (c *Cluster) Node(i int) *daemon.Node { return c.peers[i].Node }

// Crash kills node i without flushing anything: in-memory mempool and
// connections are lost, only the blocks already saved by the
// subscriber survive on disk.
func (c *Cluster) Crash(i int) error {
	p := c.peers[i]
	if !p.Alive {
		return nil
	}
	p.Alive = false
	return p.Node.Close()
}

// Restart reboots a crashed node from its on-disk store and returns
// how many blocks it recovered.
func (c *Cluster) Restart(i int) (int, error) {
	p := c.peers[i]
	if p.Alive {
		return 0, fmt.Errorf("chaos: %s is already running", p.Name)
	}
	p.generation++
	return c.startNode(i)
}

// Start boots a node deferred at cluster construction (DeferStart).
func (c *Cluster) Start(i int) (int, error) {
	p := c.peers[i]
	if p.Alive {
		return 0, fmt.Errorf("chaos: %s is already running", p.Name)
	}
	return c.startNode(i)
}

// Close stops every live node and drains in-flight deliveries.
func (c *Cluster) Close() {
	for _, p := range c.peers {
		if p.Alive {
			p.Alive = false
			p.Node.Close()
		}
	}
	c.Net.Wait()
}

// PumpRound drives one anti-entropy round: every live node re-gossips
// its pooled transactions and runs a catch-up round, the given
// miners each mint one block, and the round then idles briefly so the
// gossip fans out.
func (c *Cluster) PumpRound(miners ...int) {
	for _, p := range c.peers {
		if p.Alive {
			p.Node.RebroadcastPending()
			p.Node.RequestSync()
		}
	}
	for _, i := range miners {
		if p := c.peers[i]; p.Alive {
			if _, err := p.Node.MineNow(); err != nil && c.Opts.Logger != nil {
				c.Opts.Logger.Printf("chaos: mine on %s: %v", p.Name, err)
			}
		}
	}
	time.Sleep(c.Opts.PumpInterval)
}

// WaitFor pumps rounds (mining on the given miners) until cond holds
// or the timeout expires.
func (c *Cluster) WaitFor(timeout time.Duration, miners []int, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: condition not reached within %s", timeout)
		}
		c.PumpRound(miners...)
	}
}

// Converged reports whether every live node agrees on the best tip.
func (c *Cluster) Converged() bool {
	var tip chain.Hash
	first := true
	for _, p := range c.peers {
		if !p.Alive {
			continue
		}
		id := p.Node.Chain().Tip().ID()
		if first {
			tip, first = id, false
		} else if id != tip {
			return false
		}
	}
	return true
}

// Gateway builds a gateway actor operating through node i's ledger.
// The actor holds the node's ledger pointer, so the node must stay up
// for the actor's lifetime (crash scenarios restart non-actor nodes).
func (c *Cluster) Gateway(i int, cfg gateway.Config) *gateway.Gateway {
	g := gateway.New(cfg, c.GatewayWallet, c.Node(i).Ledger(), c.Node(i).Directory(),
		mrand.New(mrand.NewSource(linkSeed(c.Opts.Seed, nodeName(i), "gateway"))))
	g.Instrument(c.Reg)
	return g
}

// Recipient builds a recipient actor operating through node i's ledger.
func (c *Cluster) Recipient(i int, cfg recipient.Config) *recipient.Recipient {
	return recipient.New(cfg, c.RecipientWallet, c.Node(i).Ledger())
}

// PublishBinding publishes the @R → netAddr directory binding from node
// i (the recipient's node) and returns the binding transaction.
func (c *Cluster) PublishBinding(i int, netAddr string) (*chain.Tx, error) {
	led := c.Node(i).Ledger()
	tx, err := registry.BuildPublish(c.RecipientWallet, led.Spendable(c.RecipientWallet.PubKeyHash()), netAddr, 1)
	if err != nil {
		return nil, fmt.Errorf("chaos: build binding: %w", err)
	}
	if err := led.Submit(tx); err != nil {
		return nil, fmt.Errorf("chaos: submit binding: %w", err)
	}
	return tx, nil
}

// Sensor is a provisioned end device plus the secrets its recipient
// shares with it.
type Sensor struct {
	Dev       *device.Device
	SharedKey []byte
	NodeKey   *bccrypto.RSA512PrivateKey
}

// NewSensor provisions a device and registers its keys with the
// recipient actor.
func (c *Cluster) NewSensor(eui lora.DevEUI, r *recipient.Recipient) (*Sensor, error) {
	sharedKey := make([]byte, bccrypto.AESKeySize)
	if _, err := io.ReadFull(c.rng, sharedKey); err != nil {
		return nil, err
	}
	nodeKey, err := bccrypto.GenerateRSA512(c.rng)
	if err != nil {
		return nil, fmt.Errorf("chaos: sensor key: %w", err)
	}
	dev, err := device.New(device.Provisioning{
		DevEUI:        eui,
		SharedKey:     sharedKey,
		SigningKey:    nodeKey,
		RecipientAddr: c.RecipientWallet.PubKeyHash(),
	}, c.rng)
	if err != nil {
		return nil, err
	}
	r.Provision(eui, recipient.DeviceInfo{SharedKey: sharedKey, NodePub: nodeKey.Public()})
	return &Sensor{Dev: dev, SharedKey: sharedKey, NodeKey: nodeKey}, nil
}
