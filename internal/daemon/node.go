// Package daemon assembles deployable BcWAN processes: a blockchain node
// that replicates the chain over the P2P overlay and serves JSON-RPC
// (§5.1's "BcWAN daemon" wrapping the blockchain module), plus the
// gateway- and recipient-side daemons that run the Fig. 3 delivery
// between each other as messages on the same overlay.
package daemon

import (
	"errors"
	"fmt"
	"io"
	"log"
	"path/filepath"
	"sync"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/fairex"
	"bcwan/internal/p2p"
	"bcwan/internal/registry"
	"bcwan/internal/rpc"
	"bcwan/internal/telemetry"
)

// NodeConfig configures a blockchain node daemon.
type NodeConfig struct {
	// Genesis is the shared genesis block (all daemons must agree).
	Genesis *chain.Block
	// Params are the shared chain parameters.
	Params chain.Params
	// Miners is the set of authorized miner public keys.
	Miners [][]byte
	// ListenP2P is the gossip listen address ("" = any localhost port).
	ListenP2P string
	// ListenRPC is the JSON-RPC listen address ("" = any).
	ListenRPC string
	// Peers are gossip addresses to dial at startup.
	Peers []string
	// MinerKey, when set, makes this node mine every MineInterval.
	MinerKey *bccrypto.ECKey
	// MineInterval defaults to Params.BlockInterval.
	MineInterval time.Duration
	// Transport defaults to TCP; tests may inject a MemTransport.
	Transport p2p.Transport
	// Random defaults to crypto/rand.
	Random io.Reader
	// Logger receives operational messages (nil = silent).
	Logger *log.Logger
	// StoreCompactEvery is how many block appends to the store's log
	// trigger a compaction: a checkpoint record, so a restart replays the
	// blocks up to it trusted and only the tail after it through full
	// validation (checkpoint + tail; 0 = default of 64).
	StoreCompactEvery int
	// RelayRequestTimeout is how long the relay waits for an announced
	// object (and a blocktxn response) before falling back to the next
	// source (0 = the p2p default of 500ms).
	RelayRequestTimeout time.Duration
	// SnapshotSyncDisabled keeps headers-first sync but never bootstraps
	// from a peer-served snapshot (a fresh node always fetches bodies).
	SnapshotSyncDisabled bool
	// SnapshotInterval is the height spacing of miner snapshot
	// commitments (0 = default of 1024). Miners publish a signed
	// commitment whenever they mine a multiple of it.
	SnapshotInterval int64
	// SnapshotChunkSize is the snapshot transfer chunk size in bytes
	// (0 = default of 64 KiB).
	SnapshotChunkSize int
	// SnapshotMinGap is the minimum height deficit before a fresh node
	// prefers a snapshot bootstrap over fetching every body
	// (0 = default of 64).
	SnapshotMinGap int64
	// PruneDepth, when positive, drops block bodies more than this many
	// heights below the tip at every store compaction, keeping the node
	// a pruned gateway. Reorgs deeper than PruneDepth become impossible
	// for this node.
	PruneDepth int64
	// SyncRetryInterval is the sync state machine's retry tick
	// (0 = default of 500ms).
	SyncRetryInterval time.Duration
	// MaxPeers bounds the gossip node's registered peer set (0 =
	// unlimited). Connections beyond the bound are refused; combined
	// with misbehavior bans this is the eclipse-recovery lever.
	MaxPeers int
}

// misbehaviorPenalty is charged per malformed frame; an honest peer's
// occasional garbage stays far from the p2p ban threshold, a spammer
// crosses it within ~10 frames.
const misbehaviorPenalty = 10

// Node is one running blockchain daemon.
type Node struct {
	cfg    NodeConfig
	chain  *chain.Chain
	pool   *chain.Mempool
	ledger *fairex.Node
	dir    *registry.Directory
	gossip *p2p.Node
	relay  *p2p.Relay
	rpcSrv *rpc.Server
	miner  *chain.Miner
	store  *Store // nil until Open; set before the append subscription
	sync   *syncManager
	reg    *telemetry.Registry
	// metrics is set once in NewNode, before any goroutine starts.
	metrics *daemonMetrics

	mu        sync.Mutex
	orphanTxs map[chain.Hash]*chain.Tx // txs whose inputs are not visible yet
	// refusedTxs are the gossiped txs the pool refused since the tip
	// last moved. relayHave counts them, so a peer's pool re-announce of
	// a first-seen conflict is not fetched again on every tick.
	refusedTxs map[chain.Hash]bool
	// channels is the channel subsystem behind the RPC surface, installed
	// late by EnableChannels (the RPC server starts in NewNode).
	channels *ChannelManager
	// pendingCmpct tracks compact blocks awaiting a blocktxn response.
	pendingCmpct map[chain.Hash]*pendingCompact

	stopMine chan struct{}
	mineDone chan struct{}
	closed   bool

	// ledgerCh is closed, and replaced, whenever a payment may have
	// become visible here: a pool admission or a best-branch connect.
	// It is nil while nobody waits. ledgerMu guards it alone.
	ledgerMu sync.Mutex
	ledgerCh chan struct{}
}

// NewNode starts a blockchain daemon.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Transport == nil {
		cfg.Transport = p2p.TCPTransport{}
	}
	if cfg.MineInterval <= 0 {
		cfg.MineInterval = cfg.Params.BlockInterval
	}
	// The mine loop, explicit MineNow calls and snapshot-commitment
	// signing all draw from the one source.
	cfg.Random = bccrypto.SerialReader(cfg.Random)
	c, err := chain.New(cfg.Params, cfg.Genesis)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	for _, pub := range cfg.Miners {
		c.AuthorizeMiner(pub)
	}
	reg := telemetry.NewRegistry()
	n := &Node{
		cfg:          cfg,
		chain:        c,
		pool:         chain.NewMempool(),
		orphanTxs:    make(map[chain.Hash]*chain.Tx),
		refusedTxs:   make(map[chain.Hash]bool),
		pendingCmpct: make(map[chain.Hash]*pendingCompact),
		reg:          reg,
		metrics:      newDaemonMetrics(reg),
	}
	// Share the chain's verifier (worker pool + signature cache) so
	// gossip- and RPC-admitted transactions are not re-verified when
	// their block connects.
	n.pool.UseVerifier(c.Verifier())
	c.Instrument(n.reg)
	n.pool.Instrument(n.reg)
	n.dir = registry.NewDirectory()
	n.dir.Attach(c)
	// A connect can confirm, or first show, a payment a claim waits for,
	// and can make a refused transaction valid.
	c.Subscribe(func(*chain.Block) {
		n.notifyLedger()
		n.mu.Lock()
		clear(n.refusedTxs)
		n.mu.Unlock()
	})

	gossip, err := p2p.NewNode(cfg.Transport, cfg.ListenP2P, cfg.Logger, n.reg)
	if err != nil {
		return nil, err
	}
	n.gossip = gossip
	if cfg.MaxPeers > 0 {
		gossip.SetMaxPeers(cfg.MaxPeers)
	}
	n.ledger = &fairex.Node{
		Chain:    c,
		Pool:     n.pool,
		OnSubmit: n.broadcastTx,
	}
	n.relay = p2p.NewRelay(gossip, p2p.RelayConfig{
		Have:           n.relayHave,
		Fetch:          n.relayFetch,
		RequestTimeout: cfg.RelayRequestTimeout,
	})
	n.relay.Handle("tx", n.onRelayTx)
	n.relay.Handle("block", n.onRelayBlock)
	gossip.Handle("cmpctblock", n.onCompactBlock)
	gossip.Handle("getblocktxn", n.onGetBlockTxn)
	gossip.Handle("blocktxn", n.onBlockTxn)
	n.sync = newSyncManager(n)
	gossip.Handle(p2p.MsgTypeGetHeaders, n.onGetHeaders)
	gossip.Handle(p2p.MsgTypeHeaders, n.sync.onHeaders)
	gossip.Handle(p2p.MsgTypeGetSnapshot, n.onGetSnapshot)
	gossip.Handle(p2p.MsgTypeSnapshotChunk, n.sync.onSnapshotChunk)
	n.relay.Handle(p2p.MsgTypeSnapCommit, n.onSnapCommit)

	rpcSrv, err := rpc.NewServer(cfg.ListenRPC, rpc.Backend{
		Chain:     c,
		Mempool:   n.pool,
		Submit:    n.ledger.Submit,
		Telemetry: n.reg,
		SyncInfo:  func() any { return n.SyncInfo() },
		Channels:  func() rpc.ChannelOps { return n.getChannelOps() },
	})
	if err != nil {
		gossip.Close()
		return nil, err
	}
	n.rpcSrv = rpcSrv

	for _, peer := range cfg.Peers {
		if err := n.Connect(peer); err != nil {
			n.logf("connect %s: %v", peer, err)
		}
	}
	n.sync.start()

	if cfg.MinerKey != nil {
		n.miner = chain.NewMiner(cfg.MinerKey, c, n.pool, randomOrDefault(cfg.Random))
		n.miner.Instrument(n.reg)
		n.stopMine = make(chan struct{})
		n.mineDone = make(chan struct{})
		go n.mineLoop()
	}
	return n, nil
}

// Telemetry returns the node's metrics registry.
func (n *Node) Telemetry() *telemetry.Registry { return n.reg }

// setChannels installs the channel subsystem behind the openchannel /
// getchannelinfo / closechannel RPC methods; the node closes its store.
func (n *Node) setChannels(m *ChannelManager) {
	n.mu.Lock()
	n.channels = m
	n.mu.Unlock()
}

func (n *Node) getChannelOps() rpc.ChannelOps {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.channels == nil {
		return nil
	}
	return n.channels
}

// Open attaches persistence rooted at dataDir: the chain store's log in
// dataDir/chainstore is loaded into the chain (checkpoint + tail), and
// every future best-branch connect is appended (fsync'd) to the log,
// with a compaction every cfg.StoreCompactEvery appends. When
// cfg.PruneDepth is set, each compaction first prunes block bodies more
// than PruneDepth heights below the tip; a moved prune base makes the
// compaction rewrite the log without them.
//
// Call once, after NewNode and before the node sees traffic. Returns
// the number of blocks restored from disk.
func (n *Node) Open(dataDir string) (int, error) {
	st, err := OpenStore(filepath.Join(dataDir, "chainstore"))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	loaded, err := st.Load(n.chain)
	if err != nil {
		st.Close()
		return loaded, err
	}
	n.metrics.storeLoadSeconds.ObserveSince(start)
	n.store = st
	every := n.cfg.StoreCompactEvery
	if every <= 0 {
		every = 64
	}
	n.chain.Subscribe(func(b *chain.Block) {
		appendStart := time.Now()
		if err := st.AppendBlock(b); err != nil {
			n.logf("store append %s: %v", b.ID(), err)
			return
		}
		n.metrics.storeAppendSeconds.ObserveSince(appendStart)
		if st.LogRecords() >= every {
			if depth := n.cfg.PruneDepth; depth > 0 {
				if target := n.chain.Height() - depth; target > n.chain.PruneBase() {
					if err := n.chain.PruneBelow(target); err != nil {
						n.logf("prune below %d: %v", target, err)
					}
				}
			}
			if err := st.Compact(n.chain); err != nil {
				n.logf("store compact: %v", err)
				return
			}
			n.metrics.storeCompactions.Inc()
		}
	})
	// A restarting miner re-offers a commitment at its latest snapshot
	// boundary so joiners can bootstrap without waiting for the next
	// boundary to be mined.
	if n.cfg.MinerKey != nil {
		if h := (n.chain.Height() / n.snapshotInterval()) * n.snapshotInterval(); h > 0 && h >= n.chain.PruneBase() {
			n.publishSnapshotCommitment(h)
		}
	}
	n.sync.release()
	return loaded, nil
}

// Store returns the attached chain store (nil before Open).
func (n *Node) Store() *Store { return n.store }

// Ledger exposes the node's chain+mempool view.
func (n *Node) Ledger() *fairex.Node { return n.ledger }

// Chain exposes the chain replica.
func (n *Node) Chain() *chain.Chain { return n.chain }

// Directory exposes the scanned IP directory.
func (n *Node) Directory() *registry.Directory { return n.dir }

// P2PAddr returns the gossip listen address.
func (n *Node) P2PAddr() string { return n.gossip.Addr() }

// Gossip exposes the p2p node (peer set, misbehavior scores, bans).
func (n *Node) Gossip() *p2p.Node { return n.gossip }

// misbehave charges a peer for a malformed frame. Only decode failures
// are charged — validation failures (a block we disagree with, a tx
// conflicting with our view) are legitimate fork ambiguity, not abuse.
func (n *Node) misbehave(from, reason string) {
	n.gossip.Misbehave(from, misbehaviorPenalty, reason)
}

// send delivers a direct message, dialing the peer first if the overlay
// has no live connection yet.
func (n *Node) send(addr, msgType string, payload []byte) bool {
	if n.gossip.SendTo(addr, msgType, payload) {
		return true
	}
	if err := n.gossip.Connect(addr); err != nil {
		return false
	}
	return n.gossip.SendTo(addr, msgType, payload)
}

// RPCAddr returns the JSON-RPC listen address.
func (n *Node) RPCAddr() string { return n.rpcSrv.Addr() }

// Connect dials a gossip peer and greets it with a getheaders, which
// also registers us at the dialee (p2p learns an inbound peer from its
// first message).
func (n *Node) Connect(addr string) error {
	if err := n.gossip.Connect(addr); err != nil {
		return err
	}
	n.sync.greet(addr)
	return nil
}

// MineNow mints one block immediately (used by tests and by single-node
// setups instead of the timer loop).
func (n *Node) MineNow() (*chain.Block, error) {
	if n.miner == nil {
		return nil, fmt.Errorf("daemon: node is not a miner")
	}
	b, err := n.miner.Mine(time.Now())
	if err != nil {
		return nil, err
	}
	n.sendCompact(b, "")
	n.maybePublishCommitment(b)
	return b, nil
}

// Close stops mining, gossip and RPC.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	if n.stopMine != nil {
		close(n.stopMine)
		<-n.mineDone
	}
	n.sync.close()
	n.relay.Close()
	n.mu.Lock()
	for id, pc := range n.pendingCmpct {
		pc.timer.Stop()
		delete(n.pendingCmpct, id)
	}
	n.mu.Unlock()
	n.rpcSrv.Close()
	err := n.gossip.Close()
	n.mu.Lock()
	channels := n.channels
	n.mu.Unlock()
	if channels != nil {
		if cerr := channels.close(); err == nil {
			err = cerr
		}
	}
	if n.store != nil {
		if serr := n.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

func (n *Node) mineLoop() {
	defer close(n.mineDone)
	ticker := time.NewTicker(n.cfg.MineInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if _, err := n.MineNow(); err != nil {
				n.logf("mine: %v", err)
			}
		case <-n.stopMine:
			return
		}
	}
}

// maxOrphanTxs bounds the out-of-order transaction buffer.
const maxOrphanTxs = 10_000

// admitTx pools a gossiped transaction. A dependent transaction can
// arrive before the one funding it (the gateway's claim chains onto the
// unconfirmed payment), and gossip dedup means it will never be
// re-delivered — so transactions with missing inputs are parked and
// retried as the view grows instead of being dropped. It reports whether
// this call pooled tx or it is parked.
func (n *Node) admitTx(tx *chain.Tx) bool {
	err := n.acceptPooled(tx)
	switch {
	case err == nil:
		n.retryOrphanTxs()
		return true
	case errors.Is(err, chain.ErrMissingUTXO):
		if n.spentOnChain(tx) {
			n.refuseTx(tx.ID())
			return false
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		_, parked := n.orphanTxs[tx.ID()]
		if !parked && len(n.orphanTxs) < maxOrphanTxs {
			n.orphanTxs[tx.ID()] = tx
			n.metrics.orphanTxsParked.Inc()
			parked = true
		}
		return parked
	default:
		// Gossiped duplicates and conflicts are normal; only log oddities.
		n.logf("gossiped tx %s rejected: %v", tx.ID(), err)
		n.refuseTx(tx.ID())
		return false
	}
}

// refuseTx records a transaction the pool refused, emptying the record
// first once it holds maxOrphanTxs ids.
func (n *Node) refuseTx(id chain.Hash) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.refusedTxs) >= maxOrphanTxs {
		clear(n.refusedTxs)
	}
	n.refusedTxs[id] = true
}

// heldTx returns the transaction with the given id if this node holds
// it, pooled, parked or confirmed, and nil otherwise.
func (n *Node) heldTx(id chain.Hash) *chain.Tx {
	if tx, ok := n.pool.Get(id); ok {
		return tx
	}
	n.mu.Lock()
	tx := n.orphanTxs[id]
	n.mu.Unlock()
	if tx == nil {
		tx, _, _ = n.chain.FindTx(id)
	}
	return tx
}

// acceptPooled validates tx against the chain's live UTXO set under its
// read lock. The old path cloned the full set (and pre-extended it with
// pooled transactions Accept layers on anyway); the overlay admission
// makes both redundant.
func (n *Node) acceptPooled(tx *chain.Tx) error {
	var err error
	n.chain.ReadState(func(tip *chain.Block, utxo *chain.UTXOSet) {
		err = n.pool.Accept(tx, utxo, tip.Header.Height, n.chain.Params())
	})
	if err == nil {
		n.notifyLedger()
	}
	return err
}

// ledgerChanged returns a channel closed at the next pool admission or
// best-branch connect on this node. Take it before reading the ledger,
// so a change between the read and the wait is not lost.
func (n *Node) ledgerChanged() <-chan struct{} {
	n.ledgerMu.Lock()
	defer n.ledgerMu.Unlock()
	if n.ledgerCh == nil {
		n.ledgerCh = make(chan struct{})
	}
	return n.ledgerCh
}

// notifyLedger wakes every ledgerChanged waiter.
func (n *Node) notifyLedger() {
	n.ledgerMu.Lock()
	if n.ledgerCh != nil {
		close(n.ledgerCh)
		n.ledgerCh = nil
	}
	n.ledgerMu.Unlock()
}

// spentOnChain reports whether a best-branch transaction spends one of
// tx's inputs: tx is already confirmed or lost a conflict, so no block
// will make its missing inputs visible, and parking it would only make
// every later admission retry it.
func (n *Node) spentOnChain(tx *chain.Tx) bool {
	for _, in := range tx.Inputs {
		if _, _, ok := n.chain.FindSpender(in.Prev); ok {
			return true
		}
	}
	return false
}

// retryOrphanTxs re-attempts parked transactions until a full pass
// admits nothing new (an admitted tx can unblock another).
func (n *Node) retryOrphanTxs() {
	for {
		n.mu.Lock()
		pending := make([]*chain.Tx, 0, len(n.orphanTxs))
		for _, tx := range n.orphanTxs {
			pending = append(pending, tx)
		}
		n.mu.Unlock()
		progressed := false
		for _, tx := range pending {
			err := n.acceptPooled(tx)
			if err == nil {
				progressed = true
			}
			if err == nil || !errors.Is(err, chain.ErrMissingUTXO) || n.spentOnChain(tx) {
				// Admitted, already known, conflicting, confirmed or
				// invalid: either way it no longer needs parking.
				n.mu.Lock()
				delete(n.orphanTxs, tx.ID())
				n.mu.Unlock()
			}
		}
		if !progressed {
			return
		}
	}
}

// acceptBlock adds a block received from peer from, then each block the
// sync machine's tail window held for want of it. An orphan (its parent
// unknown) goes to syncManager.orphan: a live node keeps none and starts
// a round with the sender, whose locator finds the fork point however
// deep it sits below our tip.
func (n *Node) acceptBlock(b *chain.Block, from string) {
	for b != nil {
		switch err := n.chain.AddBlock(b); {
		case err == nil:
			n.pool.RemoveConfirmed(b)
			// Confirmed outputs may fund transactions parked out of order.
			n.retryOrphanTxs()
			b = n.sync.noteBlockConnected(b)
		case errors.Is(err, chain.ErrBadPrevBlock):
			n.sync.orphan(b, from)
			return
		default:
			n.logf("block %s rejected: %v", b.ID(), err)
			return
		}
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logger != nil {
		n.cfg.Logger.Printf("daemon %s: %s", n.gossip.Addr(), fmt.Sprintf(format, args...))
	}
}
