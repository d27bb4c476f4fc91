package daemon

import (
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/p2p"
	"bcwan/internal/wallet"
)

// relayFixture is a genesis shared by a set of relay test daemons, with
// one single-output wallet per expected payment.
type relayFixture struct {
	params  chain.Params
	genesis *chain.Block
	miners  [][]byte
	miner   *bccrypto.ECKey
	wallets []*wallet.Wallet
}

func newRelayFixture(t *testing.T, nWallets int) *relayFixture {
	t.Helper()
	minerKey, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	wallets := make([]*wallet.Wallet, nWallets)
	alloc := make(map[[20]byte]uint64, nWallets)
	for i := range wallets {
		w, err := wallet.New(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		wallets[i] = w
		alloc[w.PubKeyHash()] = 1 << 32
	}
	return &relayFixture{
		params:  chain.DefaultParams(),
		genesis: chain.GenesisBlock(alloc),
		miners:  [][]byte{minerKey.PublicBytes()},
		miner:   minerKey,
		wallets: wallets,
	}
}

func (f *relayFixture) node(t *testing.T, tr p2p.Transport, mine bool, peers ...string) *Node {
	t.Helper()
	cfg := NodeConfig{
		Genesis:             f.genesis,
		Params:              f.params,
		Miners:              f.miners,
		Peers:               peers,
		Transport:           tr,
		MineInterval:        time.Hour,
		RelayRequestTimeout: 100 * time.Millisecond,
	}
	if mine {
		cfg.MinerKey = f.miner
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// payment builds wallet i's self-payment against the node's current
// UTXO set.
func (f *relayFixture) payment(t *testing.T, n *Node, i int) *chain.Tx {
	t.Helper()
	tx, err := f.wallets[i].BuildPayment(n.Chain().UTXO(), f.wallets[i].PubKeyHash(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func daemonCounter(n *Node, name string) uint64 {
	return n.Telemetry().Counter("bcwan_daemon_"+name, "").Value()
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCompactBlockReconstruction covers the sketch ladder's first two
// rungs: a block whose transactions are partly missing from the
// receiver's mempool reconstructs via one getblocktxn round trip, and a
// fully warm block reconstructs without any round trip.
func TestCompactBlockReconstruction(t *testing.T) {
	const warm, cold = 5, 3
	f := newRelayFixture(t, warm+cold)
	tr := p2p.NewMemTransport()
	a := f.node(t, tr, true)
	b := f.node(t, tr, false, a.P2PAddr())
	// a registers b only on b's first inbound message (its startup
	// sync); announce nothing until the mesh is bidirectional.
	waitCond(t, "a to learn b", func() bool { return len(a.gossip.Peers()) == 1 })

	// warm payments travel the normal submit path, so both pools hold
	// them; cold payments enter only a's pool, bypassing gossip.
	for i := 0; i < warm; i++ {
		if err := a.Ledger().Submit(f.payment(t, a, i)); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "b to pool the gossiped txs", func() bool {
		return b.Ledger().Pool.Len() == warm
	})
	for i := warm; i < warm+cold; i++ {
		tx := f.payment(t, a, i)
		if err := a.Ledger().Pool.Accept(tx, a.Chain().UTXO(), a.Chain().Height(), f.params); err != nil {
			t.Fatal(err)
		}
	}

	blk, err := a.MineNow()
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Txs) != 1+warm+cold {
		t.Fatalf("block carries %d txs, want %d", len(blk.Txs), 1+warm+cold)
	}
	waitCond(t, "b to adopt block 1", func() bool { return b.Chain().Height() == 1 })

	if got := daemonCounter(b, "cmpct_received_total"); got == 0 {
		t.Fatal("b never received a compact sketch")
	}
	if got := daemonCounter(b, "cmpct_txn_requests_total"); got != 1 {
		t.Fatalf("b issued %d getblocktxn round trips, want 1", got)
	}
	if got := daemonCounter(b, "cmpct_reconstructed_total"); got != 1 {
		t.Fatalf("b reconstructed %d blocks, want 1", got)
	}
	if got := daemonCounter(b, "cmpct_hits_total"); got != 0 {
		t.Fatalf("b counted %d mempool-only hits for a cold block", got)
	}
	if got := daemonCounter(b, "cmpct_full_fallbacks_total"); got != 0 {
		t.Fatalf("b fell back to a full block %d times", got)
	}
	if got := daemonCounter(a, "cmpct_txn_served_total"); got != 1 {
		t.Fatalf("a served %d blocktxn responses, want 1", got)
	}

	// Second block: every payment gossiped first, so b's pool is fully
	// warm and reconstruction needs no round trip.
	for i := 0; i < warm; i++ {
		if err := a.Ledger().Submit(f.payment(t, a, i)); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "b to pool the second round", func() bool {
		return b.Ledger().Pool.Len() == warm
	})
	if _, err := a.MineNow(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "b to adopt block 2", func() bool { return b.Chain().Height() == 2 })
	if got := daemonCounter(b, "cmpct_hits_total"); got != 1 {
		t.Fatalf("warm block hits = %d, want 1", got)
	}
	if got := daemonCounter(b, "cmpct_txn_requests_total"); got != 1 {
		t.Fatalf("warm block issued extra round trips: %d", got)
	}
}

// TestCompactBlockFullFallback starves the getblocktxn rung: the sketch
// sender never answers, so the receiver's timeout must climb to the
// full-block getdata and still adopt the block.
func TestCompactBlockFullFallback(t *testing.T) {
	const nTxs = 3
	f := newRelayFixture(t, nTxs)
	tr := p2p.NewMemTransport()
	b := f.node(t, tr, false)

	// Build a valid block on a scratch chain b has never heard txs from.
	scratch, err := chain.New(f.params, f.genesis)
	if err != nil {
		t.Fatal(err)
	}
	scratch.AuthorizeMiner(f.miner.PublicBytes())
	pool := chain.NewMempool()
	for i := 0; i < nTxs; i++ {
		tx, err := f.wallets[i].BuildPayment(scratch.UTXO(), f.wallets[i].PubKeyHash(), 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Accept(tx, scratch.UTXO(), scratch.Height(), f.params); err != nil {
			t.Fatal(err)
		}
	}
	blk, err := chain.NewMiner(f.miner, scratch, pool, rand.Reader).Mine(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	raw := blk.Serialize()

	// An adversarial peer that pushes the sketch, stonewalls the
	// getblocktxn rung, but answers the full-block getdata.
	faker, err := p2p.NewNode(tr, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer faker.Close()
	faker.Handle("getblocktxn", func(string, p2p.Message) {})
	faker.Handle("getdata", func(from string, msg p2p.Message) {
		faker.SendTo(from, "block", raw)
	})
	if err := faker.Connect(b.P2PAddr()); err != nil {
		t.Fatal(err)
	}
	if !faker.SendTo(b.P2PAddr(), "cmpctblock", chain.NewCompactBlock(blk).Serialize()) {
		t.Fatal("sketch not queued")
	}

	waitCond(t, "b to adopt the block via full fallback", func() bool {
		return b.Chain().Height() == 1
	})
	if got := daemonCounter(b, "cmpct_txn_requests_total"); got != 1 {
		t.Fatalf("b issued %d getblocktxn requests, want 1", got)
	}
	if got := daemonCounter(b, "cmpct_full_fallbacks_total"); got != 1 {
		t.Fatalf("b recorded %d full fallbacks, want 1", got)
	}
	if got := daemonCounter(b, "cmpct_reconstructed_total"); got != 0 {
		t.Fatalf("b counted %d reconstructions for a full-body fetch", got)
	}
}

// TestRelayMeshConvergesCheaperThanFlood runs a two-block workload over
// a 4-daemon ring and requires convergence inside an absolute wire-byte
// budget. When transaction and block bodies could still be flooded, the
// flood moved 46.0 kB on this workload and the relay 20.2–21.0 kB over
// twelve runs; the budget sits between the two, with room for a retried
// sync but not for bodies travelling to peers that already hold them.
func TestRelayMeshConvergesCheaperThanFlood(t *testing.T) {
	const nNodes, nTxs = 4, 6
	const budget = 25_000
	f := newRelayFixture(t, nTxs)
	tr := p2p.NewMemTransport()
	nodes := make([]*Node, nNodes)
	for i := range nodes {
		cfg := NodeConfig{
			Genesis:      f.genesis,
			Params:       f.params,
			Miners:       f.miners,
			Transport:    tr,
			MineInterval: time.Hour,
		}
		if i == 0 {
			cfg.MinerKey = f.miner
		} else {
			cfg.Peers = []string{nodes[i-1].P2PAddr()}
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	// Ring closure for redundant paths. The extra sync is the first
	// message over the new link, teaching nodes[0] the dialer's
	// address; every node then learns both ring neighbours before the
	// workload starts (inbound peers register on first message).
	if err := nodes[nNodes-1].Connect(nodes[0].P2PAddr()); err != nil {
		t.Fatal(err)
	}
	nodes[nNodes-1].RequestSync()
	waitCond(t, "ring to become bidirectional", func() bool {
		for _, n := range nodes {
			if len(n.gossip.Peers()) != 2 {
				return false
			}
		}
		return true
	})

	for blkRound := 0; blkRound < 2; blkRound++ {
		for i := 0; i < nTxs; i++ {
			if err := nodes[0].Ledger().Submit(f.payment(t, nodes[0], i)); err != nil {
				t.Fatal(err)
			}
		}
		waitCond(t, "all pools warm", func() bool {
			for _, n := range nodes {
				if n.Ledger().Pool.Len() != nTxs {
					return false
				}
			}
			return true
		})
		want := int64(blkRound + 1)
		if _, err := nodes[0].MineNow(); err != nil {
			t.Fatal(err)
		}
		waitCond(t, fmt.Sprintf("height %d everywhere", want), func() bool {
			for _, n := range nodes {
				if n.Chain().Height() != want {
					return false
				}
			}
			return true
		})
	}
	time.Sleep(100 * time.Millisecond) // drain in-flight duplicates
	var bytes uint64
	for _, n := range nodes {
		bytes += n.Telemetry().Counter("bcwan_p2p_bytes_out_total", "").Value()
	}
	if bytes > budget {
		t.Fatalf("relay mesh moved %d bytes, budget %d", bytes, budget)
	}
	t.Logf("relay mesh moved %d bytes (budget %d)", bytes, budget)
}

// TestSpentTxIsNotParked gossips three transactions whose inputs a node
// cannot see: one it has confirmed, one that lost a conflict to that
// confirmed spend, and an orphan whose parent it has not seen. Only the
// orphan is parked; no block will bring the other two's inputs back, and
// every later admission would retry them.
func TestSpentTxIsNotParked(t *testing.T) {
	f := newRelayFixture(t, 1)
	n := f.node(t, p2p.NewMemTransport(), true)
	confirmed := f.payment(t, n, 0)
	conflict := f.payment(t, n, 0)
	if confirmed.ID() == conflict.ID() || confirmed.Inputs[0].Prev != conflict.Inputs[0].Prev {
		t.Fatal("want two different spends of one coin")
	}
	orphan := &chain.Tx{Version: conflict.Version, Outputs: conflict.Outputs,
		Inputs: []chain.TxIn{{Prev: chain.OutPoint{TxID: chain.Hash{9}}, Unlock: conflict.Inputs[0].Unlock}}}
	if err := n.Ledger().Submit(confirmed); err != nil {
		t.Fatal(err)
	}
	if _, err := n.MineNow(); err != nil {
		t.Fatal(err)
	}
	for _, tx := range []*chain.Tx{confirmed, conflict, orphan} {
		n.admitTx(tx)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.orphanTxs[orphan.ID()]; !ok || len(n.orphanTxs) != 1 {
		t.Fatalf("%d txs parked (orphan among them: %v), want the orphan alone", len(n.orphanTxs), ok)
	}
}
