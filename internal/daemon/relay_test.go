package daemon

import (
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/p2p"
	"bcwan/internal/telemetry"
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

// txRelayCount reads one of the p2p relay's transaction counters
// ("announces", "requests" or "fulfills") in direction dir.
func txRelayCount(n *Node, name, dir string) uint64 {
	return n.Telemetry().Counter("bcwan_p2p_relay_"+name+"_total", "",
		telemetry.L("kind", "tx"), telemetry.L("dir", dir)).Value()
}

// rawBytes is the decoder of a test fake that wants the payload bytes.
func rawBytes(payload []byte) ([]byte, error) { return payload, nil }

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
	p2p.Handle(faker, "getblocktxn", rawBytes, func(string, []byte) {})
	p2p.Handle(faker, "getdata", rawBytes, func(from string, _ []byte) {
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

// TestOrphanSketchNotForwarded hands a node the sketch of a block whose
// parent it lacks. The block cannot join the index, so the node must not
// forward the sketch: a peer's orphan round would ask it for headers it
// does not have.
func TestOrphanSketchNotForwarded(t *testing.T) {
	f := newRelayFixture(t, 0)
	tr := p2p.NewMemTransport()
	n := f.node(t, tr, false)
	f.node(t, tr, false, n.P2PAddr())
	waitCond(t, "n to learn its peer", func() bool { return len(n.gossip.Peers()) == 1 })

	// Two blocks on a private chain nobody else holds; n gets the second.
	private, err := chain.New(f.params, f.genesis)
	if err != nil {
		t.Fatal(err)
	}
	private.AuthorizeMiner(f.miner.PublicBytes())
	miner := chain.NewMiner(f.miner, private, chain.NewMempool(), rand.Reader)
	if _, err := miner.Mine(time.Now()); err != nil {
		t.Fatal(err)
	}
	orphan, err := miner.Mine(time.Now())
	if err != nil {
		t.Fatal(err)
	}

	faker, err := p2p.NewNode(tr, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer faker.Close()
	if err := faker.Connect(n.P2PAddr()); err != nil {
		t.Fatal(err)
	}
	// The second copy is a barrier: n handles the link's frames in
	// order, so once it has received two sketches it is done with the
	// first.
	sketch := chain.NewCompactBlock(orphan).Serialize()
	faker.SendTo(n.P2PAddr(), "cmpctblock", sketch)
	faker.SendTo(n.P2PAddr(), "cmpctblock", sketch)
	waitCond(t, "n to handle both sketches", func() bool {
		return daemonCounter(n, "cmpct_received_total") == 2
	})
	if got := daemonCounter(n, "cmpct_reconstructed_total"); got == 0 {
		t.Fatal("n never reconstructed the orphan")
	}
	if h := n.Chain().Height(); h != 0 {
		t.Fatalf("height = %d, want 0", h)
	}
	if got := daemonCounter(n, "cmpct_sent_total"); got != 0 {
		t.Fatalf("n forwarded the orphan's sketch %d times", got)
	}
}

// TestRefusedTxNotRelayed runs a line a — b — c in which a, a bare p2p
// node, announces a transaction with a corrupted signature and an orphan
// child whose parent no node has seen. b fetches both: it refuses the
// first, which must go no further, and parks the child, which must still
// reach c, served from b's parked set.
func TestRefusedTxNotRelayed(t *testing.T) {
	f := newRelayFixture(t, 2)
	tr := p2p.NewMemTransport()
	b := f.node(t, tr, false)
	c := f.node(t, tr, false, b.P2PAddr())
	waitCond(t, "b to learn c", func() bool { return len(b.gossip.Peers()) == 1 })

	w := f.wallets[0]
	parent := f.payment(t, b, 0)
	view := b.Chain().UTXO()
	if err := view.ApplyTx(parent, 1); err != nil {
		t.Fatal(err)
	}
	child, err := w.BuildPayment(view, w.PubKeyHash(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := f.payment(t, b, 1)
	unlock := append([]byte(nil), good.Inputs[0].Unlock...)
	unlock[10] ^= 0xff // inside the signature
	forged := &chain.Tx{Version: good.Version, Outputs: good.Outputs,
		Inputs: []chain.TxIn{{Prev: good.Inputs[0].Prev, Unlock: unlock}}}
	bodies := map[p2p.ObjectID][]byte{
		p2p.ObjectID(forged.ID()): forged.Serialize(),
		p2p.ObjectID(child.ID()):  child.Serialize(),
	}

	a, err := p2p.NewNode(tr, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	p2p.Handle(a, "getdata", rawBytes, func(from string, payload []byte) {
		ids := payload[1+int(payload[0]):]
		for ; len(ids) >= 32; ids = ids[32:] {
			if body, ok := bodies[p2p.ObjectID(ids[:32])]; ok {
				a.SendTo(from, "tx", body)
			}
		}
	})
	if err := a.Connect(b.P2PAddr()); err != nil {
		t.Fatal(err)
	}
	// b handles the forged body before the child's and c its link from
	// b in order, so once c parks the child anything b relayed of the
	// forged transaction has reached c.
	a.SendTo(b.P2PAddr(), "inv", p2p.EncodeInv("tx", p2p.ObjectID(forged.ID()), p2p.ObjectID(child.ID())))
	waitCond(t, "c to park the child", func() bool { return c.heldTx(child.ID()) != nil })

	if got := txRelayCount(b, "fulfills", "in"); got != 2 {
		t.Fatalf("b received %d tx bodies, want 2", got)
	}
	if b.heldTx(forged.ID()) != nil {
		t.Fatal("b holds the forged transaction")
	}
	if got := txRelayCount(c, "announces", "in"); got != 1 {
		t.Fatalf("c heard %d tx announcements, want the child's alone", got)
	}
	if got := txRelayCount(c, "fulfills", "in"); got != 1 {
		t.Fatalf("c received %d tx bodies, want the child's alone", got)
	}
	if b.heldTx(child.ID()) == nil || txRelayCount(b, "fulfills", "out") != 1 {
		t.Fatal("b did not serve the child from its parked set")
	}
}

// TestConflictNotRefetched pools one of two conflicting payments at
// each of two linked nodes. Every sync tick re-announces each pool to the
// other node, which refuses the conflicting body: it must fetch it once,
// not once per tick.
func TestConflictNotRefetched(t *testing.T) {
	f := newRelayFixture(t, 1)
	tr := p2p.NewMemTransport()
	fastTicks := func(cfg *NodeConfig) { cfg.SyncRetryInterval = 10 * time.Millisecond }
	a := syncTestNode(t, f, tr, fastTicks)
	b := syncTestNode(t, f, tr, fastTicks, a.P2PAddr())
	waitCond(t, "a to learn b", func() bool { return len(a.gossip.Peers()) == 1 })
	first, second := f.payment(t, a, 0), f.payment(t, a, 0)
	if err := a.Ledger().Pool.Accept(first, a.Chain().UTXO(), 0, f.params); err != nil {
		t.Fatal(err)
	}
	if err := b.Ledger().Pool.Accept(second, b.Chain().UTXO(), 0, f.params); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "five re-announces each way", func() bool {
		return txRelayCount(a, "announces", "in") >= 5 && txRelayCount(b, "announces", "in") >= 5
	})
	for _, n := range []*Node{a, b} {
		if got := txRelayCount(n, "fulfills", "in"); got != 1 {
			t.Errorf("a node fetched the conflicting body %d times, want 1", got)
		}
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
	// Ring closure for redundant paths. Connect's greeting getheaders
	// is the first message over the new link, teaching nodes[0] the
	// dialer's address; every node then learns both ring neighbours
	// before the workload starts (inbound peers register on first
	// message).
	if err := nodes[nNodes-1].Connect(nodes[0].P2PAddr()); err != nil {
		t.Fatal(err)
	}
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

// TestLocalSubmitAdmitsParkedChild parks a transaction whose parent the
// node has not seen, then submits the parent through the ledger: the
// child must be pooled at once, with no block mined to retry it.
func TestLocalSubmitAdmitsParkedChild(t *testing.T) {
	f := newRelayFixture(t, 1)
	n := f.node(t, p2p.NewMemTransport(), false)
	w := f.wallets[0]
	parent := f.payment(t, n, 0)
	view := n.Chain().UTXO()
	if err := view.ApplyTx(parent, 1); err != nil {
		t.Fatal(err)
	}
	child, err := w.BuildPayment(view, w.PubKeyHash(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	n.admitTx(child)
	n.mu.Lock()
	_, parked := n.orphanTxs[child.ID()]
	n.mu.Unlock()
	if !parked {
		t.Fatal("the child was not parked")
	}
	if err := n.Ledger().Submit(parent); err != nil {
		t.Fatal(err)
	}
	if !n.Ledger().Pool.Contains(child.ID()) {
		t.Fatal("the parked child is not pooled after its parent's submit")
	}
	if h := n.Chain().Height(); h != 0 {
		t.Fatalf("height = %d, want 0", h)
	}
}
