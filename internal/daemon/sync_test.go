package daemon

import (
	"context"
	"crypto/rand"
	"errors"
	"slices"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/p2p"
	"bcwan/internal/rpc"
	"bcwan/internal/telemetry"
)

// syncTestNode builds a node with fast sync knobs: a small snapshot
// interval and chunk size so a short chain crosses several commitment
// boundaries and a snapshot spans multiple chunks, and a 10ms retry
// tick so the state machine converges within test deadlines.
func syncTestNode(t *testing.T, f *relayFixture, tr p2p.Transport, tweak func(*NodeConfig), peers ...string) *Node {
	t.Helper()
	cfg := NodeConfig{
		Genesis:             f.genesis,
		Params:              f.params,
		Miners:              f.miners,
		Peers:               peers,
		Transport:           tr,
		MineInterval:        time.Hour,
		RelayRequestTimeout: 100 * time.Millisecond,
		SnapshotInterval:    8,
		SnapshotMinGap:      4,
		SnapshotChunkSize:   256,
		SyncRetryInterval:   10 * time.Millisecond,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestSnapshotChunksAssembleRoundTrip covers the transfer encoding: a
// serialized UTXO set split into chunks reassembles against its
// commitment, and any corruption, truncation or loss is rejected with
// ErrBadCommitment before the bytes could reach the chain.
func TestSnapshotChunksAssembleRoundTrip(t *testing.T) {
	c, _, _ := storedChain(t, 3)
	data := c.UTXO().SerializeUTXO()
	commit := &chain.SnapshotCommitment{
		Height:   c.Height(),
		UTXOHash: chain.SnapshotHash(data),
		UTXOSize: int64(len(data)),
	}

	chunks := SnapshotChunks(data, 16)
	if len(chunks) < 2 {
		t.Fatalf("chunk size 16 produced %d chunks for %d bytes", len(chunks), len(data))
	}
	utxo, err := AssembleSnapshot(commit, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if utxo.TotalValue() != c.UTXO().TotalValue() {
		t.Fatal("reassembled set differs from the original")
	}

	// A single chunk at the default size round-trips too.
	if one := SnapshotChunks(data, 0); len(one) != 1 {
		t.Fatalf("default chunk size split %d bytes into %d chunks", len(data), len(one))
	}

	// One flipped byte anywhere fails the commitment hash.
	bad := make([][]byte, len(chunks))
	copy(bad, chunks)
	bad[1] = append([]byte(nil), chunks[1]...)
	bad[1][0] ^= 0xff
	if _, err := AssembleSnapshot(commit, bad); !errors.Is(err, chain.ErrBadCommitment) {
		t.Fatalf("corrupted chunk: err = %v, want ErrBadCommitment", err)
	}

	// A truncated final chunk fails the size check.
	trunc := make([][]byte, len(chunks))
	copy(trunc, chunks)
	last := chunks[len(chunks)-1]
	trunc[len(trunc)-1] = last[:len(last)-1]
	if _, err := AssembleSnapshot(commit, trunc); !errors.Is(err, chain.ErrBadCommitment) {
		t.Fatalf("truncated chunk: err = %v, want ErrBadCommitment", err)
	}

	// A dropped chunk fails the size check.
	if _, err := AssembleSnapshot(commit, chunks[:len(chunks)-1]); !errors.Is(err, chain.ErrBadCommitment) {
		t.Fatalf("missing chunk: err = %v, want ErrBadCommitment", err)
	}
}

// TestSnapshotBootstrapEndToEnd is the tentpole happy path: a fresh
// joiner behind a 24-block mesh fetches the header spine, bootstraps
// from the miner's signed snapshot at height 24, and goes live as a
// pruned replica that still settles payments.
func TestSnapshotBootstrapEndToEnd(t *testing.T) {
	f := newRelayFixture(t, 1)
	tr := p2p.NewMemTransport()
	miner := syncTestNode(t, f, tr, func(cfg *NodeConfig) { cfg.MinerKey = f.miner })
	for i := 0; i < 24; i++ {
		if _, err := miner.MineNow(); err != nil {
			t.Fatal(err)
		}
	}

	joiner := syncTestNode(t, f, tr, nil, miner.P2PAddr())
	waitCond(t, "joiner to go live at the miner's tip", func() bool {
		return joiner.SyncInfo().Phase == "live" && joiner.Chain().Height() == 24
	})
	if joiner.Chain().Tip().ID() != miner.Chain().Tip().ID() {
		t.Fatal("joiner tip differs from miner tip")
	}
	si := joiner.SyncInfo()
	if si.FullSyncFallback {
		t.Fatal("bootstrap fell back to a full sync")
	}
	if si.SnapshotHeight != 24 {
		t.Fatalf("snapshot height = %d, want 24", si.SnapshotHeight)
	}
	if got := joiner.Chain().PruneBase(); got != 24 {
		t.Fatalf("joiner prune base = %d, want 24 (the snapshot horizon)", got)
	}
	if b, ok := joiner.Chain().BlockAt(1); !ok || len(b.Txs) != 0 {
		t.Fatal("pre-horizon block should be a header-only stub")
	}
	if got := daemonCounter(joiner, "sync_headers_total"); got != 24 {
		t.Fatalf("headers synced = %d, want 24", got)
	}
	if si.SnapshotChunksTotal < 2 || si.SnapshotChunksGot != si.SnapshotChunksTotal {
		t.Fatalf("chunks = %d/%d, want a complete multi-chunk download",
			si.SnapshotChunksGot, si.SnapshotChunksTotal)
	}
	if got := daemonCounter(miner, "snapshot_chunks_served_total"); got == 0 {
		t.Fatal("miner served no snapshot chunks")
	}

	// The same progress surface is served over RPC.
	var rpcInfo SyncInfo
	if err := rpc.NewClient(joiner.RPCAddr()).Call(context.Background(), "getsyncinfo", &rpcInfo); err != nil {
		t.Fatal(err)
	}
	if rpcInfo.Phase != "live" || rpcInfo.PruneBase != 24 || rpcInfo.ChainHeight != 24 {
		t.Fatalf("getsyncinfo = %+v", rpcInfo)
	}

	// The pruned joiner still participates: a payment submitted to it
	// pools on the miner, and the mined block extends both replicas.
	tx, err := f.wallets[0].BuildPayment(joiner.Chain().UTXO(), f.wallets[0].PubKeyHash(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.Ledger().Submit(tx); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "miner to pool the payment", func() bool { return miner.Ledger().Pool.Len() == 1 })
	if _, err := miner.MineNow(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "joiner to adopt block 25", func() bool { return joiner.Chain().Height() == 25 })
	spender, h, ok := joiner.Chain().FindSpender(tx.Inputs[0].Prev)
	if !ok || h != 25 || spender.ID() != tx.ID() {
		t.Fatalf("payment not settled on the pruned joiner (found %v at %d)", ok, h)
	}
}

// TestSnapshotTamperFallsBackToFullSync puts a lying snapshot peer in
// the joiner's way: the served chunks fail the commitment hash, the
// peer is abandoned, and — with no other snapshot source — the joiner
// completes a full body sync from genesis without ever installing the
// bad state.
func TestSnapshotTamperFallsBackToFullSync(t *testing.T) {
	f := newRelayFixture(t, 1)
	tr := p2p.NewMemTransport()
	miner := syncTestNode(t, f, lyingTransport{tr}, func(cfg *NodeConfig) { cfg.MinerKey = f.miner })
	for i := 0; i < 24; i++ {
		if _, err := miner.MineNow(); err != nil {
			t.Fatal(err)
		}
	}

	joiner := syncTestNode(t, f, tr, nil, miner.P2PAddr())
	waitCond(t, "joiner to finish a full sync", func() bool {
		return joiner.SyncInfo().Phase == "live" && joiner.Chain().Height() == 24
	})
	if !joiner.SyncInfo().FullSyncFallback {
		t.Fatal("expected the full-sync fallback after the tampered snapshot")
	}
	if daemonCounter(joiner, "snapshot_rejected_total") == 0 {
		t.Fatal("tampered snapshot was never counted as rejected")
	}
	if daemonCounter(joiner, "sync_full_fallbacks_total") != 1 {
		t.Fatal("full-sync fallback not counted")
	}
	if joiner.Chain().PruneBase() != 0 {
		t.Fatal("fallback must not leave a prune horizon")
	}
	if b, ok := joiner.Chain().BlockAt(1); !ok || len(b.Txs) == 0 {
		t.Fatal("full sync should restore complete bodies")
	}
	if joiner.Chain().Tip().ID() != miner.Chain().Tip().ID() {
		t.Fatal("joiner tip differs from miner tip")
	}
}

// TestSnapshotBootstrapPrefersHonestPeer gives the joiner two snapshot
// sources — one tampering, one honest — and checks the deterministic
// failover lands on the honest one instead of degrading to a full sync.
func TestSnapshotBootstrapPrefersHonestPeer(t *testing.T) {
	f := newRelayFixture(t, 1)
	tr := p2p.NewMemTransport()
	liar := syncTestNode(t, f, lyingTransport{tr}, func(cfg *NodeConfig) { cfg.MinerKey = f.miner })
	for i := 0; i < 24; i++ {
		if _, err := liar.MineNow(); err != nil {
			t.Fatal(err)
		}
	}
	// The honest node replicates the liar's chain (the lying transport
	// only rewrites served snapshot chunks, not blocks), then serves
	// joiners.
	honest := syncTestNode(t, f, tr, func(cfg *NodeConfig) { cfg.SnapshotSyncDisabled = true }, liar.P2PAddr())
	waitCond(t, "honest node to replicate the chain", func() bool {
		return honest.SyncInfo().Phase == "live" && honest.Chain().Height() == 24
	})
	// An honest full replica can serve snapshots once it holds a
	// verifiable commitment; the liar's mine-time announcements predate it,
	// so hand it one directly.
	waitCond(t, "honest node to cache a commitment", func() bool {
		honest.onSnapCommit("test", mustServeCommit(t, liar))
		honest.sync.mu.Lock()
		defer honest.sync.mu.Unlock()
		return honest.sync.serveCommit != nil
	})

	joiner := syncTestNode(t, f, tr, nil, liar.P2PAddr(), honest.P2PAddr())
	waitCond(t, "joiner to bootstrap from the honest peer", func() bool {
		return joiner.SyncInfo().Phase == "live" && joiner.Chain().Height() == 24
	})
	if joiner.SyncInfo().FullSyncFallback {
		t.Fatal("joiner degraded to a full sync despite an honest snapshot peer")
	}
	if joiner.Chain().PruneBase() != 24 {
		t.Fatalf("joiner prune base = %d, want 24", joiner.Chain().PruneBase())
	}
	if joiner.Chain().Tip().ID() != honest.Chain().Tip().ID() {
		t.Fatal("joiner tip differs")
	}
}

// TestCommitmentRelayStopsForgeriesAtFirstHop runs a line miner — mid —
// far. A genuine snapshot commitment crosses both hops by inv/getdata
// and far caches it for serving; a commitment signed by a key outside
// the miner set and a 1 MiB frame of a type no node handles, both fed to
// mid, never reach far.
func TestCommitmentRelayStopsForgeriesAtFirstHop(t *testing.T) {
	f := newRelayFixture(t, 1)
	tr := p2p.NewMemTransport()
	miner := syncTestNode(t, f, tr, func(cfg *NodeConfig) { cfg.MinerKey = f.miner })
	mid := syncTestNode(t, f, tr, nil, miner.P2PAddr())
	far := syncTestNode(t, f, tr, nil, mid.P2PAddr())
	waitCond(t, "the line to link up and go live", func() bool {
		return len(miner.Gossip().Peers()) == 1 && len(mid.Gossip().Peers()) == 2 &&
			mid.SyncInfo().Phase == "live" && far.SyncInfo().Phase == "live"
	})
	for i := 0; i < 8; i++ { // SnapshotInterval: the 8th block is a boundary
		if _, err := miner.MineNow(); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "far to cache the miner's commitment", func() bool {
		far.sync.mu.Lock()
		defer far.sync.mu.Unlock()
		return far.sync.serveCommit != nil
	})
	genuine := mustServeCommit(t, miner)
	if mustServeCommit(t, far).ID() != genuine.ID() {
		t.Fatal("far caches a commitment other than the miner's")
	}
	msgsIn := func(n *Node, msgType string) uint64 {
		return n.Telemetry().Counter("bcwan_p2p_messages_in_total", "", telemetry.L("type", msgType)).Value()
	}
	genuineIn := msgsIn(far, p2p.MsgTypeSnapCommit)
	// A type no node handles or sends has no per-type series, so the
	// junk frame shows in the byte counters: its 1 MiB dwarfs the rest
	// of the window's traffic.
	const junkSize = 1 << 20
	bytesIn := func(n *Node) uint64 {
		return n.Telemetry().Counter("bcwan_p2p_bytes_in_total", "").Value()
	}
	midBytes, farBytes := bytesIn(mid), bytesIn(far)

	rogue, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	forged := *genuine
	if err := forged.Sign(rogue, rand.Reader); err != nil {
		t.Fatal(err)
	}
	attacker, err := p2p.NewNode(tr, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	if err := attacker.Connect(mid.P2PAddr()); err != nil {
		t.Fatal(err)
	}
	attacker.SendTo(mid.P2PAddr(), p2p.MsgTypeSnapCommit, forged.Serialize())
	attacker.SendTo(mid.P2PAddr(), "xyz-unknown", make([]byte, junkSize))
	// A valid transaction behind them on the same link is the barrier:
	// mid handles the link's frames in order and far its link from mid,
	// so once far pools the transaction, anything mid forwarded of the
	// two frames before it has been counted at far.
	tx := f.payment(t, mid, 0)
	attacker.SendTo(mid.P2PAddr(), "tx", tx.Serialize())
	waitCond(t, "far to pool the barrier transaction", func() bool {
		return far.Ledger().Pool.Contains(tx.ID())
	})

	if daemonCounter(mid, "snapshot_rejected_total") == 0 || bytesIn(mid)-midBytes < junkSize {
		t.Fatal("the injected frames never reached mid")
	}
	if got := msgsIn(far, p2p.MsgTypeSnapCommit); got != genuineIn {
		t.Fatalf("far received %d snapcommit bodies, %d of them genuine: mid relayed the forgery", got, genuineIn)
	}
	if got := bytesIn(far) - farBytes; got >= junkSize {
		t.Fatalf("far received %d bytes: mid forwarded the frame of an unregistered type", got)
	}
	if mustServeCommit(t, far).ID() != genuine.ID() {
		t.Fatal("far's cached commitment changed")
	}
}

// TestConnectRegistersDialerAtOnce checks the greeting getheaders every
// outbound dial sends: the dialee learns the dialer from it within
// 100 ms, instead of waiting for the dialer's first 500 ms retry tick.
func TestConnectRegistersDialerAtOnce(t *testing.T) {
	f := newRelayFixture(t, 1)
	tr := p2p.NewMemTransport()
	var nodes []*Node
	for i := 0; i < 3; i++ {
		var peers []string
		for _, n := range nodes {
			peers = append(peers, n.P2PAddr())
		}
		start := time.Now()
		n := f.node(t, tr, i == 0, peers...)
		for _, dialee := range nodes {
			for !slices.Contains(dialee.Gossip().Peers(), n.P2PAddr()) {
				if time.Since(start) > 100*time.Millisecond {
					t.Fatalf("dialee %s does not list dialer %s after %s", dialee.P2PAddr(), n.P2PAddr(), time.Since(start))
				}
				time.Sleep(time.Millisecond)
			}
		}
		nodes = append(nodes, n)
	}
}

// handTickedNode builds a syncTestNode whose retry tick never fires (an
// hour apart), so the test starts every round itself with sync.tick,
// and lifts its boot hold as Open would.
func handTickedNode(t *testing.T, f *relayFixture, tr p2p.Transport, tweak func(*NodeConfig), peers ...string) *Node {
	t.Helper()
	n := syncTestNode(t, f, tr, func(cfg *NodeConfig) {
		cfg.SyncRetryInterval = time.Hour
		if tweak != nil {
			tweak(cfg)
		}
	}, peers...)
	n.sync.release()
	return n
}

// getheadersSent counts the rounds a node has started: each sends one
// getheaders.
func getheadersSent(n *Node) uint64 {
	return n.Telemetry().Counter("bcwan_p2p_messages_out_total", "", telemetry.L("type", p2p.MsgTypeGetHeaders)).Value()
}

// TestDeepForkResolvesInOneRound splits two miners for longer than one
// tail batch: each mines its own branch off genesis, then a bare link
// joins them — nothing is announced over it, as when a partition heals.
// The shorter side must reorganize onto the longer branch within
// ⌈depth/64⌉ + 1 live ticks per node, counted as the getheaders each
// node sent: a round's locator finds the fork point, and the tail
// fetches from there instead of from its own tip.
func TestDeepForkResolvesInOneRound(t *testing.T) {
	const short, long = 70, 140
	f := newRelayFixture(t, 1)
	other, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	miners := [][]byte{f.miner.PublicBytes(), other.PublicBytes()}
	tr := p2p.NewMemTransport()
	mk := func(key *bccrypto.ECKey, blocks int) *Node {
		n := handTickedNode(t, f, tr, func(cfg *NodeConfig) { cfg.Miners, cfg.MinerKey = miners, key })
		for i := 0; i < blocks; i++ {
			if _, err := n.MineNow(); err != nil {
				t.Fatal(err)
			}
		}
		// With no peer, the boot round stalls out to live.
		for n.SyncInfo().Phase != "live" {
			n.sync.tick()
		}
		return n
	}
	a, b := mk(f.miner, short), mk(other, long)
	bothLive := func() bool { return a.SyncInfo().Phase == "live" && b.SyncInfo().Phase == "live" }
	if err := a.Gossip().Connect(b.P2PAddr()); err != nil {
		t.Fatal(err)
	}

	bound := uint64((long+maxSyncBlocks-1)/maxSyncBlocks + 1)
	for a.Chain().Tip().ID() != b.Chain().Tip().ID() {
		if getheadersSent(a) >= bound || getheadersSent(b) >= bound {
			t.Fatalf("no convergence after %d and %d rounds (a at %d, b at %d)",
				getheadersSent(a), getheadersSent(b), a.Chain().Height(), b.Chain().Height())
		}
		a.sync.tick()
		b.sync.tick()
		waitCond(t, "the round to finish", bothLive)
	}
	if got := a.Chain().Height(); got != long {
		t.Fatalf("a at height %d, want the long branch's %d", got, long)
	}
	t.Logf("a %d-block fork resolved after %d rounds at a, %d at b (bound %d)", long, getheadersSent(a), getheadersSent(b), bound)
}

// lyingTransport makes a node a lying snapshot peer: chunk 0 of every
// snapshot it serves has a byte flipped, so the download passes every
// cheap check and fails only the commitment hash over the assembled
// bytes.
type lyingTransport struct{ p2p.Transport }

func (t lyingTransport) Listen(addr string) (p2p.Listener, error) {
	l, err := t.Transport.Listen(addr)
	return lyingListener{l}, err
}

func (t lyingTransport) Dial(addr string) (p2p.Conn, error) {
	c, err := t.Transport.Dial(addr)
	return lyingConn{c}, err
}

type lyingListener struct{ p2p.Listener }

func (l lyingListener) Accept() (p2p.Conn, error) {
	c, err := l.Listener.Accept()
	return lyingConn{c}, err
}

type lyingConn struct{ p2p.Conn }

func (c lyingConn) Send(m p2p.Message) error {
	if m.Type == p2p.MsgTypeSnapshotChunk {
		if msg, err := p2p.DecodeSnapshotChunk(m.Payload); err == nil && msg.Chunk == 0 && len(msg.Payload) > 0 {
			msg.Payload = append([]byte(nil), msg.Payload...)
			msg.Payload[0] ^= 0xff
			m.Payload = msg.Encode()
		}
	}
	return c.Conn.Send(m)
}

// mustServeCommit reads a node's cached serving commitment.
func mustServeCommit(t *testing.T, n *Node) *chain.SnapshotCommitment {
	t.Helper()
	n.sync.mu.Lock()
	defer n.sync.mu.Unlock()
	if n.sync.serveCommit == nil {
		t.Fatal("node has no serving commitment")
	}
	return n.sync.serveCommit
}

// TestPrunedNodeRestartSettlesPayments runs a pruning miner against a
// store, restarts it from the rewritten log (base state, blocks above
// the base, checkpoint, tail), and checks the revived node restores the
// same UTXO set and still mines and settles payments with every body
// below the horizon gone.
func TestPrunedNodeRestartSettlesPayments(t *testing.T) {
	f := newRelayFixture(t, 1)
	dir := t.TempDir()
	tr := p2p.NewMemTransport()
	mk := func() *Node {
		return syncTestNode(t, f, tr, func(cfg *NodeConfig) {
			cfg.MinerKey = f.miner
			cfg.PruneDepth = 4
			cfg.StoreCompactEvery = 4
		})
	}

	n1 := mk()
	if _, err := n1.Open(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := n1.MineNow(); err != nil {
			t.Fatal(err)
		}
	}
	if n1.Chain().PruneBase() == 0 {
		t.Fatal("compaction never pruned")
	}
	tip := n1.Chain().Tip().ID()
	_, tipSet := tipState(n1.Chain())
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}

	n2 := mk()
	loaded, err := n2.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 12 {
		t.Fatalf("restart loaded %d blocks from the store, want 12", loaded)
	}
	if n2.Chain().Height() != 12 || n2.Chain().Tip().ID() != tip {
		t.Fatalf("restart height = %d, tip match %v", n2.Chain().Height(), n2.Chain().Tip().ID() == tip)
	}
	if _, h := tipState(n2.Chain()); h != tipSet {
		t.Fatal("restart restored a different UTXO set")
	}
	base := n2.Chain().PruneBase()
	if base == 0 {
		t.Fatal("restart lost the prune horizon")
	}
	if b, ok := n2.Chain().BlockAt(base); !ok || len(b.Txs) != 0 {
		t.Fatalf("height %d should be a header-only stub after restart", base)
	}
	// The restarting miner re-offers its boundary commitment.
	if mustServeCommit(t, n2).Height != 8 {
		t.Fatalf("restart commitment height = %d, want 8", mustServeCommit(t, n2).Height)
	}

	tx, err := f.wallets[0].BuildPayment(n2.Chain().UTXO(), f.wallets[0].PubKeyHash(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.Ledger().Submit(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := n2.MineNow(); err != nil {
		t.Fatal(err)
	}
	spender, h, ok := n2.Chain().FindSpender(tx.Inputs[0].Prev)
	if !ok || h != 13 || spender.ID() != tx.ID() {
		t.Fatalf("payment not settled after restart (found %v at %d)", ok, h)
	}
}
