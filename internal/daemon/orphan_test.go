package daemon

import (
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/p2p"
)

// orphanFixture links a hand-ticked node to a miner src and waits for
// its boot round to go live, so any later getheaders is a round an
// orphan started.
func orphanFixture(t *testing.T) (src, n *Node) {
	t.Helper()
	f := newRelayFixture(t, 0)
	tr := p2p.NewMemTransport()
	src = f.node(t, tr, true)
	n = handTickedNode(t, f, tr, nil, src.P2PAddr())
	waitCond(t, "the node to go live", func() bool { return n.SyncInfo().Phase == "live" })
	return src, n
}

// TestUnsignedOrphansNotParked feeds a node blocks whose parents it has
// never seen and whose headers no authorized miner signed, from a real
// peer. Each must be rejected outright: a round per forged block would
// let any peer make the node ask for headers at will.
func TestUnsignedOrphansNotParked(t *testing.T) {
	src, n := orphanFixture(t)
	mined, err := src.miner.Mine(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	before := getheadersSent(n)
	for i := 0; i < 50; i++ {
		hdr := mined.Header
		hdr.PrevBlock = chain.Hash{0xee, byte(i)}
		hdr.Signature = nil
		n.acceptBlock(&chain.Block{Header: hdr, Txs: mined.Txs}, src.P2PAddr())
	}
	if got := getheadersSent(n) - before; got != 0 {
		t.Fatalf("unsigned orphans sent %d getheaders, want 0", got)
	}
	if n.Chain().Height() != 0 {
		t.Fatalf("height = %d, want 0", n.Chain().Height())
	}
}

// TestOrphanConnectsWhenParentArrives delivers the authorized miner's
// block N+1 from a real peer before block N reached the node. Nothing
// is parked: the orphan starts one round with its sender, whose tail
// getdata brings both blocks, and the tip reaches the child.
func TestOrphanConnectsWhenParentArrives(t *testing.T) {
	src, n := orphanFixture(t)
	// Mine without the compact broadcast, so the blocks reach n only
	// through the round.
	if _, err := src.miner.Mine(time.Now()); err != nil {
		t.Fatal(err)
	}
	child, err := src.miner.Mine(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	before := getheadersSent(n)
	n.acceptBlock(child, src.P2PAddr())
	waitCond(t, "the tip to reach the child", func() bool { return n.Chain().Tip().ID() == child.ID() })
	if got := getheadersSent(n) - before; got != 1 {
		t.Fatalf("the orphan started %d rounds, want 1", got)
	}
}

// TestTailWindowConnectsReorderedBatch hands a node in the tail phase
// the spine's five blocks last first, as a network that permutes a
// getdata batch would: each early block waits in the tail window, and
// the first one connects all five at once.
func TestTailWindowConnectsReorderedBatch(t *testing.T) {
	f := newRelayFixture(t, 0)
	src := f.node(t, p2p.NewMemTransport(), true)
	n := handTickedNode(t, f, p2p.NewMemTransport(), nil)
	var blocks []*chain.Block
	headers := make([]*chain.Header, 0, 5)
	for i := 0; i < 5; i++ {
		b, err := src.miner.Mine(time.Now())
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		headers = append(headers, &b.Header)
	}
	n.sync.mu.Lock()
	if _, err := n.sync.spine.Connect(headers); err != nil {
		n.sync.mu.Unlock()
		t.Fatal(err)
	}
	n.sync.phase = syncTail
	n.sync.mu.Unlock()

	for i := len(blocks) - 1; i > 0; i-- {
		n.acceptBlock(blocks[i], "peer")
	}
	if h := n.Chain().Height(); h != 0 {
		t.Fatalf("height %d before the first block, want 0", h)
	}
	n.acceptBlock(blocks[0], "peer")
	if tip := n.Chain().Tip().ID(); tip != blocks[4].ID() {
		t.Fatalf("tip at height %d, want the fifth block", n.Chain().Height())
	}
	if got := n.SyncInfo().Phase; got != "live" {
		t.Fatalf("phase %s after the tail, want live", got)
	}
}
