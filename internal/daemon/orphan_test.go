package daemon

import (
	"testing"

	"bcwan/internal/chain"
	"bcwan/internal/p2p"
)

func (n *Node) orphanCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.orphans)
}

// TestUnsignedOrphansNotParked feeds a node blocks whose parents it has
// never seen and whose headers no authorized miner signed. Each must be
// rejected outright: parking them would let any peer fill the orphan
// table with bodies and trigger a catch-up round per block.
func TestUnsignedOrphansNotParked(t *testing.T) {
	f := newRelayFixture(t, 0)
	src := f.node(t, p2p.NewMemTransport(), true)
	mined, err := src.MineNow()
	if err != nil {
		t.Fatal(err)
	}
	n := f.node(t, p2p.NewMemTransport(), false)
	for i := 0; i < 50; i++ {
		hdr := mined.Header
		hdr.PrevBlock = chain.Hash{0xee, byte(i)}
		hdr.Signature = nil
		n.acceptBlock(&chain.Block{Header: hdr, Txs: mined.Txs}, "peer")
	}
	if got := n.orphanCount(); got != 0 {
		t.Fatalf("%d unsigned blocks parked as orphans, want 0", got)
	}
	if n.Chain().Height() != 0 {
		t.Fatalf("height = %d, want 0", n.Chain().Height())
	}
}

// TestOrphanConnectsWhenParentArrives delivers the authorized miner's
// block N+1 before block N: N+1 is parked, and connects as soon as N
// does.
func TestOrphanConnectsWhenParentArrives(t *testing.T) {
	f := newRelayFixture(t, 0)
	src := f.node(t, p2p.NewMemTransport(), true)
	parent, err := src.MineNow()
	if err != nil {
		t.Fatal(err)
	}
	child, err := src.MineNow()
	if err != nil {
		t.Fatal(err)
	}
	n := f.node(t, p2p.NewMemTransport(), false)
	n.acceptBlock(child, "peer")
	if got := n.orphanCount(); got != 1 {
		t.Fatalf("after the child: %d orphans, want 1", got)
	}
	n.acceptBlock(parent, "peer")
	if got := n.orphanCount(); got != 0 {
		t.Fatalf("after the parent: %d orphans, want 0", got)
	}
	if tip := n.Chain().Tip().ID(); tip != child.ID() {
		t.Fatalf("tip = %s, want the child %s", tip, child.ID())
	}
}
