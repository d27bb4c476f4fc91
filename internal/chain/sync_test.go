package chain_test

import (
	"crypto/rand"
	"errors"
	"runtime"
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/wallet"
)

// bestHeaders returns pointers to the best-branch headers from height
// from through to, inclusive.
func bestHeaders(t *testing.T, c *chain.Chain, from, to int64) []*chain.Header {
	t.Helper()
	var out []*chain.Header
	for h := from; h <= to; h++ {
		b, ok := c.BlockAt(h)
		if !ok {
			t.Fatalf("no block at height %d", h)
		}
		out = append(out, &b.Header)
	}
	return out
}

// tipID is the spine tip's block ID.
func tipID(hc *chain.HeaderChain) chain.Hash {
	id, _ := hc.IDAt(hc.Height())
	return id
}

func TestHeaderSerializeRoundTrip(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	b := h.mine()
	data := b.Header.Serialize()
	got, err := chain.DeserializeHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != b.ID() {
		t.Fatalf("round-trip ID = %s, want %s", got.ID(), b.ID())
	}
	if _, err := chain.DeserializeHeader(append(data, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestHeaderChainConnect(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	for i := 0; i < 5; i++ {
		h.mine()
	}
	hc := chain.NewHeaderChain(h.chain.Genesis(), [][]byte{h.minerW.PublicBytes()})
	batch := bestHeaders(t, h.chain, 1, 5)
	added, err := hc.Connect(batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != 5 || hc.Height() != 5 {
		t.Fatalf("added %d, height %d", added, hc.Height())
	}
	if tipID(hc) != h.chain.Tip().ID() {
		t.Fatal("spine tip does not match chain tip")
	}
	// Re-connecting the same batch is a no-op.
	if added, err = hc.Connect(batch); err != nil || added != 0 {
		t.Fatalf("reconnect: added %d, err %v", added, err)
	}
	// The locator starts at the tip and ends at genesis.
	loc := hc.Locator()
	if loc[0] != tipID(hc) || loc[len(loc)-1] != h.chain.Genesis().ID() {
		t.Fatal("locator endpoints wrong")
	}
}

func TestHeaderChainRejectsUnauthorizedAndUnsigned(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	outsider, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := buildOn(nil, h.chain.Genesis(), h.now.Add(time.Minute), outsider)
	if err != nil {
		t.Fatal(err)
	}
	hc := chain.NewHeaderChain(h.chain.Genesis(), [][]byte{h.minerW.PublicBytes()})
	if _, err := hc.Connect([]*chain.Header{&b1.Header}); !errors.Is(err, chain.ErrBadHeaderSig) {
		t.Fatalf("unauthorized miner: err = %v", err)
	}
	// An authorized header with a corrupted signature.
	b2 := h.mine()
	bad := b2.Header
	bad.Signature = append([]byte(nil), bad.Signature...)
	bad.Signature[0] ^= 0xff
	hc2 := chain.NewHeaderChain(h.chain.Genesis(), [][]byte{h.minerW.PublicBytes()})
	if _, err := hc2.Connect([]*chain.Header{&bad}); !errors.Is(err, chain.ErrBadHeaderSig) {
		t.Fatalf("bad signature: err = %v", err)
	}
	// A disconnected header (wrong height).
	skip := b2.Header
	skip.Height = 7
	if _, err := hc2.Connect([]*chain.Header{&skip}); !errors.Is(err, chain.ErrHeaderDisconnected) {
		t.Fatalf("disconnected: err = %v", err)
	}
}

// TestHeaderChainBadSignatureMidBatch runs a batch wide enough for the
// verify pool: the headers before the one bad signature are appended
// and the rest are not, and resending the prefix with the bad header
// appends nothing.
func TestHeaderChainBadSignatureMidBatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	h := newHarness(t, chain.DefaultParams())
	for i := 0; i < 64; i++ {
		h.mine()
	}
	batch := bestHeaders(t, h.chain, 1, 64)
	bad := *batch[40]
	bad.Signature = append([]byte(nil), bad.Signature...)
	bad.Signature[len(bad.Signature)/2] ^= 0xff
	batch[40] = &bad

	hc := chain.NewHeaderChain(h.chain.Genesis(), [][]byte{h.minerW.PublicBytes()})
	added, err := hc.Connect(batch)
	if !errors.Is(err, chain.ErrBadHeaderSig) || added != 40 || hc.Height() != 40 {
		t.Fatalf("64-header batch: added %d, height %d, err %v; want 40, 40, ErrBadHeaderSig", added, hc.Height(), err)
	}
	added, err = hc.Connect(batch[:41])
	if !errors.Is(err, chain.ErrBadHeaderSig) || added != 0 || hc.Height() != 40 {
		t.Fatalf("resent prefix: added %d, height %d, err %v; want 0, 40, ErrBadHeaderSig", added, hc.Height(), err)
	}
}

func TestHeaderChainForkTruncates(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	forkW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b1 := h.mine()
	b2 := h.mine()
	miners := [][]byte{h.minerW.PublicBytes(), forkW.PublicBytes()}
	hc := chain.NewHeaderChain(h.chain.Genesis(), miners)
	if _, err := hc.Connect([]*chain.Header{&b1.Header, &b2.Header}); err != nil {
		t.Fatal(err)
	}
	// A competing branch forking at height 1 and reaching height 3.
	f1, err := buildOn(nil, h.chain.Genesis(), h.now.Add(time.Hour), forkW)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := buildOn(nil, f1, h.now.Add(2*time.Hour), forkW)
	if err != nil {
		t.Fatal(err)
	}
	f3, err := buildOn(nil, f2, h.now.Add(3*time.Hour), forkW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hc.Connect([]*chain.Header{&f1.Header, &f2.Header, &f3.Header}); err != nil {
		t.Fatal(err)
	}
	if hc.Height() != 3 || tipID(hc) != f3.ID() {
		t.Fatalf("after fork: height %d tip %s", hc.Height(), tipID(hc))
	}
	if id, _ := hc.IDAt(1); id != f1.ID() {
		t.Fatal("height 1 not replaced by the fork")
	}
}

func TestHeadersAfterLocator(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	for i := 0; i < 8; i++ {
		h.mine()
	}
	// A joiner synced to height 3 asks for more.
	hc := chain.NewHeaderChain(h.chain.Genesis(), [][]byte{h.minerW.PublicBytes()})
	if _, err := hc.Connect(bestHeaders(t, h.chain, 1, 3)); err != nil {
		t.Fatal(err)
	}
	got := h.chain.HeadersAfter(hc.Locator(), 100)
	if len(got) != 5 || got[0].Height != 4 || got[len(got)-1].Height != 8 {
		t.Fatalf("headers after locator: %d headers, first %d", len(got), got[0].Height)
	}
	// Max caps the batch.
	got = h.chain.HeadersAfter(hc.Locator(), 2)
	if len(got) != 2 || got[0].Height != 4 {
		t.Fatalf("capped batch: %d headers", len(got))
	}
	// An unknown locator restarts from height 1.
	got = h.chain.HeadersAfter([]chain.Hash{{0xde, 0xad}}, 100)
	if len(got) != 8 || got[0].Height != 1 {
		t.Fatalf("unknown locator: %d headers, first %d", len(got), got[0].Height)
	}
}

func TestChainTips(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	forkW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	h.chain.AuthorizeMiner(forkW.PublicBytes())
	h.mine()
	h.mine()
	// A one-block side branch off height 1.
	parent, _ := h.chain.BlockAt(1)
	side, err := buildOn(nil, parent, h.now.Add(time.Hour), forkW)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.chain.AddBlock(side); err != nil {
		t.Fatal(err)
	}
	tips := h.chain.Tips()
	if len(tips) != 2 {
		t.Fatalf("tips = %d, want 2", len(tips))
	}
	if !tips[0].Active || tips[0].Height != 2 || tips[0].BranchLen != 0 {
		t.Fatalf("active tip wrong: %+v", tips[0])
	}
	if tips[1].Active || tips[1].ID != side.ID() || tips[1].BranchLen != 1 {
		t.Fatalf("side tip wrong: %+v", tips[1])
	}
}

func TestSnapshotCommitmentRoundTrip(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	b := h.mine()
	ser := h.chain.UTXO().SerializeUTXO()
	sc := &chain.SnapshotCommitment{
		Version:  1,
		Height:   1,
		BlockID:  b.ID(),
		UTXOHash: chain.SnapshotHash(ser),
		UTXOSize: int64(len(ser)),
	}
	if err := sc.Sign(h.minerW.Key(), rand.Reader); err != nil {
		t.Fatal(err)
	}
	if !sc.VerifySignature() {
		t.Fatal("fresh commitment fails verification")
	}
	got, err := chain.DeserializeSnapshotCommitment(sc.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if !got.VerifySignature() || got.BlockID != sc.BlockID || got.UTXOHash != sc.UTXOHash {
		t.Fatal("round-trip commitment differs")
	}
	// Any tampered field invalidates the signature.
	tampered := *got
	tampered.Height++
	if tampered.VerifySignature() {
		t.Fatal("tampered height verified")
	}
	tampered = *got
	tampered.UTXOHash[0] ^= 1
	if tampered.VerifySignature() {
		t.Fatal("tampered hash verified")
	}
	if !h.chain.IsAuthorizedMiner(got.MinerPubKey) {
		t.Fatal("signer not recognized as authorized")
	}
}

func TestStateAtMatchesHistory(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	var want []*chain.UTXOSet
	want = append(want, h.chain.UTXO()) // height 0
	for i := 0; i < 4; i++ {
		tx, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), 50+uint64(i), 3)
		if err != nil {
			t.Fatal(err)
		}
		h.accept(tx)
		h.mine()
		want = append(want, h.chain.UTXO())
	}
	for height, w := range want {
		got, err := h.chain.StateAt(int64(height))
		if err != nil {
			t.Fatalf("StateAt(%d): %v", height, err)
		}
		if !got.Equal(w) {
			t.Fatalf("StateAt(%d) diverges from history", height)
		}
	}
	if _, err := h.chain.StateAt(99); err == nil {
		t.Fatal("StateAt above tip accepted")
	}
}

func TestInitFromSnapshotAndTail(t *testing.T) {
	src := newHarness(t, chain.DefaultParams())
	for i := 0; i < 6; i++ {
		tx, err := src.alice.BuildPayment(src.chain.UTXO(), src.bob.PubKeyHash(), 40, 2)
		if err != nil {
			t.Fatal(err)
		}
		src.accept(tx)
		src.mine()
	}
	const horizon = 4
	utxoAtHorizon, err := src.chain.StateAt(horizon)
	if err != nil {
		t.Fatal(err)
	}

	joiner, err := chain.New(src.params, src.chain.Genesis())
	if err != nil {
		t.Fatal(err)
	}
	joiner.AuthorizeMiner(src.minerW.PublicBytes())
	if err := joiner.InitFromSnapshot(bestHeaders(t, src.chain, 1, horizon), utxoAtHorizon); err != nil {
		t.Fatal(err)
	}
	if joiner.Height() != horizon || joiner.PruneBase() != horizon {
		t.Fatalf("after install: height %d, base %d", joiner.Height(), joiner.PruneBase())
	}
	// A second install must refuse.
	if err := joiner.InitFromSnapshot(bestHeaders(t, src.chain, 1, horizon), utxoAtHorizon.Clone()); !errors.Is(err, chain.ErrNotEmpty) {
		t.Fatalf("double install: err = %v", err)
	}
	// The tail connects with full validation on top of the snapshot.
	for hh := int64(horizon + 1); hh <= src.chain.Height(); hh++ {
		b, _ := src.chain.BlockAt(hh)
		if err := joiner.AddBlock(b); err != nil {
			t.Fatalf("tail height %d: %v", hh, err)
		}
	}
	if joiner.Tip().ID() != src.chain.Tip().ID() {
		t.Fatal("joiner tip diverges from source")
	}
	if !joiner.UTXO().Equal(src.chain.UTXO()) {
		t.Fatal("joiner UTXO diverges from source")
	}
	// Tail transactions are indexed; pruned ones are not.
	tailBlock, _ := src.chain.BlockAt(horizon + 1)
	if _, _, ok := joiner.FindTx(tailBlock.Txs[1].ID()); !ok {
		t.Fatal("tail tx missing from index")
	}
	prunedBlock, _ := src.chain.BlockAt(2)
	if _, _, ok := joiner.FindTx(prunedBlock.Txs[1].ID()); ok {
		t.Fatal("pruned tx present in index")
	}
	if err := joiner.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPruneBelowAndPrunedReorgRejected(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	forkW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	h.chain.AuthorizeMiner(forkW.PublicBytes())
	var blocks []*chain.Block
	for i := 0; i < 6; i++ {
		tx, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), 30, 1)
		if err != nil {
			t.Fatal(err)
		}
		h.accept(tx)
		blocks = append(blocks, h.mine())
	}
	prunedTx := blocks[1].Txs[1]

	if err := h.chain.PruneBelow(4); err != nil {
		t.Fatal(err)
	}
	if h.chain.PruneBase() != 4 {
		t.Fatalf("prune base = %d", h.chain.PruneBase())
	}
	stub, _ := h.chain.BlockAt(2)
	if len(stub.Txs) != 0 {
		t.Fatal("pruned block still holds a body")
	}
	if _, _, ok := h.chain.FindTx(prunedTx.ID()); ok {
		t.Fatal("pruned tx still indexed")
	}
	if _, err := h.chain.StateAt(3); err == nil {
		t.Fatal("StateAt below prune base accepted")
	}
	if _, err := h.chain.StateAt(4); err != nil {
		t.Fatalf("StateAt at prune base: %v", err)
	}
	if err := h.chain.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Pruning at or above the tip refuses.
	if err := h.chain.PruneBelow(h.chain.Height()); err == nil {
		t.Fatal("pruning the tip accepted")
	}

	// A longer branch forking at height 2 (below the horizon) must be
	// rejected: the chain cannot unwind pruned state.
	parent, _ := h.chain.BlockAt(2)
	cur := parent
	at := h.now.Add(time.Hour)
	var connectErr error
	for i := 0; i < 6; i++ {
		fb, err := buildOn(nil, cur, at, forkW)
		if err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Hour)
		if err := h.chain.AddBlock(fb); err != nil {
			connectErr = err
			break
		}
		cur = fb
	}
	if !errors.Is(connectErr, chain.ErrPrunedFork) {
		t.Fatalf("pruned-fork reorg: err = %v", connectErr)
	}
	if h.chain.Tip().ID() != blocks[5].ID() {
		t.Fatal("best tip changed despite rejected reorg")
	}
	if err := h.chain.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
