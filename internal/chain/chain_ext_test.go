package chain_test

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

// harness wires a chain, mempool, miner and funded wallets.
type harness struct {
	t       *testing.T
	params  chain.Params
	chain   *chain.Chain
	mempool *chain.Mempool
	miner   *chain.Miner
	minerW  *wallet.Wallet
	alice   *wallet.Wallet
	bob     *wallet.Wallet
	now     time.Time
}

const initialFunds = 1_000_000

func newHarness(t *testing.T, params chain.Params) *harness {
	t.Helper()
	alice, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	minerW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	genesis := chain.GenesisBlock(map[[20]byte]uint64{
		alice.PubKeyHash(): initialFunds,
		bob.PubKeyHash():   initialFunds,
	})
	c, err := chain.New(params, genesis)
	if err != nil {
		t.Fatal(err)
	}
	c.AuthorizeMiner(minerW.PublicBytes())
	pool := chain.NewMempool()
	return &harness{
		t:       t,
		params:  params,
		chain:   c,
		mempool: pool,
		miner:   chain.NewMiner(minerW.Key(), c, pool, rand.Reader),
		minerW:  minerW,
		alice:   alice,
		bob:     bob,
		now:     time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC),
	}
}

func (h *harness) mine() *chain.Block {
	h.t.Helper()
	h.now = h.now.Add(h.params.BlockInterval)
	b, err := h.miner.Mine(h.now)
	if err != nil {
		h.t.Fatal(err)
	}
	return b
}

func (h *harness) accept(tx *chain.Tx) {
	h.t.Helper()
	if err := h.mempool.Accept(tx, h.chain.UTXO(), h.chain.Height(), h.params); err != nil {
		h.t.Fatal(err)
	}
}

func TestSimplePaymentFlow(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())

	tx, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), 400, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.accept(tx)
	h.mine()

	utxo := h.chain.UTXO()
	if got := h.bob.Balance(utxo); got != initialFunds+400 {
		t.Fatalf("bob balance = %d, want %d", got, initialFunds+400)
	}
	if got := h.alice.Balance(utxo); got != initialFunds-410 {
		t.Fatalf("alice balance = %d, want %d", got, initialFunds-410)
	}
	if h.mempool.Len() != 0 {
		t.Fatalf("mempool not drained: %d", h.mempool.Len())
	}
	if conf := h.chain.Confirmations(tx.ID()); conf != 1 {
		t.Fatalf("confirmations = %d, want 1", conf)
	}
}

func TestValueConservation(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	start := h.chain.UTXO().TotalValue()

	for i := 0; i < 5; i++ {
		tx, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), 100, 7)
		if err != nil {
			t.Fatal(err)
		}
		h.accept(tx)
		h.mine()
	}
	// Each block adds exactly reward+fees to the supply; fees were paid
	// from existing coins, so supply = start + blocks*reward.
	want := start + 5*h.params.CoinbaseReward
	if got := h.chain.UTXO().TotalValue(); got != want {
		t.Fatalf("total value = %d, want %d", got, want)
	}
}

func TestMempoolRejectsDoubleSpend(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())

	tx1, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), 400, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.accept(tx1)

	// A conflicting payment spending the same coins.
	tx2, err := h.alice.BuildPayment(h.chain.UTXO(), h.alice.PubKeyHash(), 400, 10)
	if err != nil {
		t.Fatal(err)
	}
	err = h.mempool.Accept(tx2, h.chain.UTXO(), h.chain.Height(), h.params)
	if !errors.Is(err, chain.ErrMempoolConflict) {
		t.Fatalf("err = %v, want ErrMempoolConflict", err)
	}
}

func TestMempoolRejectsDuplicate(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	tx, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.accept(tx)
	if err := h.mempool.Accept(tx, h.chain.UTXO(), h.chain.Height(), h.params); !errors.Is(err, chain.ErrAlreadyPooled) {
		t.Fatalf("err = %v, want ErrAlreadyPooled", err)
	}
}

func TestMempoolForceReplaceEvictsConflicts(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	tx1, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), 400, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.accept(tx1)
	tx2, err := h.alice.BuildPayment(h.chain.UTXO(), h.alice.PubKeyHash(), 400, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.mempool.ForceReplace(tx2)
	if h.mempool.Contains(tx1.ID()) {
		t.Fatal("conflicting tx not evicted")
	}
	if !h.mempool.Contains(tx2.ID()) {
		t.Fatal("replacement not admitted")
	}
}

func TestInvalidSignatureRejected(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())

	tx, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), 400, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the signature.
	tx.Inputs[0].Unlock = script.UnlockP2PKH([]byte("bogus"), h.alice.PublicBytes())
	if err := h.mempool.Accept(tx, h.chain.UTXO(), h.chain.Height(), h.params); err == nil {
		t.Fatal("bad signature accepted")
	}
}

func TestVerifyScriptsOffAcceptsBadSignature(t *testing.T) {
	// The Fig. 5 configuration: block verification disabled.
	params := chain.DefaultParams()
	params.VerifyScripts = false
	h := newHarness(t, params)

	tx, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), 400, 10)
	if err != nil {
		t.Fatal(err)
	}
	tx.Inputs[0].Unlock = script.UnlockP2PKH([]byte("bogus"), h.alice.PublicBytes())
	if err := h.mempool.Accept(tx, h.chain.UTXO(), h.chain.Height(), h.params); err != nil {
		t.Fatalf("verification-off rejected tx: %v", err)
	}
}

func TestCoinbaseMaturity(t *testing.T) {
	params := chain.DefaultParams()
	params.CoinbaseMaturity = 3
	h := newHarness(t, params)

	b := h.mine()
	coinbase := b.Txs[0]

	// The miner tries to spend its reward immediately.
	minerW := h.minerW
	spend := &chain.Tx{
		Version: 1,
		Inputs:  []chain.TxIn{{Prev: chain.OutPoint{TxID: coinbase.ID(), Index: 0}}},
		Outputs: []chain.TxOut{{Value: 1, Lock: script.PayToPubKeyHash(h.bob.PubKeyHash())}},
	}
	if err := minerW.SignP2PKHInputs(spend, h.chain.UTXO()); err != nil {
		t.Fatal(err)
	}
	err := h.mempool.Accept(spend, h.chain.UTXO(), h.chain.Height(), h.params)
	if !errors.Is(err, chain.ErrImmatureSpend) {
		t.Fatalf("err = %v, want ErrImmatureSpend", err)
	}

	// After maturity blocks it is spendable.
	h.mine()
	h.mine()
	if err := h.mempool.Accept(spend, h.chain.UTXO(), h.chain.Height(), h.params); err != nil {
		t.Fatalf("mature coinbase rejected: %v", err)
	}
}

func TestUnknownMinerRejected(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	rogueW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rogue := chain.NewMiner(rogueW.Key(), h.chain, h.mempool, rand.Reader)
	b, err := rogue.BuildBlock(h.now.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.chain.AddBlock(b); !errors.Is(err, chain.ErrUnknownMiner) {
		t.Fatalf("err = %v, want ErrUnknownMiner", err)
	}
}

func TestTamperedBlockRejected(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	b, err := h.miner.BuildBlock(h.now.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	b.Header.Time++ // invalidates the miner signature
	if err := h.chain.AddBlock(b); !errors.Is(err, chain.ErrBadMinerSig) {
		t.Fatalf("err = %v, want ErrBadMinerSig", err)
	}
}

func TestDuplicateBlockRejected(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	b := h.mine()
	if err := h.chain.AddBlock(b); !errors.Is(err, chain.ErrDuplicateBlock) {
		t.Fatalf("err = %v, want ErrDuplicateBlock", err)
	}
}

func TestUnknownParentRejected(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	b, err := h.miner.BuildBlock(h.now.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	b.Header.PrevBlock = chain.Hash{0xff}
	b.Header.Height = 5
	if err := b.Header.Sign(h.minerW.Key(), rand.Reader); err != nil {
		t.Fatal(err)
	}
	if err := h.chain.AddBlock(b); !errors.Is(err, chain.ErrBadPrevBlock) {
		t.Fatalf("err = %v, want ErrBadPrevBlock", err)
	}
}

func TestBlockSerializeRoundTrip(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	tx, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.accept(tx)
	b := h.mine()

	back, err := chain.DeserializeBlock(b.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if back.ID() != b.ID() {
		t.Fatal("block ID changed in round trip")
	}
	if len(back.Txs) != len(b.Txs) {
		t.Fatalf("tx count = %d, want %d", len(back.Txs), len(b.Txs))
	}
	if !back.Header.VerifySignature() {
		t.Fatal("deserialized header signature invalid")
	}
	if !bytes.Equal(back.Serialize(), b.Serialize()) {
		t.Fatal("serialization not stable")
	}
}

func TestSubscribersNotified(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	var got []int64
	h.chain.Subscribe(func(b *chain.Block) { got = append(got, b.Header.Height) })
	h.mine()
	h.mine()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("notified heights = %v, want [1 2]", got)
	}
}

func TestReorgToLongerBranch(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())

	// Second authorized miner on a fork.
	forkW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	h.chain.AuthorizeMiner(forkW.PublicBytes())
	forkMiner := chain.NewMiner(forkW.Key(), h.chain, chain.NewMempool(), rand.Reader)

	// Main branch: height 1.
	main1 := h.mine()

	// Fork branch from genesis: heights 1' and 2'.
	fork1, err := buildOn(forkMiner, h.chain.Genesis(), h.now.Add(time.Hour), forkW)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.chain.AddBlock(fork1); err != nil {
		t.Fatal(err)
	}
	// Tip unchanged: same length as main branch.
	if h.chain.Tip().ID() != main1.ID() {
		t.Fatal("equal-length fork displaced the tip")
	}

	fork2, err := buildOn(forkMiner, fork1, h.now.Add(2*time.Hour), forkW)
	if err != nil {
		t.Fatal(err)
	}
	var notified []chain.Hash
	h.chain.Subscribe(func(b *chain.Block) { notified = append(notified, b.ID()) })
	if err := h.chain.AddBlock(fork2); err != nil {
		t.Fatal(err)
	}
	if h.chain.Tip().ID() != fork2.ID() {
		t.Fatal("longer fork did not become the tip")
	}
	if h.chain.Height() != 2 {
		t.Fatalf("height = %d, want 2", h.chain.Height())
	}
	// Both fork blocks are new to the best branch.
	if len(notified) != 2 || notified[0] != fork1.ID() || notified[1] != fork2.ID() {
		t.Fatalf("reorg notifications = %v", notified)
	}
	// UTXO reflects the fork branch: fork miner has two rewards.
	if got := forkW.Balance(h.chain.UTXO()); got != 2*h.params.CoinbaseReward {
		t.Fatalf("fork miner balance = %d, want %d", got, 2*h.params.CoinbaseReward)
	}
}

// TestFailedReorgRestoresBranch overtakes the best branch with a side
// branch whose last block overpays its coinbase. The reorg fails on that
// block, and the chain must be back on its old branch — same tip, same
// set, indexes and journals that pass the cross-check — and keep
// extending it.
func TestFailedReorgRestoresBranch(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	for i := 0; i < 4; i++ {
		if i == 2 {
			// The detached suffix carries a spend, so the restore
			// re-applies more than coinbases.
			tx, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), 300, 5)
			if err != nil {
				t.Fatal(err)
			}
			h.accept(tx)
		}
		h.mine()
	}
	tip, before := h.chain.Tip(), h.chain.UTXO()

	parent, _ := h.chain.BlockAt(2)
	for nonce := int64(1); nonce <= 2; nonce++ {
		parent = forkBlockOn(t, parent, h.minerW, h.now, nonce)
		if err := h.chain.AddBlock(parent); err != nil {
			t.Fatalf("side block %d: %v", nonce, err)
		}
	}
	bad := forkBlockPaying(t, parent, h.minerW, h.now, 3, h.params.CoinbaseReward+1)
	if err := h.chain.AddBlock(bad); !errors.Is(err, chain.ErrExcessSubsidy) {
		t.Fatalf("overpaying block: err = %v, want ErrExcessSubsidy", err)
	}
	if h.chain.Tip() != tip {
		t.Fatalf("tip = %s, want the pre-reorg %s", h.chain.Tip().ID(), tip.ID())
	}
	if !h.chain.UTXO().Equal(before) {
		t.Fatal("utxo set differs from the pre-reorg set")
	}
	if err := h.chain.CheckConsistency(); err != nil {
		t.Fatalf("after the failed reorg: %v", err)
	}
	h.mine()
	if err := h.chain.CheckConsistency(); err != nil {
		t.Fatalf("after extending the restored branch: %v", err)
	}
}

// buildOn hand-builds an empty signed block on a specific parent.
func buildOn(m *chain.Miner, parent *chain.Block, at time.Time, w *wallet.Wallet) (*chain.Block, error) {
	coinbase := &chain.Tx{
		Inputs: []chain.TxIn{{
			Prev:   chain.OutPoint{Index: 0xffffffff},
			Unlock: script.NewBuilder().AddInt64(parent.Header.Height + 1).AddData([]byte("fork")).Script(),
		}},
		Outputs: []chain.TxOut{{
			Value: chain.DefaultParams().CoinbaseReward,
			Lock:  script.PayToPubKeyHash(w.PubKeyHash()),
		}},
	}
	b := &chain.Block{
		Header: chain.Header{
			Version:    1,
			PrevBlock:  parent.ID(),
			MerkleRoot: chain.MerkleRoot([]*chain.Tx{coinbase}),
			Time:       at.UnixNano(),
			Height:     parent.Header.Height + 1,
		},
		Txs: []*chain.Tx{coinbase},
	}
	if err := b.Header.Sign(w.Key(), rand.Reader); err != nil {
		return nil, err
	}
	return b, nil
}

func TestOpReturnOutputsNotSpendable(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	tx, err := h.alice.BuildDataPublish(h.chain.UTXO(), []byte("ip=192.0.2.9:7000"), 5)
	if err != nil {
		t.Fatal(err)
	}
	h.accept(tx)
	h.mine()

	utxo := h.chain.UTXO()
	if _, ok := utxo.Get(chain.OutPoint{TxID: tx.ID(), Index: 0}); ok {
		t.Fatal("OP_RETURN output entered the UTXO set")
	}
	// Change output (index 1) exists.
	if _, ok := utxo.Get(chain.OutPoint{TxID: tx.ID(), Index: 1}); !ok {
		t.Fatal("change output missing from UTXO set")
	}
}

func TestMerkleRootProperties(t *testing.T) {
	txs := []*chain.Tx{sampleCoinbase(1), sampleCoinbase(2), sampleCoinbase(3)}
	root3 := chain.MerkleRoot(txs)
	if root3 == (chain.Hash{}) {
		t.Fatal("zero merkle root")
	}
	// Changing any tx changes the root.
	txs[1] = sampleCoinbase(99)
	if chain.MerkleRoot(txs) == root3 {
		t.Fatal("merkle root insensitive to tx change")
	}
	// Single tx root is its ID.
	one := []*chain.Tx{sampleCoinbase(7)}
	if got := chain.MerkleRoot(one); got == (chain.Hash{}) {
		t.Fatal("zero root for single tx")
	}
	if chain.MerkleRoot(nil) != (chain.Hash{}) {
		t.Fatal("nonzero root for no txs")
	}
}

func sampleCoinbase(height int64) *chain.Tx {
	return &chain.Tx{
		Inputs: []chain.TxIn{{
			Prev:   chain.OutPoint{Index: 0xffffffff},
			Unlock: script.NewBuilder().AddInt64(height).Script(),
		}},
		Outputs: []chain.TxOut{{Value: 50, Lock: script.PayToPubKeyHash([20]byte{byte(height)})}},
	}
}
