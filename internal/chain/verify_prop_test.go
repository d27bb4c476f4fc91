package chain_test

import (
	"crypto/rand"
	"runtime"
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/script"
)

// TestParallelSequentialEquivalence feeds the same deterministic mix of
// valid and script-invalid blocks to two chains that differ only in
// verifier width — one built under GOMAXPROCS=1 (verification on the
// caller's goroutine), one under GOMAXPROCS=8 (the worker pool) — and
// asserts they accept and reject exactly the same blocks and end on the
// same tip with the same UTXO set: parallelism changes throughput, never
// consensus.
func TestParallelSequentialEquivalence(t *testing.T) {
	// Builder harness: constructs the block sequence once.
	h := newHarness(t, chain.DefaultParams())

	newReplay := func(procs int) *chain.Chain {
		// The verifier reads its width when the chain is built.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		params := chain.DefaultParams()
		genesis, err := chain.DeserializeBlock(h.chain.Genesis().Serialize())
		if err != nil {
			t.Fatal(err)
		}
		c, err := chain.New(params, genesis)
		if err != nil {
			t.Fatal(err)
		}
		c.AuthorizeMiner(h.minerW.PublicBytes())
		return c
	}
	seq := newReplay(1)
	par := newReplay(8)

	// feed hands each chain its own fresh deserialized copy, so neither
	// shares memoized tx state with the builder or with the other.
	feed := func(c *chain.Chain, raw []byte) error {
		b, err := chain.DeserializeBlock(raw)
		if err != nil {
			t.Fatal(err)
		}
		return c.AddBlock(b)
	}

	// corruptBlock assembles a signed block at the current tip whose
	// payment carries a bogus signature: structurally valid, header
	// valid, rejected only by script verification.
	corruptBlock := func() []byte {
		tx, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), 77, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt before any hash of tx is taken (memoization contract).
		tx.Inputs[0].Unlock = script.UnlockP2PKH([]byte("bogus"), h.alice.PublicBytes())
		coinbase := sampleCoinbase(h.chain.Height() + 1)
		coinbase.Outputs[0].Value = h.params.CoinbaseReward
		coinbase.Outputs[0].Lock = script.PayToPubKeyHash(h.minerW.PubKeyHash())
		txs := []*chain.Tx{coinbase, tx}
		b := &chain.Block{
			Header: chain.Header{
				Version:    1,
				PrevBlock:  h.chain.Tip().ID(),
				MerkleRoot: chain.MerkleRoot(txs),
				Time:       h.now.Add(time.Minute).UnixNano(),
				Height:     h.chain.Height() + 1,
			},
			Txs: txs,
		}
		if err := b.Header.Sign(h.minerW.Key(), rand.Reader); err != nil {
			t.Fatal(err)
		}
		return b.Serialize()
	}

	// goodBlock advances the builder chain by one mined block carrying
	// two payments, and returns its wire bytes.
	goodBlock := func(i int) []byte {
		a2b, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), uint64(100+i), 5)
		if err != nil {
			t.Fatal(err)
		}
		h.accept(a2b)
		b2a, err := h.bob.BuildPayment(h.chain.UTXO(), h.alice.PubKeyHash(), uint64(40+i), 2)
		if err != nil {
			t.Fatal(err)
		}
		h.accept(b2a)
		return h.mine().Serialize()
	}

	// Deterministic script: true = valid block, false = corrupted.
	pattern := []bool{true, false, true, true, false, true, false, true}
	for i, good := range pattern {
		var raw []byte
		if good {
			raw = goodBlock(i)
		} else {
			raw = corruptBlock()
		}
		errSeq := feed(seq, raw)
		errPar := feed(par, raw)
		if (errSeq == nil) != (errPar == nil) {
			t.Fatalf("round %d (good=%v): sequential err %v, parallel err %v",
				i, good, errSeq, errPar)
		}
		if good && errSeq != nil {
			t.Fatalf("round %d: valid block rejected: %v", i, errSeq)
		}
		if !good && errSeq == nil {
			t.Fatalf("round %d: corrupted block accepted", i)
		}
		if seq.Tip().ID() != par.Tip().ID() {
			t.Fatalf("round %d: tips diverged", i)
		}
	}

	if seq.Tip().ID() != h.chain.Tip().ID() {
		t.Fatal("replay chains did not follow the builder chain")
	}
	if seq.Height() != par.Height() {
		t.Fatalf("heights diverged: %d vs %d", seq.Height(), par.Height())
	}
	if seq.UTXO().TotalValue() != par.UTXO().TotalValue() {
		t.Fatal("UTXO sets diverged")
	}
	if a, b := h.alice.Balance(seq.UTXO()), h.alice.Balance(par.UTXO()); a != b {
		t.Fatalf("alice balance diverged: %d vs %d", a, b)
	}
}

// TestSigCacheSkipsReverification checks the mempool→block-connect cache
// handoff: after a tx is admitted to the mempool (scripts verified once,
// outcomes cached), connecting the block that includes it hits the cache
// for every input.
func TestSigCacheSkipsReverification(t *testing.T) {
	h := newHarness(t, chain.DefaultParams())
	h.mempool.UseVerifier(h.chain.Verifier())
	cache := h.chain.Verifier().Cache()
	if cache == nil {
		t.Fatal("chain verifier has no cache")
	}

	tx, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), 250, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.accept(tx)
	admitted := cache.Len()
	if admitted < len(tx.Inputs) {
		t.Fatalf("cache has %d entries after mempool admission, want >= %d",
			admitted, len(tx.Inputs))
	}
	h.mine()
	// Block connect re-verified nothing that the mempool already checked:
	// only the coinbase (unverified, no lock lookup) could add entries.
	if got := cache.Len(); got != admitted {
		t.Fatalf("cache grew from %d to %d at block connect; payment inputs were re-verified",
			admitted, got)
	}
}
