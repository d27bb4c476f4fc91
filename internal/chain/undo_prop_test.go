package chain_test

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/script"
	"bcwan/internal/telemetry"
	"bcwan/internal/wallet"
)

// forkBlockOn builds a coinbase-only block on parent, signed by w. The
// nonce lands in the coinbase unlock script so every fork block has a
// unique transaction ID even when different branches mint at the same
// height.
func forkBlockOn(tb testing.TB, parent *chain.Block, w *wallet.Wallet, at time.Time, nonce int64) *chain.Block {
	tb.Helper()
	return forkBlockPaying(tb, parent, w, at, nonce, chain.DefaultParams().CoinbaseReward)
}

// forkBlockPaying is forkBlockOn with a coinbase worth value.
func forkBlockPaying(tb testing.TB, parent *chain.Block, w *wallet.Wallet, at time.Time, nonce int64, value uint64) *chain.Block {
	tb.Helper()
	coinbase := &chain.Tx{
		Inputs: []chain.TxIn{{
			Prev: chain.OutPoint{Index: 0xffffffff},
			Unlock: script.NewBuilder().
				AddInt64(parent.Header.Height + 1).
				AddInt64(nonce).
				AddData([]byte("fork")).Script(),
		}},
		Outputs: []chain.TxOut{{
			Value: value,
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
		tb.Fatal(err)
	}
	return b
}

// TestRandomForkReorgMatchesReplay drives seeded random sequences of
// best-branch extensions, losing side branches and overtaking forks, and
// after every step cross-checks the incrementally maintained state (UTXO
// set via undo journals, tx/spender indexes) against a full replay from
// genesis. This is the paper-level safety property of the undo machinery:
// disconnect(connect(S)) == S, byte for byte, under arbitrary reorgs.
func TestRandomForkReorgMatchesReplay(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(seed))
			h := newHarness(t, chain.DefaultParams())
			var nonce int64
			for step := 0; step < 30; step++ {
				switch rng.Intn(4) {
				case 0, 1:
					// Extend the best branch, sometimes carrying a payment
					// so blocks mutate more than coinbase outputs.
					if rng.Intn(2) == 0 {
						amount := uint64(50 + rng.Intn(300))
						fee := uint64(1 + rng.Intn(4))
						tx, err := h.alice.BuildPayment(h.chain.UTXO(), h.bob.PubKeyHash(), amount, fee)
						if err == nil {
							// Conflicts with stale pooled spends are expected
							// after reorgs; admission failure is fine.
							_ = h.mempool.Accept(tx, h.chain.UTXO(), h.chain.Height(), h.params)
						}
					}
					h.mine()
				case 2:
					// A side branch that ties but never overtakes: no reorg.
					tip := h.chain.Tip()
					back := int64(1 + rng.Intn(2))
					forkH := tip.Header.Height - back
					if forkH < 0 {
						forkH = 0
						back = tip.Header.Height
					}
					parent, _ := h.chain.BlockAt(forkH)
					for j := int64(0); j < back; j++ {
						nonce++
						b := forkBlockOn(t, parent, h.minerW, h.now, nonce)
						if err := h.chain.AddBlock(b); err != nil {
							t.Fatalf("step %d side block: %v", step, err)
						}
						parent = b
					}
					if h.chain.Tip() != tip {
						t.Fatalf("step %d: tie caused a reorg", step)
					}
				case 3:
					// An overtaking fork: disconnect depth blocks, connect
					// depth+1.
					tip := h.chain.Tip()
					depth := int64(1 + rng.Intn(3))
					forkH := tip.Header.Height - depth
					if forkH < 0 {
						forkH = 0
						depth = tip.Header.Height
					}
					parent, _ := h.chain.BlockAt(forkH)
					for j := int64(0); j <= depth; j++ {
						nonce++
						b := forkBlockOn(t, parent, h.minerW, h.now, nonce)
						if err := h.chain.AddBlock(b); err != nil {
							t.Fatalf("step %d fork block: %v", step, err)
						}
						parent = b
					}
					if h.chain.Tip().ID() != parent.ID() {
						t.Fatalf("step %d: longer branch did not become best", step)
					}
				}
				if err := h.chain.CheckConsistency(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		})
	}
}

// TestReorgCostIndependentOfChainLength pins the incremental behavior
// deterministically: a depth-2 reorg disconnects exactly 2 blocks and
// connects exactly 3, whatever the chain length — where the seed's
// replay-based reorg rebuilt the whole branch from genesis. Wall-clock
// scaling lives in BenchmarkReorg; this asserts the state-transition
// counts that make it hold.
func TestReorgCostIndependentOfChainLength(t *testing.T) {
	for _, chainLen := range []int{50, 300} {
		chainLen := chainLen
		t.Run(fmt.Sprintf("chain%d", chainLen), func(t *testing.T) {
			h := newHarness(t, chain.DefaultParams())
			for i := 0; i < chainLen; i++ {
				h.mine()
			}
			reg := telemetry.NewRegistry()
			h.chain.Instrument(reg)

			tip := h.chain.Tip()
			parent, _ := h.chain.BlockAt(tip.Header.Height - 2)
			var nonce int64
			for j := 0; j < 3; j++ {
				nonce++
				b := forkBlockOn(t, parent, h.minerW, h.now, nonce)
				if err := h.chain.AddBlock(b); err != nil {
					t.Fatal(err)
				}
				parent = b
			}
			if h.chain.Tip().ID() != parent.ID() {
				t.Fatal("reorg did not switch branches")
			}

			var disconnected, depth float64
			for _, m := range reg.Snapshot() {
				switch m.Name {
				case "bcwan_chain_blocks_disconnected_total":
					disconnected = m.Value
				case "bcwan_chain_reorg_depth":
					depth = m.Value
				}
			}
			if disconnected != 2 {
				t.Fatalf("chain %d: disconnected %v blocks in a depth-2 reorg, want exactly 2", chainLen, disconnected)
			}
			if depth != 2 {
				t.Fatalf("chain %d: reorg depth %v, want 2", chainLen, depth)
			}
			if err := h.chain.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// benchChain builds a coinbase-only chain of the given length.
func benchChain(b *testing.B, blocks int) (*chain.Chain, *wallet.Wallet, time.Time) {
	b.Helper()
	minerW, err := wallet.New(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	genesis := chain.GenesisBlock(map[[20]byte]uint64{minerW.PubKeyHash(): 1_000_000})
	c, err := chain.New(chain.DefaultParams(), genesis)
	if err != nil {
		b.Fatal(err)
	}
	c.AuthorizeMiner(minerW.PublicBytes())
	miner := chain.NewMiner(minerW.Key(), c, chain.NewMempool(), rand.Reader)
	now := time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < blocks; i++ {
		now = now.Add(15 * time.Second)
		if _, err := miner.Mine(now); err != nil {
			b.Fatal(err)
		}
	}
	return c, minerW, now
}

// BenchmarkReorg measures one depth-2 reorganization (2 disconnects +
// 3 connects) at different chain lengths. With undo journals the cost is
// O(depth): the chain=1000 rows must land within the same order of
// magnitude as chain=100 (the CI acceptance bound is 5×), where a
// replay-from-genesis reorg would scale linearly with chain length.
func BenchmarkReorg(b *testing.B) {
	for _, chainLen := range []int{100, 1000} {
		chainLen := chainLen
		b.Run(fmt.Sprintf("chain=%d/depth=2", chainLen), func(b *testing.B) {
			c, minerW, now := benchChain(b, chainLen)
			var nonce int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tip := c.Tip()
				parent, _ := c.BlockAt(tip.Header.Height - 2)
				for j := 0; j < 3; j++ {
					nonce++
					blk := forkBlockOn(b, parent, minerW, now, nonce)
					if err := c.AddBlock(blk); err != nil {
						b.Fatal(err)
					}
					parent = blk
				}
			}
		})
	}
}
