package daemon

import (
	"crypto/rand"
	"path/filepath"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/wallet"
)

func storedChain(t *testing.T, blocks int) (*chain.Chain, *chain.Block, [][]byte) {
	t.Helper()
	w, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	minerKey, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	genesis := chain.GenesisBlock(map[[20]byte]uint64{w.PubKeyHash(): 1000})
	c, err := chain.New(chain.DefaultParams(), genesis)
	if err != nil {
		t.Fatal(err)
	}
	miners := [][]byte{minerKey.PublicBytes()}
	c.AuthorizeMiner(minerKey.PublicBytes())
	miner := chain.NewMiner(minerKey, c, chain.NewMempool(), rand.Reader)
	now := time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < blocks; i++ {
		now = now.Add(15 * time.Second)
		if _, err := miner.Mine(now); err != nil {
			t.Fatal(err)
		}
	}
	return c, genesis, miners
}

func freshReplica(t *testing.T, genesis *chain.Block, miners [][]byte) *chain.Chain {
	t.Helper()
	c, err := chain.New(chain.DefaultParams(), genesis)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range miners {
		c.AuthorizeMiner(m)
	}
	return c
}

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestStorePrunedSnapshotRoundTrip compacts a pruned chain (v2 snapshot
// generation: header spine + UTXO set at the horizon + full tail) and
// restores it into a fresh replica.
func TestStorePrunedSnapshotRoundTrip(t *testing.T) {
	c, genesis, miners := storedChain(t, 10)
	if err := c.PruneBelow(6); err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, filepath.Join(t.TempDir(), "chainstore"))
	if err := st.Compact(c); err != nil {
		t.Fatal(err)
	}

	restored := freshReplica(t, genesis, miners)
	if _, err := st.Load(restored); err != nil {
		t.Fatal(err)
	}
	if restored.Height() != 10 || restored.PruneBase() != 6 {
		t.Fatalf("restored height %d base %d, want 10/6", restored.Height(), restored.PruneBase())
	}
	if restored.Tip().ID() != c.Tip().ID() {
		t.Fatal("restored tip differs")
	}
	if restored.UTXO().TotalValue() != c.UTXO().TotalValue() {
		t.Fatal("restored UTXO set differs")
	}
	if b, ok := restored.BlockAt(3); !ok || len(b.Txs) != 0 {
		t.Fatal("height 3 should restore as a header-only stub")
	}
	if b, ok := restored.BlockAt(8); !ok || len(b.Txs) == 0 {
		t.Fatal("height 8 should keep its body")
	}
}
