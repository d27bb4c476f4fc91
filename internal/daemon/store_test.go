package daemon

import (
	"crypto/rand"
	"fmt"
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

// TestStorePrunedSnapshotRoundTrip compacts a chain into the one
// snapshot layout (header spine + UTXO set at the prune base + full tail)
// and restores it into a fresh replica. An unpruned chain is base 0: no
// headers, no base set, every block in the tail.
func TestStorePrunedSnapshotRoundTrip(t *testing.T) {
	for _, base := range []int64{6, 0} {
		t.Run(fmt.Sprintf("base-%d", base), func(t *testing.T) {
			c, genesis, miners := storedChain(t, 10)
			if base > 0 {
				if err := c.PruneBelow(base); err != nil {
					t.Fatal(err)
				}
			}
			st := openTestStore(t, filepath.Join(t.TempDir(), "chainstore"))
			if err := st.Compact(c); err != nil {
				t.Fatal(err)
			}

			restored := freshReplica(t, genesis, miners)
			if _, err := st.Load(restored); err != nil {
				t.Fatal(err)
			}
			if restored.Height() != 10 || restored.PruneBase() != base {
				t.Fatalf("restored height %d base %d, want 10/%d", restored.Height(), restored.PruneBase(), base)
			}
			if restored.Tip().ID() != c.Tip().ID() {
				t.Fatal("restored tip differs")
			}
			if !restored.UTXO().Equal(c.UTXO()) {
				t.Fatal("restored UTXO set differs")
			}
			if b, ok := restored.BlockAt(3); !ok || (len(b.Txs) == 0) != (base > 3) {
				t.Fatalf("height 3 restored with %d txs, want a stub only below base %d", len(b.Txs), base)
			}
			if b, ok := restored.BlockAt(8); !ok || len(b.Txs) == 0 {
				t.Fatal("height 8 should keep its body")
			}
			if err := restored.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
