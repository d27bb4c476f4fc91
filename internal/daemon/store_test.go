package daemon

import (
	"crypto/rand"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/durable"
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

// logKinds reads the closed store in dir back record by record: the
// height of every block record, and the number of header and checkpoint
// records.
func logKinds(t *testing.T, dir string) (blocks []int64, headers, checkpoints int) {
	t.Helper()
	l, err := durable.OpenLog(filepath.Join(dir, "blocks.log"), logMagic, maxStoredBlock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs, err := l.Replay()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		switch rec[len(rec)-1] {
		case recBlock:
			b, err := chain.DeserializeBlock(rec[:len(rec)-1])
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, b.Header.Height)
		case recHeader:
			headers++
		case recCheckpoint:
			checkpoints++
		}
	}
	return blocks, headers, checkpoints
}

// TestStorePrunedSnapshotRoundTrip grows one chain through four
// compactions and restores each into a fresh replica. Unpruned, each
// compaction is a checkpoint and every body stays in the log. Pruned, the
// base moves three times; each move rewrites the log to the header spine
// and UTXO set at the base plus the blocks above it, so no block at or
// below the base stays behind.
func TestStorePrunedSnapshotRoundTrip(t *testing.T) {
	// base-0 never prunes; base-6 prunes at depth 6 from height 12 on,
	// moving its base to 6, 12 and 18.
	for _, first := range []int64{0, 6} {
		t.Run(fmt.Sprintf("base-%d", first), func(t *testing.T) {
			c, genesis, miners, miner, now := minedChain(t, 0)
			dir := filepath.Join(t.TempDir(), "chainstore")
			st := openTestStore(t, dir)
			if _, err := st.Load(c); err != nil {
				t.Fatal(err)
			}
			for round := int64(1); round <= 4; round++ {
				mineMore(t, miner, now, 6)
				appendBest(t, st, c, c.Height()-5, c.Height())
				var base int64
				if first > 0 && round > 1 {
					base = c.Height() - first
					if err := c.PruneBelow(base); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Compact(c); err != nil {
					t.Fatal(err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}

				blocks, headers, _ := logKinds(t, dir)
				if int64(headers) != base || len(blocks) == 0 || blocks[0] <= base || blocks[len(blocks)-1] != c.Height() {
					t.Fatalf("round %d: log holds %d headers and blocks %v, want %d headers and blocks above them up to %d",
						round, headers, blocks, base, c.Height())
				}
				st = openTestStore(t, dir)
				restored := freshReplica(t, genesis, miners)
				if _, err := st.Load(restored); err != nil {
					t.Fatal(err)
				}
				if restored.Height() != c.Height() || restored.PruneBase() != base {
					t.Fatalf("round %d: restored height %d base %d, want %d/%d", round, restored.Height(), restored.PruneBase(), c.Height(), base)
				}
				if restored.Tip().ID() != c.Tip().ID() || !restored.UTXO().Equal(c.UTXO()) {
					t.Fatalf("round %d: restored tip or UTXO set differs", round)
				}
				if b, ok := restored.BlockAt(3); !ok || (len(b.Txs) == 0) != (base > 3) {
					t.Fatalf("round %d: height 3 restored with %d txs, want a stub only below base %d", round, len(b.Txs), base)
				}
				if b, ok := restored.BlockAt(c.Height() - 1); !ok || len(b.Txs) == 0 {
					t.Fatalf("round %d: height %d should keep its body", round, c.Height()-1)
				}
				if err := restored.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestStoreCompactionCostIsFlat compacts an unpruned store at height 200
// and at height 2 000: each compaction grows blocks.log by the same bytes,
// one checkpoint record, however long the chain, and blocks.log is the
// store's only file.
func TestStoreCompactionCostIsFlat(t *testing.T) {
	c, genesis, miners, miner, now := minedChain(t, 0)
	dir := t.TempDir()
	st := openTestStore(t, dir)
	if _, err := st.Load(c); err != nil {
		t.Fatal(err)
	}
	c.Subscribe(func(b *chain.Block) {
		if err := st.AppendBlock(b); err != nil {
			t.Error(err)
		}
	})
	logSize := func() int64 {
		info, err := os.Stat(filepath.Join(dir, "blocks.log"))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	var growth []int64
	for _, height := range []int64{200, 2000} {
		mineMore(t, miner, now, int(height-c.Height()))
		before := logSize()
		if err := st.Compact(c); err != nil {
			t.Fatal(err)
		}
		growth = append(growth, logSize()-before)
		if st.LogRecords() != 0 {
			t.Fatalf("height %d: LogRecords = %d after a checkpoint", height, st.LogRecords())
		}
	}
	if want := int64(8 + len(checkpoint(chain.Hash{}, chain.Hash{}))); growth[0] != want || growth[1] != want {
		t.Fatalf("compactions at heights 200 and 2000 grew blocks.log by %v bytes, want one %d-byte checkpoint each", growth, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "blocks.log" {
		t.Fatalf("chain store holds %v, want blocks.log alone", entries)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	restored := freshReplica(t, genesis, miners)
	if loaded, err := openTestStore(t, dir).Load(restored); err != nil || loaded != 2000 || restored.Tip().ID() != c.Tip().ID() {
		t.Fatalf("reload: %d blocks (%v), want 2000 up to the same tip", loaded, err)
	}
}
