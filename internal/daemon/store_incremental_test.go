package daemon

import (
	"crypto/rand"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/durable"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

// minedChain is storedChain with the miner handed back, so tests can
// keep extending the chain after a snapshot.
func minedChain(t *testing.T, blocks int) (*chain.Chain, *chain.Block, [][]byte, *chain.Miner, *time.Time) {
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
	return c, genesis, miners, miner, &now
}

func mineMore(t *testing.T, miner *chain.Miner, now *time.Time, blocks int) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		*now = now.Add(15 * time.Second)
		if _, err := miner.Mine(*now); err != nil {
			t.Fatal(err)
		}
	}
}

// appendBest appends best-branch blocks [from, to] to the store.
func appendBest(t *testing.T, st *Store, c *chain.Chain, from, to int64) {
	t.Helper()
	for h := from; h <= to; h++ {
		b, ok := c.BlockAt(h)
		if !ok {
			t.Fatalf("missing height %d", h)
		}
		if err := st.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreAppendReload(t *testing.T) {
	c, genesis, miners := storedChain(t, 5)
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendBest(t, st, c, 1, 5)
	if got := st.LogRecords(); got != 5 {
		t.Fatalf("LogRecords = %d, want 5", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	replica := freshReplica(t, genesis, miners)
	loaded, err := st2.Load(replica)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 5 {
		t.Fatalf("loaded = %d, want 5", loaded)
	}
	if replica.Tip().ID() != c.Tip().ID() {
		t.Fatal("restored tip differs")
	}
	if !replica.UTXO().Equal(c.UTXO()) {
		t.Fatal("restored UTXO set differs")
	}
}

func TestStoreCompactThenTailThenCrash(t *testing.T) {
	c, genesis, miners, miner, now := minedChain(t, 5)
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendBest(t, st, c, 1, 5)
	// Compact at height 5: the log's first compaction rewrites it.
	if err := st.Compact(c); err != nil {
		t.Fatal(err)
	}
	if got := st.LogRecords(); got != 0 {
		t.Fatalf("LogRecords after compact = %d, want 0", got)
	}

	// Grow the chain and append the new blocks as the log tail.
	mineMore(t, miner, now, 3)
	appendBest(t, st, c, 6, 8)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash: tear the final record mid-payload.
	logPath := filepath.Join(dir, "blocks.log")
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	// Recovery: heights 1-5 replay trusted up to the checkpoint, the
	// intact tail records replay heights 6-7, the torn record for height
	// 8 is dropped.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	replica := freshReplica(t, genesis, miners)
	loaded, err := st2.Load(replica)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 7 {
		t.Fatalf("loaded = %d, want 7 (5 checkpointed + 2 tail)", loaded)
	}
	if replica.Height() != 7 {
		t.Fatalf("replica height = %d, want 7", replica.Height())
	}
	if err := replica.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	// The truncated tail must not poison future appends: re-append the
	// lost block and reload once more.
	b8, _ := c.BlockAt(8)
	if err := replica.AddBlock(b8); err != nil {
		t.Fatal(err)
	}
	if err := st2.AppendBlock(b8); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	replica2 := freshReplica(t, genesis, miners)
	if loaded, err := st3.Load(replica2); err != nil || loaded != 8 {
		t.Fatalf("reload after repair: loaded = %d, err = %v, want 8", loaded, err)
	}
}

// TestStoreSnapshotCorruptionDetected refuses a chain store it cannot
// trust: a checkpoint with a flipped byte in its tip-set digest (framed
// with a valid CRC, so only the replay check can catch it), a log of the
// BCWANLOG1 generation, and a stray snapshot.dat of the two-file layout.
// Each is ErrBadStore, naming what it refused.
func TestStoreSnapshotCorruptionDetected(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, dir string, c *chain.Chain)
		want    string
	}{
		{"flipped-byte", func(t *testing.T, dir string, c *chain.Chain) {
			l, err := durable.OpenLog(filepath.Join(dir, "blocks.log"), logMagic, maxStoredBlock)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			recs, err := l.Replay()
			if err != nil {
				t.Fatal(err)
			}
			cp := recs[len(recs)-1]
			if cp[len(cp)-1] != recCheckpoint {
				t.Fatalf("last record is of kind %q, want a checkpoint", cp[len(cp)-1])
			}
			cp[40] ^= 0xff
			if err := l.Rewrite(recs); err != nil {
				t.Fatal(err)
			}
		}, "checkpoint does not match"},
		{"v1-generation", func(t *testing.T, dir string, c *chain.Chain) {
			path := filepath.Join(dir, "blocks.log")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append([]byte("BCWANLOG1\n"), raw[len(logMagic):]...), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "BCWANLOG1"},
		{"stray-snapshot", func(t *testing.T, dir string, c *chain.Chain) {
			if err := os.WriteFile(filepath.Join(dir, "snapshot.dat"), []byte("BCWANSNAP2\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "snapshot.dat"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, genesis, miners := storedChain(t, 4)
			dir := t.TempDir()
			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			appendBest(t, st, c, 1, 4)
			if err := st.Compact(c); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, dir, c)

			st2, err := OpenStore(dir)
			if err == nil {
				defer st2.Close()
				_, err = st2.Load(freshReplica(t, genesis, miners))
			}
			if !errors.Is(err, ErrBadStore) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want ErrBadStore naming %q", err, tc.want)
			}
		})
	}
}

func TestStoreOutOfOrderLogReplays(t *testing.T) {
	c, genesis, miners := storedChain(t, 5)
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent subscription callbacks can append out of chain order;
	// Load's multi-pass replay must still connect everything.
	for _, h := range []int64{3, 1, 5, 2, 4} {
		b, _ := c.BlockAt(h)
		if err := st.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	replica := freshReplica(t, genesis, miners)
	loaded, err := st2.Load(replica)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 5 || replica.Height() != 5 {
		t.Fatalf("loaded = %d height = %d, want 5/5", loaded, replica.Height())
	}
}

// TestStoreCheckpointWaitsForInFlightAppend races two connect callbacks
// the way the chain allows: block 4's append lands before block 3's. A
// checkpoint at tip 4 then would vouch for a log without block 3, so
// Compact skips it, and again while block 3 is the last append (the tip
// is not); after block 5's append the checkpoint is written, and the log
// reloads whole.
func TestStoreCheckpointWaitsForInFlightAppend(t *testing.T) {
	c, genesis, miners, miner, now := minedChain(t, 4)
	dir := t.TempDir()
	st := openTestStore(t, dir)
	if _, err := st.Load(freshReplica(t, genesis, miners)); err != nil {
		t.Fatal(err)
	}
	for _, h := range []int64{1, 2, 4, 3} {
		appendBest(t, st, c, h, h)
		if err := st.Compact(c); err != nil {
			t.Fatal(err)
		}
	}
	if st.LogRecords() != 4 {
		t.Fatalf("LogRecords = %d, want 4: no checkpoint before the log holds the tip's ancestry with the tip last", st.LogRecords())
	}
	mineMore(t, miner, now, 1)
	appendBest(t, st, c, 5, 5)
	if err := st.Compact(c); err != nil {
		t.Fatal(err)
	}
	if st.LogRecords() != 0 {
		t.Fatalf("LogRecords = %d, want 0 after the checkpoint", st.LogRecords())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	restored := freshReplica(t, genesis, miners)
	if loaded, err := openTestStore(t, dir).Load(restored); err != nil || loaded != 5 {
		t.Fatalf("reload: %d blocks (%v), want 5", loaded, err)
	}
}

// coinbaseBlockOn builds a coinbase-only block on parent, signed by key;
// nonce tells apart blocks of competing branches at one height.
func coinbaseBlockOn(t *testing.T, parent *chain.Block, key *bccrypto.ECKey, nonce int64) *chain.Block {
	t.Helper()
	coinbase := &chain.Tx{
		Inputs: []chain.TxIn{{
			Prev:   chain.OutPoint{Index: 0xffffffff},
			Unlock: script.NewBuilder().AddInt64(parent.Header.Height + 1).AddInt64(nonce).Script(),
		}},
		Outputs: []chain.TxOut{{Value: chain.DefaultParams().CoinbaseReward, Lock: script.PayToPubKeyHash([20]byte{1})}},
	}
	b := &chain.Block{
		Header: chain.Header{
			Version:    1,
			PrevBlock:  parent.ID(),
			MerkleRoot: chain.MerkleRoot([]*chain.Tx{coinbase}),
			Time:       parent.Header.Time + int64(15*time.Second),
			Height:     parent.Header.Height + 1,
		},
		Txs: []*chain.Tx{coinbase},
	}
	if err := b.Header.Sign(key, rand.Reader); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStoreRewritesAfterReorgBelowCheckpoint checkpoints tip 6, then
// reorgs to a longer branch forking at height 3. The store cannot prove
// from the appends since that checkpoint that the new branch's ancestry
// is logged, so the next compaction rewrites the log to the new best
// chain instead of checkpointing, and the log reloads to the new tip.
func TestStoreRewritesAfterReorgBelowCheckpoint(t *testing.T) {
	key, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	genesis := chain.GenesisBlock(map[[20]byte]uint64{{2}: 1000})
	miners := [][]byte{key.PublicBytes()}
	c := freshReplica(t, genesis, miners)
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
	extend := func(parent *chain.Block, n int, nonce int64) {
		for range n {
			b := coinbaseBlockOn(t, parent, key, nonce)
			if err := c.AddBlock(b); err != nil {
				t.Fatal(err)
			}
			parent = b
		}
	}
	extend(genesis, 6, 0)
	if err := st.Compact(c); err != nil || st.LogRecords() != 0 {
		t.Fatalf("checkpoint at tip 6: %v, %d records after it", err, st.LogRecords())
	}
	forkPoint, _ := c.BlockAt(3)
	extend(forkPoint, 4, 1)
	if c.Height() != 7 || st.LogRecords() != 4 {
		t.Fatalf("after the reorg: height %d, %d records since the checkpoint; want 7 and 4", c.Height(), st.LogRecords())
	}
	if err := st.Compact(c); err != nil || st.LogRecords() != 0 {
		t.Fatalf("compaction after the reorg: %v, %d records after it", err, st.LogRecords())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	blocks, _, checkpoints := logKinds(t, dir)
	if len(blocks) != 7 || checkpoints != 1 {
		t.Fatalf("log holds blocks %v and %d checkpoints, want the 7 of the new best chain and one checkpoint", blocks, checkpoints)
	}
	restored := freshReplica(t, genesis, miners)
	if loaded, err := openTestStore(t, dir).Load(restored); err != nil || loaded != 7 || restored.Tip().ID() != c.Tip().ID() {
		t.Fatalf("reload: %d blocks (%v), want 7 up to the new tip", loaded, err)
	}
}
