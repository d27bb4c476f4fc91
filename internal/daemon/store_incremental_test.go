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
	// Snapshot at height 5, resetting the log.
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

	// Recovery: snapshot restores heights 1-5, the intact tail records
	// replay heights 6-7, the torn record for height 8 is dropped.
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
		t.Fatalf("loaded = %d, want 7 (5 snapshot + 2 tail)", loaded)
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

// TestStoreSnapshotCorruptionDetected refuses a snapshot.dat it cannot
// trust: a flipped byte fails the checksum, and a file of the unpruned
// BCWANSNAP1 generation is refused by name rather than misread.
func TestStoreSnapshotCorruptionDetected(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
		want    string
	}{
		{"flipped-byte", func(raw []byte) []byte { raw[len(raw)/2] ^= 0xff; return raw }, "checksum"},
		{"v1-generation", func(raw []byte) []byte { return append([]byte("BCWANSNAP1\n"), raw[len(snapMagic):]...) }, "BCWANSNAP1"},
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

			snapPath := filepath.Join(dir, "snapshot.dat")
			raw, err := os.ReadFile(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(snapPath, tc.corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			st2, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			replica := freshReplica(t, genesis, miners)
			if _, err := st2.Load(replica); !errors.Is(err, ErrBadStore) || !strings.Contains(err.Error(), tc.want) {
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
