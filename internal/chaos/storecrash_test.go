package chaos

import (
	"fmt"
	mrand "math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/daemon"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

// Store crash scenarios: the daemon store's append path (DESIGN.md §16)
// must keep its durability promise through power cuts. AppendBlock
// returning nil means the record survived an fsync — so after a crash
// that tears the tail of blocks.log mid-write, recovery must replay
// exactly the returned prefix, truncate the torn record, and leave a
// log clean enough to keep appending to.

// storeScenario is the seeded world one crash round operates on: a
// pre-built valid block sequence and a factory for fresh replicas.
type storeScenario struct {
	t      *testing.T
	seed   int64
	name   string
	blocks []*chain.Block // blocks[h] extends blocks[h-1]; blocks[0] is genesis
	mk     func() *chain.Chain
}

func (s *storeScenario) failf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("[replay: CHAOS_SEED=%d] scenario %q: %s", s.seed, s.name,
		fmt.Sprintf(format, args...))
}

// buildStoreScenario mines n empty signed blocks on a private chain so
// every round replays the same deterministic history.
func buildStoreScenario(t *testing.T, name string, seed int64, n int) *storeScenario {
	t.Helper()
	rng := mrand.New(mrand.NewSource(seed))
	minerW, err := wallet.New(rng)
	if err != nil {
		t.Fatal(err)
	}
	ownerW, err := wallet.New(rng)
	if err != nil {
		t.Fatal(err)
	}
	params := chain.DefaultParams()
	params.VerifyScripts = false
	genesis := chain.GenesisBlock(map[[20]byte]uint64{ownerW.PubKeyHash(): 1_000})

	mk := func() *chain.Chain {
		g, err := chain.DeserializeBlock(genesis.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		c, err := chain.New(params, g)
		if err != nil {
			t.Fatal(err)
		}
		c.AuthorizeMiner(minerW.PublicBytes())
		return c
	}

	builder := mk()
	base := time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)
	blocks := make([]*chain.Block, n+1)
	blocks[0] = builder.Tip()
	for h := 1; h <= n; h++ {
		parent := blocks[h-1]
		coinbase := &chain.Tx{
			Inputs: []chain.TxIn{{
				Prev: chain.OutPoint{Index: 0xffffffff},
				Unlock: script.NewBuilder().
					AddInt64(int64(h)).
					AddInt64(rng.Int63()).Script(),
			}},
			Outputs: []chain.TxOut{{
				Value: params.CoinbaseReward,
				Lock:  script.PayToPubKeyHash(ownerW.PubKeyHash()),
			}},
		}
		b := &chain.Block{
			Header: chain.Header{
				Version:    1,
				PrevBlock:  parent.ID(),
				MerkleRoot: chain.MerkleRoot([]*chain.Tx{coinbase}),
				Time:       base.Add(time.Duration(h) * 15 * time.Second).UnixNano(),
				Height:     int64(h),
			},
			Txs: []*chain.Tx{coinbase},
		}
		if err := b.Header.Sign(minerW.Key(), rng); err != nil {
			t.Fatal(err)
		}
		if err := builder.AddBlock(b); err != nil {
			t.Fatalf("building height %d: %v", h, err)
		}
		blocks[h] = b
	}
	return &storeScenario{t: t, seed: seed, name: name, blocks: blocks, mk: mk}
}

func TestStoreCrashScenarios(t *testing.T) {
	t.Run("torn-tail", testStoreTornTail)
}

// testStoreTornTail loops crash/recover rounds against one on-disk
// store: each round appends a random burst of blocks through concurrent
// AppendBlock calls, then pulls the plug mid-write of the NEXT record
// with a seeded torn prefix. Reopening must recover exactly the
// returned prefix, pass CheckConsistency, and accept the re-append of
// the lost block — the same block a restarted node would refetch over
// gossip.
func testStoreTornTail(t *testing.T) {
	const name = "torn-tail"
	seed, src := effectiveSeed(7331)
	t.Logf("scenario %q seed %d (%s); replay: CHAOS_SEED=%d go test -run 'TestStoreCrashScenarios/torn-tail' ./internal/chaos",
		name, seed, src, seed)

	const maxHeight = 20
	s := buildStoreScenario(t, name, seed, maxHeight)
	rng := mrand.New(mrand.NewSource(seed + 1))

	dir := filepath.Join(t.TempDir(), "store")
	st, err := daemon.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	durable := 0
	for round := 0; round < 3 && durable+1 < maxHeight; round++ {
		burst := 2 + rng.Intn(4)
		if durable+burst >= maxHeight {
			burst = maxHeight - durable - 1
		}
		start, end := durable+1, durable+burst

		syncsBefore := st.Syncs()
		var wg sync.WaitGroup
		for h := start; h <= end; h++ {
			b := s.blocks[h]
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := st.AppendBlock(b); err != nil {
					t.Errorf("round %d: append height %d: %v", round, b.Header.Height, err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			s.failf("round %d: burst append failed", round)
		}
		if syncs := st.Syncs() - syncsBefore; syncs != uint64(burst) {
			s.failf("round %d: %d appends cost %d fsyncs, want one each", round, burst, syncs)
		}
		durable = end

		// Power cut mid-write of the next record: a seeded torn prefix
		// lands on disk unsynced.
		torn := rng.Intn(512)
		if err := st.CrashForTest(s.blocks[durable+1], torn); err != nil {
			s.failf("round %d: crash: %v", round, err)
		}

		st, err = daemon.OpenStore(dir)
		if err != nil {
			s.failf("round %d: reopen: %v", round, err)
		}
		replica := s.mk()
		loaded, err := st.Load(replica)
		if err != nil {
			s.failf("round %d: recovery load: %v", round, err)
		}
		if replica.Height() != int64(durable) {
			s.failf("round %d: recovered to height %d, want the %d returned records (loaded %d, torn %d bytes)",
				round, replica.Height(), durable, loaded, torn)
		}
		if replica.Tip().ID() != s.blocks[durable].ID() {
			s.failf("round %d: recovered tip diverged from the returned prefix", round)
		}
		if err := replica.CheckConsistency(); err != nil {
			s.failf("round %d: recovered chain inconsistent: %v", round, err)
		}
	}

	// The store that lived through every crash keeps working: append the
	// rest of the history and hand it to a cold replica.
	for h := durable + 1; h <= maxHeight; h++ {
		if err := st.AppendBlock(s.blocks[h]); err != nil {
			s.failf("post-crash append height %d: %v", h, err)
		}
	}
	if err := st.Close(); err != nil {
		s.failf("close: %v", err)
	}
	st, err = daemon.OpenStore(dir)
	if err != nil {
		s.failf("final reopen: %v", err)
	}
	defer st.Close()
	replica := s.mk()
	if _, err := st.Load(replica); err != nil {
		s.failf("final load: %v", err)
	}
	if replica.Height() != maxHeight {
		s.failf("final height %d, want %d", replica.Height(), maxHeight)
	}
	if err := replica.CheckConsistency(); err != nil {
		s.failf("final chain inconsistent: %v", err)
	}
}
