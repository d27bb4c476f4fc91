package chaos

import (
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/channel"
	"bcwan/internal/daemon"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

// Store crash scenarios: the one store format (DESIGN.md §19)
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
	t.Run("channel-torn-tail", testChannelStoreTornTail)
	t.Run("channel-legacy-state", testChannelStoreLegacyState)
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

// testChannelStoreTornTail cuts the last record of channels.log at every
// byte offset. The payer and payee of one channel share the store and
// save alternately, past the store's compaction interval, so the cut
// lands in a rewritten log. After each cut, reopening must return the
// payee's previous state and the payer's latest, the torn tail must be
// gone, and the next save must survive another reopen.
func testChannelStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "channels.log")
	id := chain.Hash{0xc4, 7}
	state := func(role channel.Role, version uint64) *channel.State {
		return &channel.State{ID: id, Role: role, Status: channel.StatusOpen,
			Version: version, Paid: chanPrice * version, RecipientSig: []byte{byte(version)}}
	}
	open := func() *channel.Store {
		t.Helper()
		st, err := channel.OpenStore(dir)
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		return st
	}
	// versions returns the stored version of each role.
	versions := func(st *channel.Store) map[channel.Role]uint64 {
		t.Helper()
		states, err := st.Load()
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		got := make(map[channel.Role]uint64)
		for _, s := range states {
			got[s.Role] = s.Version
		}
		return got
	}

	const last = 40
	st := open()
	var before int64
	for v := uint64(1); v <= last; v++ {
		if err := st.Save(state(channel.RolePayer, v)); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		before = info.Size()
		if err := st.Save(state(channel.RolePayee, v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs := int64(len(full)) / (int64(len(full)) - before); recs >= last {
		t.Fatalf("log holds about %d records after %d saves: it was never compacted", recs, 2*last)
	}

	for cut := before; cut < int64(len(full)); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st := open()
		if got := versions(st); got[channel.RolePayer] != last || got[channel.RolePayee] != last-1 {
			t.Fatalf("cut at %d of %d: reloaded versions %v, want payer %d and payee %d",
				cut-before, int64(len(full))-before, got, last, last-1)
		}
		if info, err := os.Stat(path); err != nil || info.Size() != before {
			t.Fatalf("cut at %d: torn tail left on disk (%v, %v)", cut-before, info.Size(), err)
		}
		if err := st.Save(state(channel.RolePayee, last)); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st = open()
		if got := versions(st); got[channel.RolePayee] != last {
			t.Fatalf("cut at %d: payee at version %d after re-saving %d", cut-before, got[channel.RolePayee], last)
		}
		st.Close()
	}
}

// testChannelStoreLegacyState opens a store directory that still holds a
// pre-log per-channel JSON state. The store must refuse it by name before
// writing anything: silently starting empty would drop a countersigned
// state.
func testChannelStoreLegacyState(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "c407000000000000-payee.json")
	if err := os.WriteFile(legacy, []byte(`{"id":"c407","version":4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := channel.OpenStore(dir); err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("open over a legacy state: err = %v, want a refusal naming %s", err, legacy)
	}
	if _, err := os.Stat(filepath.Join(dir, "channels.log")); !os.IsNotExist(err) {
		t.Fatalf("refused store still created its log (%v)", err)
	}
}
