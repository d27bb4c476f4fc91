package daemon

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/durable"
)

// fuzzChain is a chain from a fixed genesis and miner key, so block
// records found by one fuzzing run stay valid in the next.
func fuzzChain(f *testing.F, blocks int) (*chain.Chain, *chain.Block, []byte) {
	f.Helper()
	key, err := bccrypto.ParseECPrivateKey([]byte("fuzz-store-load-miner-key-000001"))
	if err != nil {
		f.Fatal(err)
	}
	genesis := chain.GenesisBlock(map[[20]byte]uint64{{1}: 1000})
	c, err := chain.New(chain.DefaultParams(), genesis)
	if err != nil {
		f.Fatal(err)
	}
	c.AuthorizeMiner(key.PublicBytes())
	miner := chain.NewMiner(key, c, chain.NewMempool(), rand.Reader)
	now := time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < blocks; i++ {
		now = now.Add(15 * time.Second)
		if _, err := miner.Mine(now); err != nil {
			f.Fatal(err)
		}
	}
	return c, genesis, key.PublicBytes()
}

// fuzzRecords splits fuzz input into log payloads, each a 2-byte length
// and that many bytes (clamped to what is left); packRecords is its
// inverse for the seeds.
func fuzzRecords(in []byte) [][]byte {
	var recs [][]byte
	for len(in) >= 2 {
		n := min(int(binary.BigEndian.Uint16(in)), len(in)-2)
		recs = append(recs, in[2:2+n])
		in = in[2+n:]
	}
	return recs
}

func packRecords(recs [][]byte) []byte {
	var out []byte
	for _, r := range recs {
		out = binary.BigEndian.AppendUint16(out, uint16(len(r)))
		out = append(out, r...)
	}
	return out
}

// storeRecords returns the payloads of the closed store's log in dir.
func storeRecords(f *testing.F, dir string) [][]byte {
	f.Helper()
	l, err := durable.OpenLog(filepath.Join(dir, "blocks.log"), logMagic, maxStoredBlock)
	if err != nil {
		f.Fatal(err)
	}
	defer l.Close()
	recs, err := l.Replay()
	if err != nil {
		f.Fatal(err)
	}
	return recs
}

// FuzzStoreLoad loads arbitrary CRC-valid records after the log's magic.
// Load must not panic, must not size an allocation from a length field,
// and must either return ErrBadStore or leave a chain that passes
// CheckConsistency.
func FuzzStoreLoad(f *testing.F) {
	c, genesis, minerPub := fuzzChain(f, 10)
	block := func(h int64) *chain.Block {
		b, ok := c.BlockAt(h)
		if !ok {
			f.Fatalf("missing height %d", h)
		}
		return b
	}
	record := func(b *chain.Block) []byte { return append(b.Serialize(), recBlock) }
	_, tipSet := tipState(c)

	// A checkpointed log as a node writes it: blocks, a checkpoint, a tail.
	var plain [][]byte
	for h := int64(1); h <= 6; h++ {
		plain = append(plain, record(block(h)))
	}
	f.Add(packRecords(plain))
	f.Add(packRecords(append(plain[:6:6], record(block(7)), record(block(8)), record(block(9)), record(block(10)),
		checkpoint(c.Tip().ID(), tipSet))))
	f.Add(packRecords([][]byte{plain[2], plain[0], plain[1], checkpoint(block(3).ID(), chain.Hash{})}))

	// A pruned log as a rewrite leaves it: headers, base UTXO set, blocks
	// above the base, checkpoint.
	pruned, _, _ := fuzzChain(f, 0)
	for h := int64(1); h <= 10; h++ {
		if err := pruned.AddBlock(block(h)); err != nil {
			f.Fatal(err)
		}
	}
	if err := pruned.PruneBelow(6); err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Compact(pruned); err != nil {
		f.Fatal(err)
	}
	st.Close()
	f.Add(packRecords(storeRecords(f, dir)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		dir := t.TempDir()
		l, err := durable.OpenLog(filepath.Join(dir, "blocks.log"), logMagic, maxStoredBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Rewrite(fuzzRecords(in)); err != nil {
			t.Fatal(err)
		}
		l.Close()
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		replica := freshReplica(t, genesis, [][]byte{minerPub})

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocBefore := ms.TotalAlloc
		_, err = st.Load(replica)
		runtime.ReadMemStats(&ms)
		if got, limit := ms.TotalAlloc-allocBefore, uint64(256*len(in)+8<<20); got > limit {
			t.Fatalf("loading %d bytes of records allocated %d", len(in), got)
		}
		if err != nil {
			if !errors.Is(err, ErrBadStore) {
				t.Fatalf("Load: %v, want ErrBadStore", err)
			}
			return
		}
		if err := replica.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}
