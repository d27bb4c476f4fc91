package experiments

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/telemetry"
	"bcwan/internal/wallet"
)

// BlockConnectConfig sizes the block-connect throughput experiment: the
// ablation behind Params.VerifyWorkers. A fixed sequence of signed
// blocks is built once, then replayed into fresh chains that differ only
// in worker count and signature-cache priming.
type BlockConnectConfig struct {
	Blocks      int   // blocks in the replayed sequence
	TxsPerBlock int   // payment transactions per block (plus a coinbase)
	Workers     []int // VerifyWorkers values to sweep; 0 = seed's sequential path
	// Repeats replays each configuration this many times and reports
	// the fastest run, suppressing scheduler noise so the CI regression
	// gate's 25% threshold measures the code, not the runner.
	Repeats int
}

// DefaultBlockConnectConfig is the paper-scale sweep: the worker widths
// of the Fig. 5/6 ablation discussion.
func DefaultBlockConnectConfig() BlockConnectConfig {
	return BlockConnectConfig{Blocks: 12, TxsPerBlock: 24, Workers: []int{0, 1, 2, 4, 8}, Repeats: 5}
}

// BlockConnectResult is one replay measurement. The signature-cache
// fields come from the replay chain's telemetry snapshot, covering the
// whole replay (warm runs include the mempool-priming verifications).
type BlockConnectResult struct {
	Workers         int           // VerifyWorkers for this run
	Warm            bool          // true when txs passed through the mempool first (shared sig cache primed)
	Elapsed         time.Duration // total time inside Chain.AddBlock
	Blocks          int
	Txs             int // payment txs connected (coinbases excluded)
	TxsPerSec       float64
	SigCacheHits    uint64
	SigCacheMisses  uint64
	SigCacheHitRate float64 // hits / (hits + misses); 0 when no lookups ran
}

// blockConnectFixture is the prebuilt block sequence plus everything a
// replay needs to reconstruct an identical chain.
type blockConnectFixture struct {
	params   chain.Params
	genesis  []byte
	blocks   [][]byte
	payments int // per block
}

// buildBlockConnectFixture constructs the canonical block sequence: n
// wallets each spend their single output once per block, so every block
// carries exactly n independent signed payments.
func buildBlockConnectFixture(cfg BlockConnectConfig) (*blockConnectFixture, error) {
	params := chain.DefaultParams()

	wallets := make([]*wallet.Wallet, cfg.TxsPerBlock)
	alloc := make(map[[20]byte]uint64, cfg.TxsPerBlock)
	for i := range wallets {
		w, err := wallet.New(rand.Reader)
		if err != nil {
			return nil, err
		}
		wallets[i] = w
		alloc[w.PubKeyHash()] = 1 << 32
	}
	minerW, err := wallet.New(rand.Reader)
	if err != nil {
		return nil, err
	}

	genesis := chain.GenesisBlock(alloc)
	c, err := chain.New(params, genesis)
	if err != nil {
		return nil, err
	}
	c.AuthorizeMiner(minerW.PublicBytes())
	pool := chain.NewMempool()
	pool.UseVerifier(c.Verifier())
	miner := chain.NewMiner(minerW.Key(), c, pool, rand.Reader)

	now := time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)
	fix := &blockConnectFixture{
		params:   params,
		genesis:  genesis.Serialize(),
		payments: cfg.TxsPerBlock,
	}
	for b := 0; b < cfg.Blocks; b++ {
		for _, w := range wallets {
			tx, err := w.BuildPayment(c.UTXO(), w.PubKeyHash(), 1000, 1)
			if err != nil {
				return nil, err
			}
			if err := pool.Accept(tx, c.UTXO(), c.Height(), params); err != nil {
				return nil, err
			}
		}
		now = now.Add(params.BlockInterval)
		blk, err := miner.Mine(now)
		if err != nil {
			return nil, err
		}
		fix.blocks = append(fix.blocks, blk.Serialize())
	}
	return fix, nil
}

// replay connects the fixture's blocks into a fresh chain configured
// with the given worker count, timing only Chain.AddBlock. When warm is
// true, each block's payments are first admitted through a mempool
// sharing the chain's verifier — the production handoff — so block
// connect finds their script checks already cached.
func (fix *blockConnectFixture) replay(workers int, warm bool) (*BlockConnectResult, error) {
	params := fix.params
	params.VerifyWorkers = workers
	genesis, err := chain.DeserializeBlock(fix.genesis)
	if err != nil {
		return nil, err
	}
	c, err := chain.New(params, genesis)
	if err != nil {
		return nil, err
	}
	first, err := chain.DeserializeBlock(fix.blocks[0])
	if err != nil {
		return nil, err
	}
	c.AuthorizeMiner(first.Header.MinerPubKey)

	pool := chain.NewMempool()
	pool.UseVerifier(c.Verifier())
	// A per-replay registry isolates each run's signature-cache stats.
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	pool.Instrument(reg)

	res := &BlockConnectResult{Workers: workers, Warm: warm, Blocks: len(fix.blocks)}
	for _, raw := range fix.blocks {
		blk, err := chain.DeserializeBlock(raw)
		if err != nil {
			return nil, err
		}
		if warm {
			for _, tx := range blk.Txs[1:] {
				if err := pool.Accept(tx, c.UTXO(), c.Height(), params); err != nil {
					return nil, fmt.Errorf("mempool admission: %w", err)
				}
			}
		}
		start := time.Now()
		err = c.AddBlock(blk)
		res.Elapsed += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", blk.Header.Height, err)
		}
		res.Txs += len(blk.Txs) - 1
	}
	if res.Elapsed > 0 {
		res.TxsPerSec = float64(res.Txs) / res.Elapsed.Seconds()
	}
	res.SigCacheHits = uint64(snapshotValue(reg, "bcwan_chain_sigcache_hits_total"))
	res.SigCacheMisses = uint64(snapshotValue(reg, "bcwan_chain_sigcache_misses_total"))
	if total := res.SigCacheHits + res.SigCacheMisses; total > 0 {
		res.SigCacheHitRate = float64(res.SigCacheHits) / float64(total)
	}
	return res, nil
}

// snapshotValue reads one unlabeled series from a registry snapshot,
// returning 0 when absent.
func snapshotValue(reg *telemetry.Registry, name string) float64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name && len(m.Labels) == 0 {
			return m.Value
		}
	}
	return 0
}

// RunBlockConnect builds the block sequence once and replays it cold
// (empty signature cache) at every requested worker count, then warm
// (mempool-primed cache) at the same counts.
func RunBlockConnect(cfg BlockConnectConfig) ([]*BlockConnectResult, error) {
	if cfg.Blocks <= 0 || cfg.TxsPerBlock <= 0 {
		return nil, fmt.Errorf("block-connect config must be positive: %+v", cfg)
	}
	if len(cfg.Workers) == 0 {
		cfg.Workers = DefaultBlockConnectConfig().Workers
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 1
	}
	fix, err := buildBlockConnectFixture(cfg)
	if err != nil {
		return nil, err
	}
	var results []*BlockConnectResult
	for _, warm := range []bool{false, true} {
		for _, w := range cfg.Workers {
			// Best of cfg.Repeats: the minimum elapsed time is the run
			// least disturbed by the scheduler. Cache stats are identical
			// across repeats (each replay starts from a fresh chain).
			var best *BlockConnectResult
			for r := 0; r < cfg.Repeats; r++ {
				res, err := fix.replay(w, warm)
				if err != nil {
					return nil, err
				}
				if best == nil || res.Elapsed < best.Elapsed {
					best = res
				}
			}
			results = append(results, best)
		}
	}
	return results, nil
}

// WriteBlockConnect prints the throughput sweep. The cold rows isolate
// the worker pool; the warm rows show the mempool→block-connect cache
// handoff, where block connect skips every script already verified at
// admission.
func WriteBlockConnect(w io.Writer, cfg BlockConnectConfig, results []*BlockConnectResult) {
	fmt.Fprintf(w, "== Block-connect throughput (%d blocks x %d txs) ==\n", cfg.Blocks, cfg.TxsPerBlock)
	fmt.Fprintf(w, "%-8s %-22s %12s %12s %9s\n", "workers", "sig cache", "connect", "txs/sec", "hit rate")
	var base float64
	for _, r := range results {
		cache := "cold"
		if r.Warm {
			cache = "warm (mempool-primed)"
		}
		speedup := ""
		if r.Workers == 0 && !r.Warm {
			base = r.TxsPerSec
		} else if base > 0 {
			speedup = fmt.Sprintf("  (%.2fx vs sequential cold)", r.TxsPerSec/base)
		}
		fmt.Fprintf(w, "%-8d %-22s %12s %12.0f %8.0f%%%s\n",
			r.Workers, cache, r.Elapsed.Round(time.Microsecond), r.TxsPerSec, r.SigCacheHitRate*100, speedup)
	}
	fmt.Fprintln(w)
}

// blockConnectJSONRow is one machine-readable sweep row.
type blockConnectJSONRow struct {
	Workers         int     `json:"workers"`
	Warm            bool    `json:"warm"`
	NsPerBlock      int64   `json:"ns_per_block"`
	BlocksPerSec    float64 `json:"blocks_per_sec"`
	TxsPerSec       float64 `json:"txs_per_sec"`
	SigCacheHits    uint64  `json:"sigcache_hits"`
	SigCacheMisses  uint64  `json:"sigcache_misses"`
	SigCacheHitRate float64 `json:"sigcache_hit_rate"`
}

// hostStamp says where a timing document was measured: a worker sweep
// read without its core count cannot show whether it scaled.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func currentHost() hostStamp {
	return hostStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// blockConnectJSON is the BENCH_blockconnect.json document.
type blockConnectJSON struct {
	Host        hostStamp             `json:"host"`
	Blocks      int                   `json:"blocks"`
	TxsPerBlock int                   `json:"txs_per_block"`
	Repeats     int                   `json:"repeats"`
	Results     []blockConnectJSONRow `json:"results"`
}

// WriteBlockConnectJSON writes the sweep as machine-readable JSON to
// path, creating parent directories as needed.
func WriteBlockConnectJSON(path string, cfg BlockConnectConfig, results []*BlockConnectResult) error {
	doc := blockConnectJSON{Host: currentHost(), Blocks: cfg.Blocks, TxsPerBlock: cfg.TxsPerBlock, Repeats: cfg.Repeats}
	for _, r := range results {
		row := blockConnectJSONRow{
			Workers:         r.Workers,
			Warm:            r.Warm,
			TxsPerSec:       r.TxsPerSec,
			SigCacheHits:    r.SigCacheHits,
			SigCacheMisses:  r.SigCacheMisses,
			SigCacheHitRate: r.SigCacheHitRate,
		}
		if r.Blocks > 0 {
			row.NsPerBlock = r.Elapsed.Nanoseconds() / int64(r.Blocks)
		}
		if r.Elapsed > 0 {
			row.BlocksPerSec = float64(r.Blocks) / r.Elapsed.Seconds()
		}
		doc.Results = append(doc.Results, row)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
