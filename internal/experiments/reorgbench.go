package experiments

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

// ReorgConfig sizes the reorganization-cost experiment: the ablation
// behind the undo-journal machinery. A depth-d reorg is performed on
// chains of increasing length; with per-block undo data the cost is
// O(d) disconnects + O(d+1) connects, so the rows should be flat where
// a replay-from-genesis design would scale linearly with chain length.
type ReorgConfig struct {
	ChainLengths []int // best-chain heights to measure at
	Depth        int   // blocks disconnected per reorg
	Iterations   int   // measured reorgs per chain length
}

// DefaultReorgConfig measures the acceptance bound of DESIGN.md §11: a
// depth-2 reorg at height 1,000 must land within 5x its cost at height
// 100.
func DefaultReorgConfig() ReorgConfig {
	return ReorgConfig{ChainLengths: []int{100, 1000}, Depth: 2, Iterations: 30}
}

// ReorgResult is the measured reorg cost at one chain length.
type ReorgResult struct {
	ChainLen   int
	Depth      int
	Iterations int
	Elapsed    time.Duration // total time inside the reorg-triggering AddBlock calls
	NsPerReorg int64
}

// reorgFixture owns one growing chain; each measured reorg forks
// Depth blocks below the tip and connects Depth+1 fork blocks, leaving
// the chain one block taller (so iterations never rewind each other).
type reorgFixture struct {
	c      *chain.Chain
	minerW *wallet.Wallet
	now    time.Time
	nonce  int64
}

// forkBlock builds a coinbase-only block on parent signed by the miner
// wallet. The nonce lands in the coinbase unlock script so fork blocks
// minting at the same height on different branches still have unique
// transaction IDs.
func (fix *reorgFixture) forkBlock(parent *chain.Block) (*chain.Block, error) {
	fix.nonce++
	coinbase := &chain.Tx{
		Inputs: []chain.TxIn{{
			Prev: chain.OutPoint{Index: 0xffffffff},
			Unlock: script.NewBuilder().
				AddInt64(parent.Header.Height + 1).
				AddInt64(fix.nonce).
				AddData([]byte("reorgbench")).Script(),
		}},
		Outputs: []chain.TxOut{{
			Value: fix.c.Params().CoinbaseReward,
			Lock:  script.PayToPubKeyHash(fix.minerW.PubKeyHash()),
		}},
	}
	b := &chain.Block{
		Header: chain.Header{
			Version:    1,
			PrevBlock:  parent.ID(),
			MerkleRoot: chain.MerkleRoot([]*chain.Tx{coinbase}),
			Time:       fix.now.UnixNano(),
			Height:     parent.Header.Height + 1,
		},
		Txs: []*chain.Tx{coinbase},
	}
	if err := b.Header.Sign(fix.minerW.Key(), rand.Reader); err != nil {
		return nil, err
	}
	return b, nil
}

// buildReorgFixture mines a coinbase-only chain of the given length.
func buildReorgFixture(blocks int) (*reorgFixture, error) {
	minerW, err := wallet.New(rand.Reader)
	if err != nil {
		return nil, err
	}
	genesis := chain.GenesisBlock(map[[20]byte]uint64{minerW.PubKeyHash(): 1 << 32})
	c, err := chain.New(chain.DefaultParams(), genesis)
	if err != nil {
		return nil, err
	}
	c.AuthorizeMiner(minerW.PublicBytes())
	miner := chain.NewMiner(minerW.Key(), c, chain.NewMempool(), rand.Reader)
	now := time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < blocks; i++ {
		now = now.Add(15 * time.Second)
		if _, err := miner.Mine(now); err != nil {
			return nil, err
		}
	}
	return &reorgFixture{c: c, minerW: minerW, now: now}, nil
}

// measure performs cfg.Iterations depth-cfg.Depth reorgs, timing only
// the AddBlock calls of the overtaking branch.
func (fix *reorgFixture) measure(cfg ReorgConfig, chainLen int) (*ReorgResult, error) {
	res := &ReorgResult{ChainLen: chainLen, Depth: cfg.Depth, Iterations: cfg.Iterations}
	for i := 0; i < cfg.Iterations; i++ {
		tip := fix.c.Tip()
		parent, ok := fix.c.BlockAt(tip.Header.Height - int64(cfg.Depth))
		if !ok {
			return nil, fmt.Errorf("reorg bench: missing fork point below height %d", tip.Header.Height)
		}
		branch := make([]*chain.Block, 0, cfg.Depth+1)
		for j := 0; j <= cfg.Depth; j++ {
			b, err := fix.forkBlock(parent)
			if err != nil {
				return nil, err
			}
			branch = append(branch, b)
			parent = b
		}
		start := time.Now()
		for _, b := range branch {
			if err := fix.c.AddBlock(b); err != nil {
				return nil, fmt.Errorf("reorg bench: fork block %d: %w", b.Header.Height, err)
			}
		}
		res.Elapsed += time.Since(start)
		if fix.c.Tip().ID() != parent.ID() {
			return nil, fmt.Errorf("reorg bench: overtaking branch did not become best at iteration %d", i)
		}
	}
	if cfg.Iterations > 0 {
		res.NsPerReorg = res.Elapsed.Nanoseconds() / int64(cfg.Iterations)
	}
	return res, nil
}

// RunReorg measures the reorg cost at every configured chain length.
func RunReorg(cfg ReorgConfig) ([]*ReorgResult, error) {
	if cfg.Depth <= 0 || cfg.Iterations <= 0 || len(cfg.ChainLengths) == 0 {
		return nil, fmt.Errorf("reorg config must be positive: %+v", cfg)
	}
	var results []*ReorgResult
	for _, chainLen := range cfg.ChainLengths {
		if chainLen <= cfg.Depth {
			return nil, fmt.Errorf("reorg bench: chain length %d must exceed depth %d", chainLen, cfg.Depth)
		}
		fix, err := buildReorgFixture(chainLen)
		if err != nil {
			return nil, err
		}
		res, err := fix.measure(cfg, chainLen)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// WriteReorg prints the reorg-cost table with each row's scaling ratio
// against the shortest chain — the number the CI gate bounds at 5x.
func WriteReorg(w io.Writer, cfg ReorgConfig, results []*ReorgResult) {
	fmt.Fprintf(w, "== Reorg cost (depth %d, %d reorgs per length) ==\n", cfg.Depth, cfg.Iterations)
	fmt.Fprintf(w, "%-12s %14s %10s\n", "chain length", "per reorg", "vs first")
	var base int64
	for _, r := range results {
		if base == 0 {
			base = r.NsPerReorg
		}
		ratio := ""
		if base > 0 {
			ratio = fmt.Sprintf("%9.2fx", float64(r.NsPerReorg)/float64(base))
		}
		fmt.Fprintf(w, "%-12d %14s %10s\n",
			r.ChainLen, time.Duration(r.NsPerReorg).Round(time.Microsecond), ratio)
	}
	fmt.Fprintln(w)
}

// reorgJSONRow is one machine-readable reorg measurement.
type reorgJSONRow struct {
	ChainLen   int   `json:"chain_len"`
	Depth      int   `json:"depth"`
	Iterations int   `json:"iterations"`
	NsPerReorg int64 `json:"ns_per_reorg"`
}

// reorgJSON is the BENCH_reorg.json document. ScalingRatio is the
// longest chain's per-reorg cost over the shortest chain's; bcwan-benchgate
// asserts it stays at or below the 5x acceptance bound.
type reorgJSON struct {
	Host         hostStamp      `json:"host"`
	Depth        int            `json:"depth"`
	ScalingRatio float64        `json:"scaling_ratio"`
	Results      []reorgJSONRow `json:"results"`
}

// ReorgScalingRatio is last-row cost over first-row cost (rows are in
// ascending chain-length order); 0 with fewer than two rows.
func ReorgScalingRatio(results []*ReorgResult) float64 {
	if len(results) < 2 || results[0].NsPerReorg <= 0 {
		return 0
	}
	return float64(results[len(results)-1].NsPerReorg) / float64(results[0].NsPerReorg)
}

// WriteReorgJSON writes the measurements as machine-readable JSON to
// path, creating parent directories as needed.
func WriteReorgJSON(path string, cfg ReorgConfig, results []*ReorgResult) error {
	doc := reorgJSON{Host: currentHost(), Depth: cfg.Depth, ScalingRatio: ReorgScalingRatio(results)}
	for _, r := range results {
		doc.Results = append(doc.Results, reorgJSONRow{
			ChainLen:   r.ChainLen,
			Depth:      r.Depth,
			Iterations: r.Iterations,
			NsPerReorg: r.NsPerReorg,
		})
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
