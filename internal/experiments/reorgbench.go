package experiments

import (
	"crypto/rand"
	"fmt"
	"io"
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
	ChainLengths []int `json:"-"`     // best-chain heights to measure at
	Depth        int   `json:"depth"` // blocks disconnected per reorg
	Iterations   int   `json:"-"`     // measured reorgs per chain length
}

// DefaultReorgConfig measures the acceptance bound of DESIGN.md §11: a
// depth-2 reorg at height 1,000 must land within 5x its cost at height
// 100.
func DefaultReorgConfig() ReorgConfig {
	return ReorgConfig{ChainLengths: []int{100, 1000}, Depth: 2, Iterations: 30}
}

func quickReorgConfig() ReorgConfig {
	return ReorgConfig{ChainLengths: []int{20, 60}, Depth: 2, Iterations: 5}
}

// ReorgResult is the measured reorg cost at one chain length.
type ReorgResult struct {
	ChainLen   int           `json:"chain_len"`
	Depth      int           `json:"depth"`
	Iterations int           `json:"iterations"`
	Elapsed    time.Duration `json:"-"` // total time inside the reorg-triggering AddBlock calls
	NsPerReorg int64         `json:"ns_per_reorg"`
}

// ReorgDoc is the BENCH_reorg.json document. ScalingRatio is the longest
// chain's per-reorg cost over the shortest chain's (rows are in ascending
// chain-length order); 0 with fewer than two rows.
type ReorgDoc struct {
	docHeader
	ReorgConfig
	ScalingRatio float64        `json:"scaling_ratio"`
	Results      []*ReorgResult `json:"results"`
}

func newReorgDoc(cfg ReorgConfig, results []*ReorgResult) *ReorgDoc {
	doc := &ReorgDoc{ReorgConfig: cfg, Results: results}
	if len(results) >= 2 && results[0].NsPerReorg > 0 {
		doc.ScalingRatio = float64(results[len(results)-1].NsPerReorg) / float64(results[0].NsPerReorg)
	}
	return doc
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
func RunReorg(cfg ReorgConfig) (*ReorgDoc, error) {
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
	return newReorgDoc(cfg, results), nil
}

// WriteReorg prints the reorg-cost table with each row's scaling ratio
// against the shortest chain — the number the CI gate bounds at 5x.
func WriteReorg(w io.Writer, doc *ReorgDoc) {
	fmt.Fprintf(w, "== Reorg cost (depth %d, %d reorgs per length) ==\n", doc.Depth, doc.Iterations)
	fmt.Fprintf(w, "%-12s %14s %10s\n", "chain length", "per reorg", "vs first")
	var base int64
	for _, r := range doc.Results {
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

// maxReorgScaling caps the per-reorg cost ratio of the longest chain to
// the shortest (the acceptance bound of DESIGN.md §11).
const maxReorgScaling = 5.0

// gateReorg asserts the undo-journal property inside the candidate
// document itself: the per-reorg cost on the longest chain must stay
// within maxReorgScaling times the cost on the shortest. This is a
// same-machine comparison, so it holds on any runner speed — a
// replay-from-genesis reorg would push the ratio toward
// chainLenMax/chainLenMin. The baseline is only checked for
// workload-shape agreement (absolute nanoseconds are not compared across
// machines).
func gateReorg(base, cand *ReorgDoc) ([]string, error) {
	if base.Depth != cand.Depth || len(base.Results) != len(cand.Results) {
		return nil, fmt.Errorf("workload mismatch: baseline depth %d/%d lengths vs candidate depth %d/%d lengths — regenerate the baseline",
			base.Depth, len(base.Results), cand.Depth, len(cand.Results))
	}
	if len(cand.Results) < 2 {
		return nil, fmt.Errorf("reorg document needs at least two chain lengths, got %d", len(cand.Results))
	}
	first, last := cand.Results[0], cand.Results[len(cand.Results)-1]
	if first.NsPerReorg <= 0 {
		return nil, fmt.Errorf("reorg baseline row has non-positive ns_per_reorg")
	}
	ratio := float64(last.NsPerReorg) / float64(first.NsPerReorg)
	if ratio > maxReorgScaling {
		return []string{fmt.Sprintf(
			"depth-%d reorg cost scales with chain length: %d ns at height %d vs %d ns at height %d (%.2fx > %.1fx) — did a reorg path fall back to replay-from-genesis?",
			cand.Depth, last.NsPerReorg, last.ChainLen, first.NsPerReorg, first.ChainLen, ratio, maxReorgScaling)}, nil
	}
	return nil, nil
}
