package chain

import (
	"fmt"
	"io"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/script"
	"bcwan/internal/telemetry"
)

// Miner builds and signs blocks from mempool contents. In the paper's
// deployment a single master node mines (mining is disabled on the
// PlanetLab gateways); the proof-of-authority header signature reproduces
// that trust model.
type Miner struct {
	key     *bccrypto.ECKey
	chain   *Chain
	mempool *Mempool
	random  io.Reader
	metrics *minerMetrics
}

// Instrument registers the miner's metrics in reg (blocks mined and
// block-assembly latency). Call once, before mining starts; a nil
// registry is a no-op.
func (m *Miner) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.metrics = newMinerMetrics(reg)
}

// NewMiner returns a miner minting to the given key.
func NewMiner(key *bccrypto.ECKey, c *Chain, pool *Mempool, random io.Reader) *Miner {
	return &Miner{key: key, chain: c, mempool: pool, random: random}
}

// BuildBlock assembles, validates and signs the next block at the given
// timestamp without adding it to the chain.
func (m *Miner) BuildBlock(now time.Time) (*Block, error) {
	var start time.Time
	if m.metrics != nil {
		start = time.Now()
	}
	params := m.chain.Params()
	verifier := m.chain.Verifier()
	candidates := m.mempool.Select(params.MaxBlockTxs - 1)

	// Re-validate candidates against the current view, dropping any that
	// became unspendable (e.g. conflicting block arrived since Accept).
	// A copy-on-write overlay held under the chain's read lock replaces
	// the old full-set clone, so template assembly costs O(template txs)
	// regardless of UTXO size.
	var tip *Block
	var height int64
	var fees uint64
	var txs []*Tx
	m.chain.ReadState(func(t *Block, utxo *UTXOSet) {
		tip = t
		height = t.Header.Height + 1
		view := NewUTXOView(utxo)
		txs = make([]*Tx, 0, len(candidates)+1)
		txs = append(txs, nil) // coinbase placeholder
		for _, tx := range candidates {
			fee, err := ConnectTxVerified(view, tx, height, params.CoinbaseMaturity, params.VerifyScripts, verifier)
			if err != nil {
				continue
			}
			if err := view.ApplyTx(tx, height); err != nil {
				continue
			}
			fees += fee
			txs = append(txs, tx)
		}
	})

	hash := m.key.PubKeyHash()
	coinbase := &Tx{
		Inputs: []TxIn{{
			Prev: OutPoint{Index: coinbaseIndex},
			// Unique per height so coinbase IDs never collide.
			Unlock: script.NewBuilder().AddInt64(height).Script(),
		}},
		Outputs: []TxOut{{
			Value: params.CoinbaseReward + fees,
			Lock:  script.PayToPubKeyHash(hash),
		}},
	}
	txs[0] = coinbase

	b := &Block{
		Header: Header{
			Version:    1,
			PrevBlock:  tip.ID(),
			MerkleRoot: MerkleRoot(txs),
			Time:       now.UnixNano(),
			Height:     height,
		},
		Txs: txs,
	}
	if err := b.Header.Sign(m.key, m.random); err != nil {
		return nil, fmt.Errorf("build block: %w", err)
	}
	if m.metrics != nil {
		m.metrics.assemblySeconds.ObserveSince(start)
	}
	return b, nil
}

// Mine builds the next block, adds it to the chain and prunes the mempool.
func (m *Miner) Mine(now time.Time) (*Block, error) {
	b, err := m.BuildBlock(now)
	if err != nil {
		return nil, err
	}
	if err := m.chain.AddBlock(b); err != nil {
		return nil, fmt.Errorf("mine: %w", err)
	}
	if m.metrics != nil {
		m.metrics.blocksMined.Inc()
	}
	m.mempool.RemoveConfirmed(b)
	return b, nil
}

// PublicKey returns the miner's serialized public key, for
// Chain.AuthorizeMiner.
func (m *Miner) PublicKey() []byte { return m.key.PublicBytes() }
