// Package chain implements the BcWAN blockchain substrate: UTXO-model
// transactions, script-locked outputs, blocks, a mempool, validation, and
// a permissioned miner. It mirrors the Multichain features the paper's
// proof of concept relies on (§5.1): a configurable average mining time
// and block size, OP_RETURN data publishing, and a custom script operator
// (OP_CHECKRSA512PAIR) patched into validation.
package chain

import "time"

// Params are the chain's consensus and performance tunables — the knobs
// Multichain exposes that "impact the theoretical maximum number of
// transactions per second" (§5.1).
type Params struct {
	// BlockInterval is the target average mining time.
	BlockInterval time.Duration
	// MaxBlockTxs caps transactions per block (block size analogue).
	MaxBlockTxs int
	// CoinbaseReward is the subsidy paid to the miner per block.
	CoinbaseReward uint64
	// CoinbaseMaturity is the number of blocks before a coinbase output
	// may be spent.
	CoinbaseMaturity int64
	// VerifyScripts toggles script validation in block connect, mempool
	// admission and block building. It is false only in
	// Chain.AddBlockTrusted (store restore) and test fixtures. Fig. 5 and
	// Fig. 6 both run with it on: their configurations differ in the
	// simulation's VerificationStall (and the exchange timeout it
	// stretches), not here.
	VerifyScripts bool
}

// DefaultParams mirrors the proof-of-concept configuration: a Multichain
// with a short block interval, sized for the 5-node PlanetLab deployment.
func DefaultParams() Params {
	return Params{
		BlockInterval:    15 * time.Second,
		MaxBlockTxs:      1000,
		CoinbaseReward:   50_000,
		CoinbaseMaturity: 1,
		VerifyScripts:    true,
	}
}

// withoutScripts is p with script verification off: the policy for
// blocks whose scripts were verified before (AddBlockTrusted, a failed
// reorg's restore).
func (p Params) withoutScripts() Params {
	p.VerifyScripts = false
	return p
}
