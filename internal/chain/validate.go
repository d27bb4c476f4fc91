package chain

import (
	"errors"
	"fmt"
)

// Validation errors.
var (
	ErrEmptyTx         = errors.New("chain: transaction has no inputs or outputs")
	ErrValueOverflow   = errors.New("chain: output value overflow")
	ErrDuplicateInput  = errors.New("chain: duplicate input within transaction")
	ErrInsufficientIn  = errors.New("chain: inputs worth less than outputs")
	ErrImmatureSpend   = errors.New("chain: coinbase spent before maturity")
	ErrTxNotFinal      = errors.New("chain: lock time not yet reached")
	ErrBadCoinbase     = errors.New("chain: malformed coinbase placement")
	ErrBadMerkleRoot   = errors.New("chain: merkle root mismatch")
	ErrBadHeight       = errors.New("chain: wrong block height")
	ErrBadPrevBlock    = errors.New("chain: unknown previous block")
	ErrBadMinerSig     = errors.New("chain: invalid miner signature")
	ErrUnknownMiner    = errors.New("chain: miner not authorized")
	ErrExcessSubsidy   = errors.New("chain: coinbase pays more than reward plus fees")
	ErrTooManyBlockTxs = errors.New("chain: block exceeds transaction limit")
)

// maxMoney caps total supply-related arithmetic to keep sums far from
// uint64 overflow.
const maxMoney = 1 << 50

// CheckTxSanity performs stateless transaction checks.
func CheckTxSanity(tx *Tx) error {
	if len(tx.Inputs) == 0 || len(tx.Outputs) == 0 {
		return ErrEmptyTx
	}
	if tx.SerializedSize() > maxTxSize {
		return ErrTxTooLarge
	}
	var total uint64
	for _, out := range tx.Outputs {
		if out.Value > maxMoney {
			return ErrValueOverflow
		}
		total += out.Value
		if total > maxMoney {
			return ErrValueOverflow
		}
	}
	seen := make(map[OutPoint]bool, len(tx.Inputs))
	if !tx.IsCoinbase() {
		for _, in := range tx.Inputs {
			if in.Prev.TxID.IsZero() {
				return ErrBadCoinbase
			}
			if seen[in.Prev] {
				return fmt.Errorf("%w: %s", ErrDuplicateInput, in.Prev)
			}
			seen[in.Prev] = true
		}
	}
	return nil
}

// connectTxUTXO is the sequential UTXO-accounting pass of transaction
// validation: sanity, finality, spendability, maturity and value
// conservation. Script execution is *not* performed; instead the
// (input, locking script) pairs that still need verification are
// appended to jobs, tagged with txIdx, for a later — possibly parallel —
// script pass. Callers that want the seed's fused behavior run the
// returned jobs immediately.
func connectTxUTXO(utxo UTXOReader, tx *Tx, txIdx int, height, maturity int64, jobs []verifyJob) (fee uint64, outJobs []verifyJob, err error) {
	if err := CheckTxSanity(tx); err != nil {
		return 0, jobs, err
	}
	if tx.IsCoinbase() {
		return 0, jobs, nil
	}
	if tx.LockTime > height {
		return 0, jobs, fmt.Errorf("%w: lock time %d, height %d", ErrTxNotFinal, tx.LockTime, height)
	}
	var inValue, outValue uint64
	for i, in := range tx.Inputs {
		entry, ok := utxo.Get(in.Prev)
		if !ok {
			return 0, jobs, fmt.Errorf("%w: %s", ErrMissingUTXO, in.Prev)
		}
		if entry.Coinbase && height-entry.Height < maturity {
			return 0, jobs, fmt.Errorf("%w: %s at height %d, spend at %d",
				ErrImmatureSpend, in.Prev, entry.Height, height)
		}
		inValue += entry.Out.Value
		jobs = append(jobs, verifyJob{tx: tx, txIdx: txIdx, inputIdx: i, lock: entry.Out.Lock})
	}
	for _, out := range tx.Outputs {
		outValue += out.Value
	}
	if inValue < outValue {
		return 0, jobs, fmt.Errorf("%w: in %d, out %d", ErrInsufficientIn, inValue, outValue)
	}
	return inValue - outValue, jobs, nil
}

// ConnectTxVerified validates tx against the UTXO view at the given
// height and returns the fee it pays: the UTXO accounting pass runs
// sequentially, then, when verifyScripts is set, the script pass runs
// through v (worker pool + signature cache).
func ConnectTxVerified(utxo UTXOReader, tx *Tx, height, maturity int64, verifyScripts bool, v *Verifier) (fee uint64, err error) {
	fee, jobs, err := connectTxUTXO(utxo, tx, 0, height, maturity, nil)
	if err != nil {
		return 0, err
	}
	if !verifyScripts {
		return fee, nil
	}
	if err := v.verifyJobs(jobs); err != nil {
		// Single-transaction callers expect the bare input error, not
		// the block-position wrapper.
		return 0, errors.Unwrap(err)
	}
	return fee, nil
}

// connectBlock validates b and applies it to utxo without journaling —
// the reference CheckConsistency re-applies blocks through, independent
// of the undo machinery the live chain connects with. The caller has
// already validated the header linkage.
//
// Validation is two-pass: a sequential UTXO-accounting sweep over the
// block (order-dependent — outputs created by tx i are spendable by tx
// i+1, and a second spend of one output finds it gone) collects every
// script pair to check, then the verifier fans the accumulated jobs out
// across cores. Script execution never touches the UTXO set, so the
// split preserves accept/reject decisions exactly.
func connectBlock(utxo *UTXOSet, b *Block, params Params, v *Verifier) error {
	if err := checkBlockStateless(b, params); err != nil {
		return err
	}
	var fees uint64
	var jobs []verifyJob
	for i, tx := range b.Txs {
		var fee uint64
		var err error
		fee, jobs, err = connectTxUTXO(utxo, tx, i, b.Header.Height, params.CoinbaseMaturity, jobs)
		if err != nil {
			return fmt.Errorf("tx %d (%s): %w", i, tx.ID(), err)
		}
		fees += fee
		if err := utxo.ApplyTx(tx, b.Header.Height); err != nil {
			return fmt.Errorf("tx %d (%s): %w", i, tx.ID(), err)
		}
	}
	var coinbaseOut uint64
	for _, out := range b.Txs[0].Outputs {
		coinbaseOut += out.Value
	}
	if coinbaseOut > params.CoinbaseReward+fees {
		return fmt.Errorf("%w: pays %d, allowed %d", ErrExcessSubsidy, coinbaseOut, params.CoinbaseReward+fees)
	}
	if params.VerifyScripts {
		if err := v.verifyJobs(jobs); err != nil {
			return err
		}
	}
	return nil
}

// checkBlockStateless runs every block rule that needs no UTXO view:
// shape, coinbase placement, transaction limit, merkle root. These run
// for every arriving block, including side-branch blocks whose full
// validation is deferred until their branch takes the lead.
func checkBlockStateless(b *Block, params Params) error {
	if len(b.Txs) == 0 {
		return ErrNoTxs
	}
	if len(b.Txs) > params.MaxBlockTxs {
		return ErrTooManyBlockTxs
	}
	if !b.Txs[0].IsCoinbase() {
		return ErrBadCoinbase
	}
	for i, tx := range b.Txs[1:] {
		if tx.IsCoinbase() {
			return ErrBadCoinbase
		}
		if err := CheckTxSanity(tx); err != nil {
			return fmt.Errorf("tx %d (%s): %w", i+1, tx.ID(), err)
		}
	}
	if MerkleRoot(b.Txs) != b.Header.MerkleRoot {
		return ErrBadMerkleRoot
	}
	return nil
}

// connectBlockUndo is the incremental counterpart of connectBlock: it
// validates the block against — and applies it directly to — the live
// UTXO set, journaling every mutation. On any failure (UTXO accounting
// or script verification) the partial mutations are unwound through the
// journal before returning, so the set is exactly as it was. On success
// the returned journal lets a reorganization disconnect the block in
// O(block txs).
func connectBlockUndo(utxo *UTXOSet, b *Block, params Params, v *Verifier) (*BlockUndo, error) {
	if err := checkBlockStateless(b, params); err != nil {
		return nil, err
	}
	undo := &BlockUndo{Txs: make([]*TxUndo, 0, len(b.Txs))}
	rollback := func() {
		for i := len(undo.Txs) - 1; i >= 0; i-- {
			// Undoing a journal we just recorded cannot fail unless the
			// set was corrupted concurrently; the chain lock excludes
			// that.
			if err := utxo.UndoTx(undo.Txs[i]); err != nil {
				panic(fmt.Sprintf("chain: rollback failed: %v", err))
			}
		}
	}
	var fees uint64
	var jobs []verifyJob
	for i, tx := range b.Txs {
		var fee uint64
		var err error
		fee, jobs, err = connectTxUTXO(utxo, tx, i, b.Header.Height, params.CoinbaseMaturity, jobs)
		if err != nil {
			rollback()
			return nil, fmt.Errorf("tx %d (%s): %w", i, tx.ID(), err)
		}
		fees += fee
		// ApplyTxUndo re-checks input existence, which also catches
		// in-block double spends: the first spend removed the entry.
		txUndo, err := utxo.ApplyTxUndo(tx, b.Header.Height)
		if err != nil {
			rollback()
			return nil, fmt.Errorf("tx %d (%s): %w", i, tx.ID(), err)
		}
		undo.Txs = append(undo.Txs, txUndo)
	}
	var coinbaseOut uint64
	for _, out := range b.Txs[0].Outputs {
		coinbaseOut += out.Value
	}
	if coinbaseOut > params.CoinbaseReward+fees {
		rollback()
		return nil, fmt.Errorf("%w: pays %d, allowed %d", ErrExcessSubsidy, coinbaseOut, params.CoinbaseReward+fees)
	}
	if params.VerifyScripts {
		if err := v.verifyJobs(jobs); err != nil {
			rollback()
			return nil, err
		}
	}
	return undo, nil
}
