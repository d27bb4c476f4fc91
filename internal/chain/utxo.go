package chain

import (
	"errors"
	"fmt"

	"bcwan/internal/script"
)

// UTXOEntry is one unspent output plus the metadata validation needs.
type UTXOEntry struct {
	Out      TxOut
	Height   int64
	Coinbase bool
}

// UTXOSet is the set of unspent transaction outputs: one map, not safe
// for concurrent use on its own. The chain's live set is guarded by
// Chain.mu — every mutation runs under the write lock, every read
// (including ReadState callbacks) under the read lock; any other set is
// a private copy owned by whoever cloned or deserialized it.
type UTXOSet struct {
	entries map[OutPoint]UTXOEntry
}

// UTXO errors.
var (
	// ErrMissingUTXO reports a spend of an unknown or already spent
	// output.
	ErrMissingUTXO = errors.New("chain: referenced output missing or spent")
	// ErrDuplicateUTXO reports re-creation of an existing outpoint.
	ErrDuplicateUTXO = errors.New("chain: duplicate outpoint")
)

// NewUTXOSet returns an empty set.
func NewUTXOSet() *UTXOSet {
	return &UTXOSet{entries: make(map[OutPoint]UTXOEntry)}
}

// Get looks up an entry.
func (u *UTXOSet) Get(op OutPoint) (UTXOEntry, bool) {
	e, ok := u.entries[op]
	return e, ok
}

// Len reports the number of unspent outputs.
func (u *UTXOSet) Len() int { return len(u.entries) }

// TotalValue sums all unspent output values — conserved modulo coinbase
// subsidies and fees, an invariant the tests assert.
func (u *UTXOSet) TotalValue() uint64 {
	var sum uint64
	for _, e := range u.entries {
		sum += e.Out.Value
	}
	return sum
}

// Clone deep-copies the set (scripts are immutable and shared).
func (u *UTXOSet) Clone() *UTXOSet {
	out := &UTXOSet{entries: make(map[OutPoint]UTXOEntry, len(u.entries))}
	for k, v := range u.entries {
		out.entries[k] = v
	}
	return out
}

// ApplyTx spends the transaction's inputs and creates its outputs.
// OP_RETURN outputs are never added to the set (they are unspendable).
// On error the set may be left with a prefix of the mutation applied;
// callers that need rollback use ApplyTxUndo.
func (u *UTXOSet) ApplyTx(tx *Tx, height int64) error {
	if !tx.IsCoinbase() {
		for _, in := range tx.Inputs {
			if _, ok := u.entries[in.Prev]; !ok {
				return fmt.Errorf("%w: %s", ErrMissingUTXO, in.Prev)
			}
			delete(u.entries, in.Prev)
		}
	}
	id := tx.ID()
	for i, out := range tx.Outputs {
		if script.Classify(out.Lock) == script.ClassOpReturn {
			continue
		}
		op := OutPoint{TxID: id, Index: uint32(i)}
		if _, ok := u.entries[op]; ok {
			return fmt.Errorf("%w: %s", ErrDuplicateUTXO, op)
		}
		u.entries[op] = UTXOEntry{Out: out, Height: height, Coinbase: tx.IsCoinbase()}
	}
	return nil
}

// FindByPubKeyHash returns the outpoints of all P2PKH outputs paying the
// given hash — the wallet's coin selection source.
func (u *UTXOSet) FindByPubKeyHash(hash [script.HashLen]byte) []OutPoint {
	var out []OutPoint
	for op, e := range u.entries {
		h, err := script.ExtractP2PKHHash(e.Out.Lock)
		if err == nil && h == hash {
			out = append(out, op)
		}
	}
	return out
}

// BalanceOf sums the P2PKH outputs paying the given hash.
func (u *UTXOSet) BalanceOf(hash [script.HashLen]byte) uint64 {
	var sum uint64
	for _, op := range u.FindByPubKeyHash(hash) {
		if e, ok := u.Get(op); ok {
			sum += e.Out.Value
		}
	}
	return sum
}
