package chain

import (
	"bytes"
	"fmt"

	"bcwan/internal/script"
)

// Undo journals make chain state incremental: when a block connects,
// every UTXO mutation it performs is recorded so a reorganization can
// disconnect the losing branch in O(reorg depth) instead of replaying
// the winning branch from genesis. The journal is the exact inverse of
// ApplyTx — spent entries are restored with their original metadata,
// created outpoints are deleted — so disconnect(connect(S)) == S
// byte-for-byte, an invariant the property tests replay-check.

// SpentOutput is one input's consumed entry, with the metadata needed to
// restore it on disconnect.
type SpentOutput struct {
	Prev  OutPoint
	Entry UTXOEntry
}

// TxUndo records the UTXO mutations of one applied transaction: the
// entries its inputs consumed (empty for coinbases) and the outpoints
// its outputs created (OP_RETURN outputs never enter the set, so they
// never appear here).
type TxUndo struct {
	Spent   []SpentOutput
	Created []OutPoint
}

// BlockUndo is the per-block journal, one TxUndo per transaction in
// block order.
type BlockUndo struct {
	Txs []*TxUndo
}

// ApplyTxUndo is ApplyTx with journaling: it spends the transaction's
// inputs and creates its outputs, returning the undo record that
// UndoTx needs to reverse the mutation exactly. On error the set is
// left untouched.
func (u *UTXOSet) ApplyTxUndo(tx *Tx, height int64) (*TxUndo, error) {
	undo := &TxUndo{}
	// rollback reverts the part of this transaction already applied, so
	// a failed apply leaves no partial mutation.
	rollback := func() {
		for _, c := range undo.Created {
			u.remove(c, u.entries[c])
		}
		for _, s := range undo.Spent {
			u.put(s.Prev, s.Entry)
		}
	}
	if !tx.IsCoinbase() {
		undo.Spent = make([]SpentOutput, 0, len(tx.Inputs))
		for _, in := range tx.Inputs {
			e, ok := u.entries[in.Prev]
			if !ok {
				rollback()
				return nil, fmt.Errorf("%w: %s", ErrMissingUTXO, in.Prev)
			}
			u.remove(in.Prev, e)
			undo.Spent = append(undo.Spent, SpentOutput{Prev: in.Prev, Entry: e})
		}
	}
	id := tx.ID()
	for i, out := range tx.Outputs {
		if script.Classify(out.Lock) == script.ClassOpReturn {
			continue
		}
		op := OutPoint{TxID: id, Index: uint32(i)}
		if _, dup := u.entries[op]; dup {
			rollback()
			return nil, fmt.Errorf("%w: %s", ErrDuplicateUTXO, op)
		}
		u.put(op, UTXOEntry{Out: out, Height: height, Coinbase: tx.IsCoinbase()})
		undo.Created = append(undo.Created, op)
	}
	return undo, nil
}

// UndoTx reverses ApplyTxUndo: created outpoints are removed, spent
// entries restored. It fails (without partial mutation beyond the
// detected inconsistency) if the set does not reflect the apply being
// undone — which can only mean journal corruption.
func (u *UTXOSet) UndoTx(undo *TxUndo) error {
	for _, op := range undo.Created {
		e, ok := u.entries[op]
		if !ok {
			return fmt.Errorf("chain: undo: created outpoint %s missing", op)
		}
		u.remove(op, e)
	}
	for i := len(undo.Spent) - 1; i >= 0; i-- {
		s := undo.Spent[i]
		if _, dup := u.entries[s.Prev]; dup {
			return fmt.Errorf("chain: undo: spent outpoint %s already present", s.Prev)
		}
		u.put(s.Prev, s.Entry)
	}
	return nil
}

// UndoBlock reverses every transaction of a connected block, in reverse
// block order (a transaction's outputs may have been spent by a later
// transaction in the same block).
func (u *UTXOSet) UndoBlock(undo *BlockUndo) error {
	for i := len(undo.Txs) - 1; i >= 0; i-- {
		if err := u.UndoTx(undo.Txs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Equal reports whether two sets hold byte-identical entries and equal
// digests — the acceptance predicate of the undo-vs-replay cross-check,
// so every such check also proves the digest was kept in step.
func (u *UTXOSet) Equal(other *UTXOSet) bool {
	if len(u.entries) != len(other.entries) || u.sum != other.sum {
		return false
	}
	for op, e := range u.entries {
		oe, ok := other.entries[op]
		if !ok || e.Height != oe.Height || e.Coinbase != oe.Coinbase ||
			e.Out.Value != oe.Out.Value || !bytes.Equal(e.Out.Lock, oe.Out.Lock) {
			return false
		}
	}
	return true
}
