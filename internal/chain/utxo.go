package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"bcwan/internal/script"
)

// UTXOEntry is one unspent output plus the metadata validation needs.
type UTXOEntry struct {
	Out      TxOut
	Height   int64
	Coinbase bool
}

// UTXOSet is the set of unspent transaction outputs: one map plus an
// index over it, not safe for concurrent use on its own. The chain's
// live set is guarded by Chain.mu — every mutation runs under the write
// lock, every read (including ReadState callbacks) under the read lock;
// any other set is a private copy owned by whoever cloned or
// deserialized it.
type UTXOSet struct {
	entries map[OutPoint]UTXOEntry
	// byHash holds the outpoints of the P2PKH entries, keyed by the
	// pubkey-hash they pay, so a wallet's coins are a lookup and not a
	// scan of the set. Every mutation of entries goes through put and
	// remove, which keep the two in step; a hash with no coins has no
	// key. Slices are unordered: removal swaps the last element in.
	byHash map[[script.HashLen]byte][]OutPoint
	// sum is the set's digest: the sum, mod 2^256, of the SHA-256 of
	// every entry's SerializeUTXO encoding (big-endian words). put and
	// remove keep it in step, so Digest costs O(1) where hashing the
	// serialized set costs O(set).
	sum [4]uint64
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
	return &UTXOSet{
		entries: make(map[OutPoint]UTXOEntry),
		byHash:  make(map[[script.HashLen]byte][]OutPoint),
	}
}

// put adds an entry the caller has checked is absent.
func (u *UTXOSet) put(op OutPoint, e UTXOEntry) {
	u.entries[op] = e
	u.addDigest(op, e, false)
	if h, err := script.ExtractP2PKHHash(e.Out.Lock); err == nil {
		u.byHash[h] = append(u.byHash[h], op)
	}
}

// remove deletes the entry e the caller found at op. The index slice is
// searched from its end, where the outpoints a disconnect removes (the
// most recently created) sit; the cost is bounded by the coins of one
// pubkey-hash, not by the set.
func (u *UTXOSet) remove(op OutPoint, e UTXOEntry) {
	delete(u.entries, op)
	u.addDigest(op, e, true)
	h, err := script.ExtractP2PKHHash(e.Out.Lock)
	if err != nil {
		return
	}
	ops := u.byHash[h]
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i] == op {
			ops[i] = ops[len(ops)-1]
			ops = ops[:len(ops)-1]
			break
		}
	}
	if len(ops) == 0 {
		delete(u.byHash, h)
	} else {
		u.byHash[h] = ops
	}
}

// addDigest adds one entry's hash to sum, or subtracts it for a removal.
func (u *UTXOSet) addDigest(op OutPoint, e UTXOEntry, remove bool) {
	var buf [256]byte
	h := sha256.Sum256(appendEntry(buf[:0], op, e))
	var carry uint64
	for i := len(u.sum) - 1; i >= 0; i-- {
		w := binary.BigEndian.Uint64(h[8*i:])
		if remove {
			u.sum[i], carry = bits.Sub64(u.sum[i], w, carry)
		} else {
			u.sum[i], carry = bits.Add64(u.sum[i], w, carry)
		}
	}
}

// Digest returns the set's order-free digest, kept current by every
// mutation: two sets with the same entries have the same digest.
func (u *UTXOSet) Digest() Hash {
	var d Hash
	for i, w := range u.sum {
		binary.BigEndian.PutUint64(d[8*i:], w)
	}
	return d
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
	out := &UTXOSet{
		entries: make(map[OutPoint]UTXOEntry, len(u.entries)),
		byHash:  make(map[[script.HashLen]byte][]OutPoint, len(u.byHash)),
		sum:     u.sum,
	}
	for k, v := range u.entries {
		out.entries[k] = v
	}
	for h, ops := range u.byHash {
		out.byHash[h] = append([]OutPoint(nil), ops...)
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
			e, ok := u.entries[in.Prev]
			if !ok {
				return fmt.Errorf("%w: %s", ErrMissingUTXO, in.Prev)
			}
			u.remove(in.Prev, e)
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
		u.put(op, UTXOEntry{Out: out, Height: height, Coinbase: tx.IsCoinbase()})
	}
	return nil
}

// FindByPubKeyHash returns the outpoints of all P2PKH outputs paying the
// given hash — the wallet's coin selection source — in no particular
// order. It is a lookup in the pubkey-hash index; the slice is the
// caller's.
func (u *UTXOSet) FindByPubKeyHash(hash [script.HashLen]byte) []OutPoint {
	return append([]OutPoint(nil), u.byHash[hash]...)
}

// BalanceOf sums the P2PKH outputs paying the given hash.
func (u *UTXOSet) BalanceOf(hash [script.HashLen]byte) uint64 {
	var sum uint64
	for _, op := range u.byHash[hash] {
		sum += u.entries[op].Out.Value
	}
	return sum
}

// checkIndex verifies the pubkey-hash index against a full scan of the
// entries: every indexed outpoint is a live P2PKH entry paying the hash
// it is filed under, none is filed twice, and none is missing.
func (u *UTXOSet) checkIndex() error {
	seen := make(map[OutPoint]struct{}, len(u.entries))
	for h, ops := range u.byHash {
		if len(ops) == 0 {
			return fmt.Errorf("pubkey-hash index keeps an empty slice for %x", h)
		}
		for _, op := range ops {
			e, ok := u.entries[op]
			if !ok {
				return fmt.Errorf("pubkey-hash index holds spent outpoint %s", op)
			}
			if got, err := script.ExtractP2PKHHash(e.Out.Lock); err != nil || got != h {
				return fmt.Errorf("pubkey-hash index files %s under %x", op, h)
			}
			if _, dup := seen[op]; dup {
				return fmt.Errorf("pubkey-hash index holds %s twice", op)
			}
			seen[op] = struct{}{}
		}
	}
	// The indexed outpoints are distinct live P2PKH entries, so the
	// index is complete exactly when it has as many as the scan finds.
	var p2pkh int
	for _, e := range u.entries {
		if _, err := script.ExtractP2PKHHash(e.Out.Lock); err == nil {
			p2pkh++
		}
	}
	if p2pkh != len(seen) {
		return fmt.Errorf("pubkey-hash index holds %d outpoints, a scan finds %d", len(seen), p2pkh)
	}
	return nil
}
