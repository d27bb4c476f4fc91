package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file implements BIP152-style compact block relay primitives: a
// freshly mined block crosses the wire as its header, a short id per
// transaction and the prefilled coinbase; receivers resolve the short
// ids against their mempool and round-trip getblocktxn/blocktxn for
// only the transactions they lack. The daemon owns the wire handling;
// this file owns encoding, reconstruction and the merkle cross-check.

// Compact block errors.
var (
	// ErrCompactMismatch reports a reconstruction whose transactions do
	// not hash to the header's merkle root (short-id collision picked
	// the wrong transaction, or the sender lied). The caller must fall
	// back to requesting the full block.
	ErrCompactMismatch = errors.New("chain: reconstructed block fails merkle check")
	// ErrCompactMalformed reports a structurally invalid compact block
	// or transaction-request encoding.
	ErrCompactMalformed = errors.New("chain: malformed compact block encoding")
)

// ShortTxID is the compact relay's abbreviated transaction id: the
// first 8 bytes of the txid, big-endian. 64 bits keep the collision
// probability across a mempool of thousands negligible, and any
// collision that does slip through is caught by the merkle check and
// downgraded to a full-block fetch.
func ShortTxID(id Hash) uint64 { return binary.BigEndian.Uint64(id[:8]) }

// PrefilledTx is a transaction shipped in full inside a compact block
// (or a blocktxn response), pinned to its absolute index in the block.
type PrefilledTx struct {
	Index uint32
	Tx    *Tx
}

// CompactBlock is the sketch of a block: the full header, a short id
// for every transaction the receiver is expected to already hold, and
// the handful shipped in full. ShortIDs are ordered by block position
// with the prefilled indexes skipped.
type CompactBlock struct {
	Header    Header
	ShortIDs  []uint64
	Prefilled []PrefilledTx
}

// NewCompactBlock sketches b, prefilling the coinbase (index 0) — the
// one transaction no receiver's mempool can hold.
func NewCompactBlock(b *Block) *CompactBlock {
	cb := &CompactBlock{Header: b.Header}
	if len(b.Txs) > 0 {
		cb.Prefilled = []PrefilledTx{{Index: 0, Tx: b.Txs[0]}}
		for _, tx := range b.Txs[1:] {
			cb.ShortIDs = append(cb.ShortIDs, ShortTxID(tx.ID()))
		}
	}
	return cb
}

// BlockID returns the hash of the block this sketch describes.
func (cb *CompactBlock) BlockID() Hash { return cb.Header.ID() }

// TxCount is the number of transactions in the sketched block.
func (cb *CompactBlock) TxCount() int { return len(cb.ShortIDs) + len(cb.Prefilled) }

// Reconstruct resolves the sketch against the receiver's transaction
// source. lookup returns every known transaction matching a short id —
// zero or several matches both count as missing, since guessing among
// collisions would only waste a merkle failure. On full resolution it
// returns the verified block. Otherwise it returns the partial
// transaction slice (nil at each unresolved index) and the sorted
// missing indexes for a getblocktxn request; the caller later completes
// via Assemble.
func (cb *CompactBlock) Reconstruct(lookup func(uint64) []*Tx) (*Block, []*Tx, []uint32, error) {
	total := cb.TxCount()
	txs := make([]*Tx, total)
	for _, p := range cb.Prefilled {
		if int(p.Index) >= total || p.Tx == nil || txs[p.Index] != nil {
			return nil, nil, nil, ErrCompactMalformed
		}
		txs[p.Index] = p.Tx
	}
	var missing []uint32
	si := 0
	for i := range txs {
		if txs[i] != nil {
			continue
		}
		if si >= len(cb.ShortIDs) {
			return nil, nil, nil, ErrCompactMalformed
		}
		if cands := lookup(cb.ShortIDs[si]); len(cands) == 1 {
			txs[i] = cands[0]
		} else {
			missing = append(missing, uint32(i))
		}
		si++
	}
	if len(missing) > 0 {
		return nil, txs, missing, nil
	}
	b, err := cb.finish(txs)
	return b, txs, nil, err
}

// Assemble completes a partial reconstruction with the transactions a
// blocktxn response shipped by absolute index, then runs the merkle
// check. Unfilled slots or a root mismatch surface as errors — the
// caller's next rung is the full block.
func (cb *CompactBlock) Assemble(partial []*Tx, fills []PrefilledTx) (*Block, error) {
	if len(partial) != cb.TxCount() {
		return nil, ErrCompactMalformed
	}
	txs := make([]*Tx, len(partial))
	copy(txs, partial)
	for _, f := range fills {
		if int(f.Index) >= len(txs) || f.Tx == nil {
			return nil, ErrCompactMalformed
		}
		txs[f.Index] = f.Tx
	}
	for _, tx := range txs {
		if tx == nil {
			return nil, ErrCompactMalformed
		}
	}
	return cb.finish(txs)
}

// finish cross-checks the candidate transaction list against the
// header's merkle commitment and assembles the block.
func (cb *CompactBlock) finish(txs []*Tx) (*Block, error) {
	if MerkleRoot(txs) != cb.Header.MerkleRoot {
		return nil, ErrCompactMismatch
	}
	return &Block{Header: cb.Header, Txs: txs}, nil
}

// Serialize encodes the compact block for the wire.
func (cb *CompactBlock) Serialize() []byte {
	n := cb.Header.serializedSize() + varIntLen(uint64(len(cb.ShortIDs))) + 8*len(cb.ShortIDs) + prefilledSize(cb.Prefilled)
	b := cb.Header.appendTo(make([]byte, 0, n))
	b = appendVarInt(b, uint64(len(cb.ShortIDs)))
	for _, s := range cb.ShortIDs {
		b = binary.BigEndian.AppendUint64(b, s)
	}
	return appendPrefilled(b, cb.Prefilled)
}

// DeserializeCompactBlock parses a Serialize encoding.
func DeserializeCompactBlock(data []byte) (*CompactBlock, error) {
	r := bytes.NewReader(data)
	var cb CompactBlock
	var err error
	if cb.Header, err = readHeader(r); err != nil {
		return nil, err
	}
	n, err := readVarInt(r)
	if err != nil {
		return nil, err
	}
	// Each short id takes 8 bytes: a count the frame cannot hold is a
	// lie, refused before it sizes an allocation.
	if n > 1_000_000 || n > uint64(r.Len())/8 {
		return nil, ErrCompactMalformed
	}
	cb.ShortIDs = make([]uint64, n)
	var sid [8]byte
	for i := range cb.ShortIDs {
		if _, err := io.ReadFull(r, sid[:]); err != nil {
			return nil, ErrCompactMalformed
		}
		cb.ShortIDs[i] = binary.BigEndian.Uint64(sid[:])
	}
	if cb.Prefilled, err = readPrefilled(r); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, ErrCompactMalformed
	}
	return &cb, nil
}

// EncodeGetBlockTxn frames a request for the block's transactions at
// the given absolute indexes.
func EncodeGetBlockTxn(blockID Hash, indexes []uint32) []byte {
	b := appendVarInt(append([]byte(nil), blockID[:]...), uint64(len(indexes)))
	for _, i := range indexes {
		b = appendVarInt(b, uint64(i))
	}
	return b
}

// DecodeGetBlockTxn parses an EncodeGetBlockTxn frame.
func DecodeGetBlockTxn(data []byte) (Hash, []uint32, error) {
	r := bytes.NewReader(data)
	var id Hash
	if _, err := io.ReadFull(r, id[:]); err != nil {
		return Hash{}, nil, ErrCompactMalformed
	}
	n, err := readVarInt(r)
	if err != nil || n > 1_000_000 || n > uint64(r.Len()) {
		return Hash{}, nil, ErrCompactMalformed
	}
	indexes := make([]uint32, n)
	for i := range indexes {
		v, err := readVarInt(r)
		if err != nil || v > 1_000_000 {
			return Hash{}, nil, ErrCompactMalformed
		}
		indexes[i] = uint32(v)
	}
	if r.Len() != 0 {
		return Hash{}, nil, ErrCompactMalformed
	}
	return id, indexes, nil
}

// EncodeBlockTxn frames the answer to a getblocktxn: the requested
// transactions in full, pinned to their indexes.
func EncodeBlockTxn(blockID Hash, txs []PrefilledTx) []byte {
	b := append(make([]byte, 0, len(blockID)+prefilledSize(txs)), blockID[:]...)
	return appendPrefilled(b, txs)
}

// DecodeBlockTxn parses an EncodeBlockTxn frame.
func DecodeBlockTxn(data []byte) (Hash, []PrefilledTx, error) {
	r := bytes.NewReader(data)
	var id Hash
	if _, err := io.ReadFull(r, id[:]); err != nil {
		return Hash{}, nil, ErrCompactMalformed
	}
	txs, err := readPrefilled(r)
	if err != nil {
		return Hash{}, nil, err
	}
	if r.Len() != 0 {
		return Hash{}, nil, ErrCompactMalformed
	}
	return id, txs, nil
}

// prefilledSize returns the length appendPrefilled adds.
func prefilledSize(txs []PrefilledTx) int {
	n := varIntLen(uint64(len(txs)))
	for _, p := range txs {
		n += varIntLen(uint64(p.Index)) + varBytesLen(p.Tx.memoized().raw)
	}
	return n
}

func appendPrefilled(b []byte, txs []PrefilledTx) []byte {
	b = appendVarInt(b, uint64(len(txs)))
	for _, p := range txs {
		b = appendVarInt(b, uint64(p.Index))
		b = appendVarBytes(b, p.Tx.memoized().raw)
	}
	return b
}

func readPrefilled(r *bytes.Reader) ([]PrefilledTx, error) {
	n, err := readVarInt(r)
	if err != nil || n > 1_000_000 || n > uint64(r.Len())/2 {
		return nil, ErrCompactMalformed
	}
	out := make([]PrefilledTx, n)
	for i := range out {
		idx, err := readVarInt(r)
		if err != nil || idx > 1_000_000 {
			return nil, ErrCompactMalformed
		}
		raw, err := readVarBytes(r, maxTxSize)
		if err != nil {
			return nil, ErrCompactMalformed
		}
		tx, err := DeserializeTx(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: prefilled tx %d: %v", ErrCompactMalformed, i, err)
		}
		out[i] = PrefilledTx{Index: uint32(idx), Tx: tx}
	}
	return out, nil
}
