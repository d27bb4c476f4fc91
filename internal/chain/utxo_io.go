package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// UTXO set serialization, used by snapshot commitments and transfer and
// by the daemon store's base state. The encoding is deterministic
// (entries sorted by outpoint) so identical sets produce identical bytes,
// and a commitment's hash pins one set. Each entry's encoding is also
// what the set's digest (UTXOSet.Digest) hashes.

// ErrBadUTXOData reports an unreadable serialized UTXO set.
var ErrBadUTXOData = errors.New("chain: malformed serialized UTXO set")

// outpointLess is the canonical serialization order: big-endian
// lexicographic TxID, then output index.
func outpointLess(a, b OutPoint) bool {
	if c := bytes.Compare(a.TxID[:], b.TxID[:]); c != 0 {
		return c < 0
	}
	return a.Index < b.Index
}

// SerializeUTXO encodes the set deterministically: an entry count
// followed by entries in outpoint order.
func (u *UTXOSet) SerializeUTXO() []byte {
	ops := make([]OutPoint, 0, len(u.entries))
	for op := range u.entries {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(a, b int) bool { return outpointLess(ops[a], ops[b]) })

	// Sized for a P2PKH set: 61 fixed bytes plus a 25-byte lock per entry.
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, 4+86*len(ops)), uint32(len(ops)))
	for _, op := range ops {
		buf = appendEntry(buf, op, u.entries[op])
	}
	return buf
}

// appendEntry appends one entry's encoding: outpoint, height, coinbase
// flag, value, and the length-prefixed lock script.
func appendEntry(dst []byte, op OutPoint, e UTXOEntry) []byte {
	dst = append(dst, op.TxID[:]...)
	dst = binary.BigEndian.AppendUint32(dst, op.Index)
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.Height))
	var coinbase byte
	if e.Coinbase {
		coinbase = 1
	}
	dst = append(dst, coinbase)
	dst = binary.BigEndian.AppendUint64(dst, e.Out.Value)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Out.Lock)))
	return append(dst, e.Out.Lock...)
}

// DeserializeUTXO decodes a set produced by SerializeUTXO, reading from
// r and leaving any trailing bytes unconsumed.
func DeserializeUTXO(r io.Reader) (*UTXOSet, error) {
	var scratch [8]byte
	if _, err := io.ReadFull(r, scratch[:4]); err != nil {
		return nil, fmt.Errorf("%w: count: %v", ErrBadUTXOData, err)
	}
	count := binary.BigEndian.Uint32(scratch[:4])
	u := NewUTXOSet()
	for i := uint32(0); i < count; i++ {
		var op OutPoint
		if _, err := io.ReadFull(r, op.TxID[:]); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrBadUTXOData, i, err)
		}
		if _, err := io.ReadFull(r, scratch[:4]); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrBadUTXOData, i, err)
		}
		op.Index = binary.BigEndian.Uint32(scratch[:4])
		var e UTXOEntry
		if _, err := io.ReadFull(r, scratch[:]); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrBadUTXOData, i, err)
		}
		e.Height = int64(binary.BigEndian.Uint64(scratch[:]))
		if _, err := io.ReadFull(r, scratch[:1]); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrBadUTXOData, i, err)
		}
		e.Coinbase = scratch[0] == 1
		if _, err := io.ReadFull(r, scratch[:]); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrBadUTXOData, i, err)
		}
		e.Out.Value = binary.BigEndian.Uint64(scratch[:])
		if _, err := io.ReadFull(r, scratch[:4]); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrBadUTXOData, i, err)
		}
		lockLen := binary.BigEndian.Uint32(scratch[:4])
		if lockLen > maxTxSize {
			return nil, fmt.Errorf("%w: entry %d: lock of %d bytes", ErrBadUTXOData, i, lockLen)
		}
		if lockLen > 0 {
			e.Out.Lock = make([]byte, lockLen)
			if _, err := io.ReadFull(r, e.Out.Lock); err != nil {
				return nil, fmt.Errorf("%w: entry %d: %v", ErrBadUTXOData, i, err)
			}
		}
		if _, dup := u.entries[op]; dup {
			return nil, fmt.Errorf("%w: duplicate outpoint %s", ErrBadUTXOData, op)
		}
		u.put(op, e)
	}
	return u, nil
}
