package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// UTXO set serialization, used by the daemon's snapshot store. The
// encoding is deterministic (entries sorted by outpoint) so identical
// sets produce identical bytes — which lets the restore path cross-check
// the replayed chain state against the snapshot with a plain compare.

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

	var buf bytes.Buffer
	var scratch [8]byte
	binary.BigEndian.PutUint32(scratch[:4], uint32(len(ops)))
	buf.Write(scratch[:4])
	for _, op := range ops {
		e := u.entries[op]
		buf.Write(op.TxID[:])
		binary.BigEndian.PutUint32(scratch[:4], op.Index)
		buf.Write(scratch[:4])
		binary.BigEndian.PutUint64(scratch[:], uint64(e.Height))
		buf.Write(scratch[:])
		if e.Coinbase {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
		binary.BigEndian.PutUint64(scratch[:], e.Out.Value)
		buf.Write(scratch[:])
		binary.BigEndian.PutUint32(scratch[:4], uint32(len(e.Out.Lock)))
		buf.Write(scratch[:4])
		buf.Write(e.Out.Lock)
	}
	return buf.Bytes()
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
