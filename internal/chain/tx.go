package chain

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"bcwan/internal/bccrypto"
	"bcwan/internal/script"
)

// Hash identifies transactions and blocks (double SHA-256 of their
// serialization).
type Hash [32]byte

// String renders the hash in hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether the hash is all zeros.
func (h Hash) IsZero() bool { return h == Hash{} }

// HashFromString parses a hex hash.
func HashFromString(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("chain: bad hash hex: %w", err)
	}
	if len(b) != len(h) {
		return h, fmt.Errorf("chain: hash length %d, want %d", len(b), len(h))
	}
	copy(h[:], b)
	return h, nil
}

// OutPoint references a transaction output.
type OutPoint struct {
	TxID  Hash
	Index uint32
}

// String renders the outpoint as txid:index.
func (o OutPoint) String() string { return fmt.Sprintf("%s:%d", o.TxID, o.Index) }

// TxIn spends a previous output.
type TxIn struct {
	Prev   OutPoint
	Unlock script.Script
}

// TxOut creates a new spendable (or OP_RETURN data) output.
type TxOut struct {
	Value uint64
	Lock  script.Script
}

// Tx is a transaction. LockTime, when nonzero, is the earliest block
// height at which the transaction may be mined (BIP-65 semantics, used by
// the fair-exchange refund path).
//
// Serialization and the transaction ID are memoized on first use: a Tx
// must not be mutated after the first call to Serialize, SerializedSize
// or ID. Construction code (wallet signing, deserialization) finishes
// all field writes before anything hashes the transaction, so the
// contract holds everywhere a Tx crosses a validation boundary.
type Tx struct {
	Version  int32
	Inputs   []TxIn
	Outputs  []TxOut
	LockTime int64

	// memo caches the canonical serialization and ID. Lock-free: a
	// racing first computation produces identical bytes, so whichever
	// pointer wins the swap is correct.
	memo atomic.Pointer[txMemo]
}

// txMemo holds the lazily computed serialization and ID.
type txMemo struct {
	raw []byte
	id  Hash
}

// memoized returns the cached serialization/ID, computing it on first
// call.
func (tx *Tx) memoized() *txMemo {
	if m := tx.memo.Load(); m != nil {
		return m
	}
	raw := tx.encode()
	m := &txMemo{raw: raw, id: Hash(bccrypto.DoubleSHA256(raw))}
	tx.memo.Store(m)
	return m
}

// Serialization limits.
const (
	maxTxSize   = 100_000
	maxScriptIO = script.MaxScriptSize
)

// Serialization errors.
var (
	ErrTxTooLarge  = errors.New("chain: transaction too large")
	ErrTxTruncated = errors.New("chain: truncated transaction encoding")
)

// Serialize encodes the transaction in the canonical binary form its ID is
// computed over. The encoding is memoized; the returned slice is a copy
// the caller may retain or modify.
func (tx *Tx) Serialize() []byte {
	raw := tx.memoized().raw
	out := make([]byte, len(raw))
	copy(out, raw)
	return out
}

// SerializedSize returns the canonical encoding length without copying.
func (tx *Tx) SerializedSize() int { return len(tx.memoized().raw) }

// encode performs the actual canonical encoding into one slice of
// exactly its length.
func (tx *Tx) encode() []byte {
	return tx.appendEncoding(make([]byte, 0, tx.encodedSize(nil)), nil)
}

// sigInput turns a transaction encoding into the body of a signature
// preimage: every unlocking script is cleared and the signed input's
// slot carries the previous output's locking script. A nil *sigInput
// leaves each input's own unlocking script in place (the canonical
// encoding).
type sigInput struct {
	index    int
	prevLock script.Script
}

// unlock returns what input i contributes as its unlocking script.
func (s *sigInput) unlock(i int, own script.Script) script.Script {
	switch {
	case s == nil:
		return own
	case i == s.index:
		return s.prevLock
	default:
		return nil
	}
}

// encodedSize returns the length appendEncoding adds.
func (tx *Tx) encodedSize(sig *sigInput) int {
	n := 8 + varIntLen(uint64(len(tx.Inputs))) + varIntLen(uint64(len(tx.Outputs))) + 8
	for i, in := range tx.Inputs {
		n += len(in.Prev.TxID) + 4 + varBytesLen(sig.unlock(i, in.Unlock))
	}
	for _, out := range tx.Outputs {
		n += 8 + varBytesLen(out.Lock)
	}
	return n
}

// appendEncoding appends the transaction's encoding to b.
func (tx *Tx) appendEncoding(b []byte, sig *sigInput) []byte {
	b = appendInt64(b, int64(tx.Version))
	b = appendVarInt(b, uint64(len(tx.Inputs)))
	for i, in := range tx.Inputs {
		b = append(b, in.Prev.TxID[:]...)
		b = binary.LittleEndian.AppendUint32(b, in.Prev.Index)
		b = appendVarBytes(b, sig.unlock(i, in.Unlock))
	}
	b = appendVarInt(b, uint64(len(tx.Outputs)))
	for _, out := range tx.Outputs {
		b = binary.LittleEndian.AppendUint64(b, out.Value)
		b = appendVarBytes(b, out.Lock)
	}
	return appendInt64(b, tx.LockTime)
}

// DeserializeTx parses a transaction produced by Serialize.
func DeserializeTx(data []byte) (*Tx, error) {
	if len(data) > maxTxSize {
		return nil, ErrTxTooLarge
	}
	r := bytes.NewReader(data)
	tx, err := readTx(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("chain: %d trailing bytes after transaction", r.Len())
	}
	return tx, nil
}

func readTx(r *bytes.Reader) (*Tx, error) {
	var tx Tx
	v, err := readInt64(r)
	if err != nil {
		return nil, err
	}
	tx.Version = int32(v)
	nIn, err := readVarInt(r)
	if err != nil {
		return nil, err
	}
	if nIn > 10_000 {
		return nil, ErrTxTooLarge
	}
	if nIn > uint64(r.Len()) {
		return nil, ErrTxTruncated
	}
	tx.Inputs = make([]TxIn, nIn)
	for i := range tx.Inputs {
		if _, err := io.ReadFull(r, tx.Inputs[i].Prev.TxID[:]); err != nil {
			return nil, ErrTxTruncated
		}
		idx, err := readUint32(r)
		if err != nil {
			return nil, err
		}
		tx.Inputs[i].Prev.Index = idx
		unlock, err := readVarBytes(r, maxScriptIO)
		if err != nil {
			return nil, err
		}
		tx.Inputs[i].Unlock = unlock
	}
	nOut, err := readVarInt(r)
	if err != nil {
		return nil, err
	}
	if nOut > 10_000 {
		return nil, ErrTxTooLarge
	}
	if nOut > uint64(r.Len()) {
		return nil, ErrTxTruncated
	}
	tx.Outputs = make([]TxOut, nOut)
	for i := range tx.Outputs {
		val, err := readUint64(r)
		if err != nil {
			return nil, err
		}
		tx.Outputs[i].Value = val
		lock, err := readVarBytes(r, maxScriptIO)
		if err != nil {
			return nil, err
		}
		tx.Outputs[i].Lock = lock
	}
	lt, err := readInt64(r)
	if err != nil {
		return nil, err
	}
	tx.LockTime = lt
	return &tx, nil
}

// ID returns the transaction hash. The hash is memoized; see the Tx
// immutability contract.
func (tx *Tx) ID() Hash {
	return tx.memoized().id
}

// IsCoinbase reports whether the transaction is a block subsidy: a single
// input with a zero previous outpoint.
func (tx *Tx) IsCoinbase() bool {
	return len(tx.Inputs) == 1 &&
		tx.Inputs[0].Prev.TxID.IsZero() &&
		tx.Inputs[0].Prev.Index == coinbaseIndex
}

const coinbaseIndex = 0xffffffff

// sigHashBuf is the preimage SigHash builds on the stack: every
// exchange and channel transaction fits, a larger one gets a heap slice
// of its exact size.
const sigHashBuf = 1024

// SigHash computes the digest an input's signature commits to
// (SIGHASH_ALL): the transaction with every unlocking script cleared and
// the signed input's slot replaced by the previous output's locking
// script, plus the input index.
func (tx *Tx) SigHash(inputIndex int, prevLock script.Script) Hash {
	sig := &sigInput{index: inputIndex, prevLock: prevLock}
	var buf [sigHashBuf]byte
	preimage := buf[:0]
	if n := tx.encodedSize(sig) + 4; n > len(buf) {
		preimage = make([]byte, 0, n)
	}
	preimage = tx.appendEncoding(preimage, sig)
	preimage = binary.LittleEndian.AppendUint32(preimage, uint32(inputIndex))
	return Hash(bccrypto.DoubleSHA256(preimage))
}

// sigContext adapts a (tx, input) pair to script.Context.
type sigContext struct {
	tx       *Tx
	input    int
	prevLock script.Script
}

var _ script.Context = sigContext{}

// CheckSig implements script.Context.
func (c sigContext) CheckSig(sig, pubKey []byte) bool {
	digest := c.tx.SigHash(c.input, c.prevLock)
	return bccrypto.VerifyECDigest(pubKey, digest[:], sig)
}

// LockTime implements script.Context.
func (c sigContext) LockTime() int64 { return c.tx.LockTime }

// VerifyInput runs the script pair for one input.
func (tx *Tx) VerifyInput(inputIndex int, prevLock script.Script) error {
	if inputIndex < 0 || inputIndex >= len(tx.Inputs) {
		return fmt.Errorf("chain: input index %d out of range", inputIndex)
	}
	ctx := sigContext{tx: tx, input: inputIndex, prevLock: prevLock}
	if err := script.Verify(tx.Inputs[inputIndex].Unlock, prevLock, ctx); err != nil {
		return fmt.Errorf("input %d: %w", inputIndex, err)
	}
	return nil
}

// Binary encoding helpers (little-endian fixed ints, Bitcoin-style
// varints).

func appendInt64(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendVarInt(b []byte, v uint64) []byte {
	switch {
	case v < 0xfd:
		return append(b, byte(v))
	case v <= 0xffff:
		return binary.LittleEndian.AppendUint16(append(b, 0xfd), uint16(v))
	case v <= 0xffffffff:
		return binary.LittleEndian.AppendUint32(append(b, 0xfe), uint32(v))
	default:
		return binary.LittleEndian.AppendUint64(append(b, 0xff), v)
	}
}

// varIntLen returns the length appendVarInt adds for v.
func varIntLen(v uint64) int {
	switch {
	case v < 0xfd:
		return 1
	case v <= 0xffff:
		return 3
	case v <= 0xffffffff:
		return 5
	default:
		return 9
	}
}

func appendVarBytes(b, p []byte) []byte { return append(appendVarInt(b, uint64(len(p))), p...) }

// varBytesLen returns the length appendVarBytes adds for p.
func varBytesLen(p []byte) int { return varIntLen(uint64(len(p))) + len(p) }

func readUint32(r *bytes.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, ErrTxTruncated
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readUint64(r *bytes.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, ErrTxTruncated
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func readInt64(r *bytes.Reader) (int64, error) {
	v, err := readUint64(r)
	return int64(v), err
}

func readVarInt(r *bytes.Reader) (uint64, error) {
	first, err := r.ReadByte()
	if err != nil {
		return 0, ErrTxTruncated
	}
	switch first {
	case 0xfd:
		var b [2]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, ErrTxTruncated
		}
		return uint64(binary.LittleEndian.Uint16(b[:])), nil
	case 0xfe:
		v, err := readUint32(r)
		return uint64(v), err
	case 0xff:
		return readUint64(r)
	default:
		return uint64(first), nil
	}
}

func readVarBytes(r *bytes.Reader, maxLen int) ([]byte, error) {
	n, err := readVarInt(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(maxLen) {
		return nil, fmt.Errorf("chain: var bytes length %d exceeds %d", n, maxLen)
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(r.Len()) {
		return nil, ErrTxTruncated
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, ErrTxTruncated
	}
	return out, nil
}
