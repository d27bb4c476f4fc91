package chain

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"bcwan/internal/bccrypto"
)

// Header is a block header. Blocks are minted by authorized miners
// (Multichain-style proof of authority rather than proof of work — the
// paper's PoC runs a single EC2 master miner with mining disabled on the
// PlanetLab gateways, and §6 argues PoW is unsuitable at the edge).
type Header struct {
	Version    int32
	PrevBlock  Hash
	MerkleRoot Hash
	// Time is the miner's wall-clock timestamp (unix nanoseconds, so
	// simulated clocks keep full resolution).
	Time int64
	// Height is the block's chain height; genesis is 0.
	Height int64
	// MinerPubKey identifies the authorized miner.
	MinerPubKey []byte
	// Signature is the miner's ECDSA signature over the header digest.
	Signature []byte
}

// Block is a header plus its transactions (the first must be coinbase).
type Block struct {
	Header Header
	Txs    []*Tx
}

// Block errors.
var (
	ErrBlockTruncated = errors.New("chain: truncated block encoding")
	ErrNoTxs          = errors.New("chain: block has no transactions")
)

// headerBuf is the stack buffer digest and ID encode into: a header with
// a P-256 miner key and signature takes 227 bytes, and a longer one
// grows past the buffer by append. Neither is memoized — Sign and
// callers write the exported fields after construction.
const headerBuf = 256

// digest returns the header digest the miner signs (every field except the
// signature itself).
func (h *Header) digest() Hash {
	var buf [headerBuf]byte
	return Hash(bccrypto.DoubleSHA256(h.appendUnsigned(buf[:0])))
}

// ID returns the block hash: the double SHA-256 of the full serialized
// header including the miner signature. The compact relay uses it to
// key a sketch to its block without shipping the body.
func (h *Header) ID() Hash {
	var buf [headerBuf]byte
	return Hash(bccrypto.DoubleSHA256(h.appendTo(buf[:0])))
}

// ID returns the block hash.
func (b *Block) ID() Hash { return b.Header.ID() }

// Sign signs the header with the miner key.
func (h *Header) Sign(key *bccrypto.ECKey, random io.Reader) error {
	h.MinerPubKey = key.PublicBytes()
	digest := h.digest()
	sig, err := key.SignDigest(random, digest[:])
	if err != nil {
		return fmt.Errorf("sign header: %w", err)
	}
	h.Signature = sig
	return nil
}

// VerifySignature checks the miner signature.
func (h *Header) VerifySignature() bool {
	digest := h.digest()
	return bccrypto.VerifyECDigest(h.MinerPubKey, digest[:], h.Signature)
}

// MerkleRoot computes the Merkle tree root of the transaction IDs, with
// Bitcoin's duplicate-last rule for odd levels.
func MerkleRoot(txs []*Tx) Hash {
	if len(txs) == 0 {
		return Hash{}
	}
	level := make([]Hash, len(txs))
	for i, tx := range txs {
		level[i] = tx.ID()
	}
	for len(level) > 1 {
		if len(level)%2 == 1 {
			level = append(level, level[len(level)-1])
		}
		next := make([]Hash, len(level)/2)
		for i := range next {
			var buf [64]byte
			copy(buf[:32], level[2*i][:])
			copy(buf[32:], level[2*i+1][:])
			next[i] = Hash(bccrypto.DoubleSHA256(buf[:]))
		}
		level = next
	}
	return level[0]
}

// serializedSize returns the length of the header's encoding.
func (h *Header) serializedSize() int {
	return 8 + len(h.PrevBlock) + len(h.MerkleRoot) + 8 + 8 + varBytesLen(h.MinerPubKey) + varBytesLen(h.Signature)
}

// appendUnsigned appends every header field but the signature: the
// digest the miner signs.
func (h *Header) appendUnsigned(b []byte) []byte {
	b = appendInt64(b, int64(h.Version))
	b = append(b, h.PrevBlock[:]...)
	b = append(b, h.MerkleRoot[:]...)
	b = appendInt64(b, h.Time)
	b = appendInt64(b, h.Height)
	return appendVarBytes(b, h.MinerPubKey)
}

// appendTo appends the header's encoding.
func (h *Header) appendTo(b []byte) []byte {
	return appendVarBytes(h.appendUnsigned(b), h.Signature)
}

// Serialize encodes the block into one slice of exactly its length.
func (b *Block) Serialize() []byte {
	n := b.Header.serializedSize() + varIntLen(uint64(len(b.Txs)))
	for _, tx := range b.Txs {
		n += varBytesLen(tx.memoized().raw)
	}
	out := b.Header.appendTo(make([]byte, 0, n))
	out = appendVarInt(out, uint64(len(b.Txs)))
	for _, tx := range b.Txs {
		out = appendVarBytes(out, tx.memoized().raw)
	}
	return out
}

// readHeader parses a serialized header from r; shared by the full
// block and compact block decoders.
func readHeader(r *bytes.Reader) (Header, error) {
	var h Header
	v, err := readInt64(r)
	if err != nil {
		return Header{}, err
	}
	h.Version = int32(v)
	if _, err := io.ReadFull(r, h.PrevBlock[:]); err != nil {
		return Header{}, ErrBlockTruncated
	}
	if _, err := io.ReadFull(r, h.MerkleRoot[:]); err != nil {
		return Header{}, ErrBlockTruncated
	}
	if h.Time, err = readInt64(r); err != nil {
		return Header{}, err
	}
	if h.Height, err = readInt64(r); err != nil {
		return Header{}, err
	}
	if h.MinerPubKey, err = readVarBytes(r, 1024); err != nil {
		return Header{}, err
	}
	if h.Signature, err = readVarBytes(r, 1024); err != nil {
		return Header{}, err
	}
	return h, nil
}

// DeserializeBlock parses a block produced by Serialize.
func DeserializeBlock(data []byte) (*Block, error) {
	r := bytes.NewReader(data)
	var b Block
	var err error
	if b.Header, err = readHeader(r); err != nil {
		return nil, err
	}
	nTxs, err := readVarInt(r)
	if err != nil {
		return nil, err
	}
	if nTxs == 0 {
		return nil, ErrNoTxs
	}
	if nTxs > 1_000_000 {
		return nil, errors.New("chain: implausible transaction count")
	}
	if nTxs > uint64(r.Len()) {
		return nil, ErrBlockTruncated
	}
	b.Txs = make([]*Tx, nTxs)
	for i := range b.Txs {
		raw, err := readVarBytes(r, maxTxSize)
		if err != nil {
			return nil, err
		}
		tx, err := DeserializeTx(raw)
		if err != nil {
			return nil, fmt.Errorf("tx %d: %w", i, err)
		}
		b.Txs[i] = tx
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("chain: %d trailing bytes after block", r.Len())
	}
	return &b, nil
}
