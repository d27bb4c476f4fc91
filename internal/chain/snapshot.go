package chain

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"bcwan/internal/bccrypto"
)

// Snapshot bootstrap (the assumeutxo shape, adapted to proof of
// authority): instead of a hash hard-coded at release time, an
// authorized miner signs a SnapshotCommitment binding a height, the
// block ID at that height, and the hash of the serialized UTXO set
// after connecting that block. A joining node that has validated the
// header spine checks three things — the commitment signature is from
// an authorized miner, the committed block ID matches its own spine at
// that height, and the assembled snapshot bytes hash to the committed
// value — and can then install the UTXO set without replaying bodies.

// Snapshot errors.
var (
	// ErrPrunedFork reports a reorg whose fork point lies at or below the
	// pruned horizon; the bodies and undo journals needed to unwind it
	// are gone, so the branch is rejected.
	ErrPrunedFork = errors.New("chain: reorg would cross the pruned horizon")
	// ErrBadCommitment reports a snapshot commitment that fails
	// structural or signature checks.
	ErrBadCommitment = errors.New("chain: bad snapshot commitment")
	// ErrNotEmpty reports InitFromSnapshot on a chain that has already
	// connected blocks.
	ErrNotEmpty = errors.New("chain: snapshot install requires an empty chain")
)

// snapshotCommitmentVersion is the only commitment encoding this build
// understands; decoding rejects other versions.
const snapshotCommitmentVersion = 1

// SnapshotCommitment is a miner-signed statement that the UTXO set
// after connecting block BlockID at Height serializes (SerializeUTXO)
// to UTXOSize bytes hashing to UTXOHash.
type SnapshotCommitment struct {
	Version  int32
	Height   int64
	BlockID  Hash
	UTXOHash Hash
	// UTXOSize is the byte length of the serialized set, bounding what a
	// joiner will download before the hash check can run.
	UTXOSize    int64
	MinerPubKey []byte
	Signature   []byte
}

// digest returns the signed portion of the commitment.
func (sc *SnapshotCommitment) digest() Hash {
	return Hash(bccrypto.DoubleSHA256(sc.appendUnsigned(nil)))
}

// appendUnsigned appends every field but the signature.
func (sc *SnapshotCommitment) appendUnsigned(b []byte) []byte {
	b = appendInt64(b, int64(sc.Version))
	b = appendInt64(b, sc.Height)
	b = append(b, sc.BlockID[:]...)
	b = append(b, sc.UTXOHash[:]...)
	b = appendInt64(b, sc.UTXOSize)
	return appendVarBytes(b, sc.MinerPubKey)
}

// Sign signs the commitment with the miner key.
func (sc *SnapshotCommitment) Sign(key *bccrypto.ECKey, random io.Reader) error {
	sc.MinerPubKey = key.PublicBytes()
	digest := sc.digest()
	sig, err := key.SignDigest(random, digest[:])
	if err != nil {
		return fmt.Errorf("sign snapshot commitment: %w", err)
	}
	sc.Signature = sig
	return nil
}

// VerifySignature checks the miner signature.
func (sc *SnapshotCommitment) VerifySignature() bool {
	digest := sc.digest()
	return bccrypto.VerifyECDigest(sc.MinerPubKey, digest[:], sc.Signature)
}

// Serialize encodes the commitment.
func (sc *SnapshotCommitment) Serialize() []byte {
	return appendVarBytes(sc.appendUnsigned(nil), sc.Signature)
}

// ID is the commitment's relay identity: the double SHA-256 of its
// serialization, signature included.
func (sc *SnapshotCommitment) ID() Hash { return Hash(bccrypto.DoubleSHA256(sc.Serialize())) }

// DeserializeSnapshotCommitment parses a commitment produced by
// Serialize.
func DeserializeSnapshotCommitment(data []byte) (*SnapshotCommitment, error) {
	r := bytes.NewReader(data)
	var sc SnapshotCommitment
	v, err := readInt64(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCommitment, err)
	}
	if v != snapshotCommitmentVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadCommitment, v)
	}
	sc.Version = int32(v)
	if sc.Height, err = readInt64(r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCommitment, err)
	}
	if _, err := io.ReadFull(r, sc.BlockID[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated block id", ErrBadCommitment)
	}
	if _, err := io.ReadFull(r, sc.UTXOHash[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated utxo hash", ErrBadCommitment)
	}
	if sc.UTXOSize, err = readInt64(r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCommitment, err)
	}
	if sc.MinerPubKey, err = readVarBytes(r, 1024); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCommitment, err)
	}
	if sc.Signature, err = readVarBytes(r, 1024); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCommitment, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCommitment, r.Len())
	}
	return &sc, nil
}

// SnapshotHash is the checksum the commitment binds: the double SHA-256
// of the serialized UTXO set.
func SnapshotHash(serialized []byte) Hash {
	return Hash(bccrypto.DoubleSHA256(serialized))
}

// IsAuthorizedMiner reports whether the key may mint blocks (and sign
// snapshot commitments). An empty miner set authorizes anyone,
// mirroring block acceptance.
func (c *Chain) IsAuthorizedMiner(pubKey []byte) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.miners) == 0 || c.miners[string(pubKey)]
}

// PruneBase returns the pruned horizon: the highest best-branch height
// whose block body has been dropped (0 = nothing pruned). Blocks at or
// below the base exist as header-only stubs; state below the base is
// unreachable and reorgs forking there are rejected.
func (c *Chain) PruneBase() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.pruneBase
}

// StateAt reconstructs the best-branch UTXO set as of the given height
// by cloning the tip set and unwinding undo journals — O(distance from
// tip). It is how a serving node materializes the snapshot a joiner
// asks for. Heights below the pruned horizon are unreachable.
func (c *Chain) StateAt(height int64) (*UTXOSet, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stateAtLocked(height)
}

// stateAtLocked is StateAt for a caller holding c.mu.
func (c *Chain) stateAtLocked(height int64) (*UTXOSet, error) {
	tip := int64(len(c.best)) - 1
	if height < c.pruneBase || height > tip {
		return nil, fmt.Errorf("chain: no state at height %d (prune base %d, tip %d)", height, c.pruneBase, tip)
	}
	u := c.utxo.Clone()
	for h := tip; h > height; h-- {
		undo, ok := c.undo[c.best[h].ID()]
		if !ok {
			return nil, fmt.Errorf("chain: missing undo journal at height %d", h)
		}
		if err := u.UndoBlock(undo); err != nil {
			return nil, fmt.Errorf("chain: unwind height %d: %w", h, err)
		}
	}
	return u, nil
}

// InitFromSnapshot installs a verified snapshot into an empty chain:
// the headers (heights 1..N, linking from genesis) become header-only
// stub blocks, the UTXO set becomes the tip state, and the pruned
// horizon is set to N. The chain takes ownership of utxo.
//
// Caller contract: the headers must come from a validated spine
// (HeaderChain) and the UTXO set from bytes matching a verified
// SnapshotCommitment for headers[len-1]. Linkage, heights and miner
// membership are re-checked here; signatures and the snapshot hash are
// not — that verification happened where the data arrived.
func (c *Chain) InitFromSnapshot(headers []*Header, utxo *UTXOSet) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.best) != 1 {
		return fmt.Errorf("%w: height %d", ErrNotEmpty, len(c.best)-1)
	}
	if len(headers) == 0 {
		return fmt.Errorf("%w: empty header spine", ErrBadCommitment)
	}
	prevID := c.genesis.ID()
	prevHeight := int64(0)
	stubs := make([]*Block, 0, len(headers))
	for _, h := range headers {
		if h.Height != prevHeight+1 {
			return fmt.Errorf("%w: height %d after %d", ErrBadHeight, h.Height, prevHeight)
		}
		if h.PrevBlock != prevID {
			return fmt.Errorf("%w: at height %d", ErrBadPrevBlock, h.Height)
		}
		if len(c.miners) > 0 && !c.miners[string(h.MinerPubKey)] {
			return ErrUnknownMiner
		}
		hdr := *h
		b := &Block{Header: hdr}
		stubs = append(stubs, b)
		prevID = b.ID()
		prevHeight = hdr.Height
	}
	for _, b := range stubs {
		c.index[b.ID()] = b
		c.best = append(c.best, b)
	}
	c.utxo = utxo
	c.pruneBase = prevHeight
	if m := c.metrics; m != nil {
		m.utxoSize.Set(int64(c.utxo.Len()))
	}
	return nil
}

// PruneBelow drops block bodies, transaction indexes and undo journals
// for best-branch heights 1..height, replacing the blocks with
// header-only stubs, and discards side-branch blocks in that range
// (they can never win once reorgs across the horizon are rejected).
// Genesis is always kept in full. The tip cannot be pruned.
func (c *Chain) PruneBelow(height int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	tip := int64(len(c.best)) - 1
	if height >= tip {
		return fmt.Errorf("chain: cannot prune at or above the tip (%d >= %d)", height, tip)
	}
	if height <= c.pruneBase {
		return nil
	}
	for h := c.pruneBase + 1; h <= height; h++ {
		b := c.best[h]
		if h == 0 || len(b.Txs) == 0 {
			continue
		}
		c.unindexBlockTxs(b)
		stub := &Block{Header: b.Header}
		c.best[h] = stub
		c.index[stub.ID()] = stub
		delete(c.undo, stub.ID())
	}
	for id, b := range c.index {
		h := b.Header.Height
		if h >= 1 && h <= height && c.best[h] != b {
			delete(c.index, id)
		}
	}
	c.pruneBase = height
	if m := c.metrics; m != nil {
		m.txIndexSize.Set(int64(len(c.txIndex)))
		m.spenderIndexSize.Set(int64(len(c.spenders)))
	}
	return nil
}
