package chain

import (
	"bytes"
	"errors"
	"fmt"
)

// Headers-first synchronization (the Bitcoin getheaders/headers shape,
// adapted to proof of authority): a joining node validates the header
// spine — linkage, height, miner membership and the miner's ECDSA
// signature — before it spends anything on block bodies. Headers are a
// few hundred bytes each, so the spine of a long chain costs megabytes
// where the bodies cost orders of magnitude more, and the spine alone
// pins every block ID the later body download must match.

// Header chain errors.
var (
	// ErrHeaderDisconnected reports a header that does not attach to the
	// spine (unknown parent or wrong height).
	ErrHeaderDisconnected = errors.New("chain: header does not connect")
	// ErrBadHeaderSig reports a header whose miner signature fails, or
	// whose miner is not in the authorized set.
	ErrBadHeaderSig = errors.New("chain: bad header signature or unauthorized miner")
)

// Serialize encodes the header (the same encoding a full block starts
// with, so header IDs match block IDs).
func (h *Header) Serialize() []byte {
	return h.appendTo(make([]byte, 0, h.serializedSize()))
}

// DeserializeHeader parses a header produced by Serialize.
func DeserializeHeader(data []byte) (*Header, error) {
	r := bytes.NewReader(data)
	h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("chain: %d trailing bytes after header", r.Len())
	}
	return &h, nil
}

// HeaderChain is a validated header-only spine, genesis first. It is the
// scratch state of headers-first sync: every appended header is checked
// for linkage, height, miner membership and signature, so the IDs it
// pins are as trustworthy as a fully validated chain's — only the
// transaction contents remain unchecked. Not safe for concurrent use;
// the sync state machine guards it with its own lock.
type HeaderChain struct {
	miners  map[string]bool
	headers []*Header
	ids     []Hash
}

// NewHeaderChain starts a spine at the given genesis block. An empty
// miner set accepts any signed header (mirroring Chain).
func NewHeaderChain(genesis *Block, miners [][]byte) *HeaderChain {
	hc := &HeaderChain{miners: make(map[string]bool)}
	for _, pub := range miners {
		hc.miners[string(pub)] = true
	}
	g := genesis.Header
	hc.headers = append(hc.headers, &g)
	hc.ids = append(hc.ids, genesis.ID())
	return hc
}

// Height returns the spine tip height.
func (hc *HeaderChain) Height() int64 { return int64(len(hc.headers)) - 1 }

// IDAt returns the block ID at the given height.
func (hc *HeaderChain) IDAt(height int64) (Hash, bool) {
	if height < 0 || height >= int64(len(hc.ids)) {
		return Hash{}, false
	}
	return hc.ids[height], true
}

// Headers returns the spine headers from height from through to,
// inclusive (clamped to the spine).
func (hc *HeaderChain) Headers(from, to int64) []*Header {
	if from < 0 {
		from = 0
	}
	if to > hc.Height() {
		to = hc.Height()
	}
	if from > to {
		return nil
	}
	out := make([]*Header, 0, to-from+1)
	for h := from; h <= to; h++ {
		out = append(out, hc.headers[h])
	}
	return out
}

// Locator returns block IDs of the spine, tip first: the last 10
// densely, then doubling the step back to genesis — the standard shape
// that lets a peer find the fork point in O(log height) IDs.
func (hc *HeaderChain) Locator() []Hash {
	var loc []Hash
	step := int64(1)
	for h := hc.Height(); h > 0; h -= step {
		loc = append(loc, hc.ids[h])
		if len(loc) >= 10 {
			step *= 2
		}
	}
	return append(loc, hc.ids[0])
}

// Rebase makes the spine a copy of c's best branch, keeping the prefix
// the two already share. Best-branch headers were validated when their
// blocks connected, so none is checked again; a catch-up round then
// extends the copy with a peer's headers from wherever the two diverge.
func (hc *HeaderChain) Rebase(c *Chain) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h := min(len(hc.ids), len(c.best)) - 1
	for h > 0 && hc.ids[h] != c.best[h].ID() {
		h--
	}
	hc.headers, hc.ids = hc.headers[:h+1], hc.ids[:h+1]
	for _, b := range c.best[h+1:] {
		hc.headers = append(hc.headers, &b.Header)
		hc.ids = append(hc.ids, b.ID())
	}
}

// Connect validates a batch of headers against the spine in order and
// appends them. A header already on the spine is skipped; one that
// attaches below the tip (a fork) truncates the spine to its fork point
// before appending, so a peer serving a different best branch replaces
// the local suffix. Returns how many headers were newly appended; on
// error the headers before the bad one remain applied.
func (hc *HeaderChain) Connect(batch []*Header) (int, error) {
	firstBad := hc.verifyBatchSigs(batch)
	added := 0
	for i, h := range batch {
		height := h.Header().Height
		n := int64(len(hc.headers))
		if height <= 0 || height > n {
			return added, fmt.Errorf("%w: height %d on spine of height %d", ErrHeaderDisconnected, height, n-1)
		}
		if height < n && hc.ids[height] == h.ID() {
			continue // already on the spine
		}
		if h.PrevBlock != hc.ids[height-1] {
			return added, fmt.Errorf("%w: height %d parent mismatch", ErrHeaderDisconnected, height)
		}
		if len(hc.miners) > 0 && !hc.miners[string(h.MinerPubKey)] {
			return added, fmt.Errorf("%w: height %d", ErrBadHeaderSig, height)
		}
		if i == firstBad {
			return added, fmt.Errorf("%w: height %d", ErrBadHeaderSig, height)
		}
		hc.headers = append(hc.headers[:height], h)
		hc.ids = append(hc.ids[:height], h.ID())
		added++
	}
	return added, nil
}

// verifyBatchSigs checks the batch's miner signatures on the verify
// pool and returns the index of the first header whose signature fails,
// or len(batch). ECDSA verification dominates headers-first sync — a
// 2000-header batch is hundreds of milliseconds sequential — and the
// checks are independent of the linkage walk, so they run ahead of it in
// parallel. Headers already on the spine are skipped (their signatures
// were checked when they were first appended); the pre-check against the
// current spine stays valid because batch heights only grow.
func (hc *HeaderChain) verifyBatchSigs(batch []*Header) int {
	todo := make([]headerJob, 0, len(batch))
	n := int64(len(hc.headers))
	for i, h := range batch {
		height := h.Header().Height
		if height > 0 && height < n && hc.ids[height] == h.ID() {
			continue // duplicate: skipped by Connect before use
		}
		todo = append(todo, headerJob{h: h, pos: i})
	}
	if bad, err := runParallel(todo, poolWidth()); err != nil {
		return todo[bad].pos
	}
	return len(batch)
}

// headerJob is one miner-signature check of a Connect batch; pos is the
// header's index in the batch.
type headerJob struct {
	h   *Header
	pos int
}

func (j headerJob) run() error {
	if !j.h.VerifySignature() {
		return ErrBadHeaderSig
	}
	return nil
}

// Header returns h itself; it exists so Connect can treat *Header
// uniformly (and keeps the call sites readable).
func (h *Header) Header() *Header { return h }

// HeadersAfter serves a getheaders request from the chain's best branch:
// it returns up to max headers starting just above the highest locator
// entry found on the best branch (or above genesis when none match).
// Works on pruned chains — header stubs keep their headers.
func (c *Chain) HeadersAfter(locator []Hash, max int) []*Header {
	c.mu.RLock()
	defer c.mu.RUnlock()
	start := int64(1)
	for _, id := range locator {
		b, ok := c.index[id]
		if !ok {
			continue
		}
		h := b.Header.Height
		if h < int64(len(c.best)) && c.best[h] == b {
			start = h + 1
			break
		}
	}
	var out []*Header
	for h := start; h < int64(len(c.best)) && len(out) < max; h++ {
		out = append(out, &c.best[h].Header)
	}
	return out
}

// TipInfo describes one leaf of the block tree, for getchaintips.
type TipInfo struct {
	ID     Hash
	Height int64
	// BranchLen is how many blocks the tip sits off the best branch
	// (0 for the active tip).
	BranchLen int64
	// Active marks the best-branch tip.
	Active bool
}

// Tips returns every chain tip the node knows: the active best tip plus
// the leaf of every side branch, highest first.
func (c *Chain) Tips() []TipInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	hasChild := make(map[Hash]bool, len(c.index))
	for _, b := range c.index {
		hasChild[b.Header.PrevBlock] = true
	}
	bestTip := c.best[len(c.best)-1]
	var tips []TipInfo
	for id, b := range c.index {
		if hasChild[id] {
			continue
		}
		info := TipInfo{ID: id, Height: b.Header.Height, Active: b == bestTip}
		if !info.Active {
			// Walk back until the branch rejoins the best branch.
			cur := b
			for {
				h := cur.Header.Height
				if h < int64(len(c.best)) && c.best[h] == cur {
					break
				}
				info.BranchLen++
				parent, ok := c.index[cur.Header.PrevBlock]
				if !ok {
					break
				}
				cur = parent
			}
		}
		tips = append(tips, info)
	}
	// Highest first; active tip wins ties.
	for i := 1; i < len(tips); i++ {
		for j := i; j > 0 && (tips[j].Height > tips[j-1].Height ||
			(tips[j].Height == tips[j-1].Height && tips[j].Active)); j-- {
			tips[j], tips[j-1] = tips[j-1], tips[j]
		}
	}
	return tips
}
