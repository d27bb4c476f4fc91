package chain

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bcwan/internal/script"
)

// Chain is the block tree with UTXO state for the best branch. It accepts
// blocks from authorized miners, supports side branches, and reorganizes
// to the longest valid branch.
type Chain struct {
	mu     sync.RWMutex
	params Params

	genesis *Block
	// index holds every known block by ID.
	index map[Hash]*Block
	// best is the active branch, genesis first.
	best []*Block
	// utxo is the UTXO set of the best branch tip, maintained
	// incrementally: blocks connect and disconnect in place, journaled
	// by undo.
	utxo *UTXOSet
	// undo maps each best-branch block to the journal that reverses it;
	// entries for disconnected blocks are dropped (and re-captured if
	// the block reconnects).
	undo map[Hash]*BlockUndo
	// txIndex locates every best-branch transaction by ID in O(1); it is
	// maintained on connect/disconnect and backs FindTx, Confirmations
	// and the RPC lookups.
	txIndex map[Hash]txLoc
	// spenders maps each outpoint spent on the best branch to the
	// spending transaction's ID, making FindSpender — the recipient's
	// claim watch — an O(1) lookup.
	spenders map[OutPoint]Hash
	// miners is the set of authorized miner public keys (hex of the
	// serialized point). Empty means any signed block is accepted.
	miners map[string]bool
	// pruneBase is the pruned horizon: best-branch blocks at heights
	// 1..pruneBase are header-only stubs with no bodies, indexes or undo
	// journals. 0 means nothing is pruned. Reorgs forking at or below
	// the base are rejected (ErrPrunedFork).
	pruneBase int64
	// verifier runs script verification for block connect and reorg
	// replay; shared (via Verifier()) with the mempool and miner so a
	// script pair checked at mempool admission is a cache hit at block
	// connect.
	verifier *Verifier

	// subscribers receive every block that becomes part of the best
	// branch (including reorged-in blocks).
	subscribers []func(*Block)

	// metrics is nil until Instrument is called; every use is guarded
	// so an uninstrumented chain pays only the nil check.
	metrics *chainMetrics
}

// txLoc is one txIndex entry: the transaction and the height of its
// best-branch block.
type txLoc struct {
	tx     *Tx
	height int64
}

// Chain errors.
var (
	// ErrDuplicateBlock reports a block already in the index.
	ErrDuplicateBlock = errors.New("chain: duplicate block")
	// ErrInvalidGenesis reports a genesis block that fails validation.
	ErrInvalidGenesis = errors.New("chain: invalid genesis block")
	// ErrInconsistentState reports that the incremental UTXO set or the
	// chain indexes diverged from a from-genesis replay — the debug
	// cross-check failing.
	ErrInconsistentState = errors.New("chain: incremental state inconsistent with replay")
)

// New creates a chain from a genesis block. The genesis block is not
// signature-checked (it is configuration, like Multichain's params.dat).
func New(params Params, genesis *Block) (*Chain, error) {
	if genesis == nil || len(genesis.Txs) == 0 || genesis.Header.Height != 0 {
		return nil, ErrInvalidGenesis
	}
	if MerkleRoot(genesis.Txs) != genesis.Header.MerkleRoot {
		return nil, fmt.Errorf("%w: merkle root mismatch", ErrInvalidGenesis)
	}
	utxo := NewUTXOSet()
	for _, tx := range genesis.Txs {
		if err := utxo.ApplyTx(tx, 0); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidGenesis, err)
		}
	}
	c := &Chain{
		params:   params,
		genesis:  genesis,
		index:    map[Hash]*Block{genesis.ID(): genesis},
		best:     []*Block{genesis},
		utxo:     utxo,
		undo:     make(map[Hash]*BlockUndo),
		txIndex:  make(map[Hash]txLoc),
		spenders: make(map[OutPoint]Hash),
		miners:   make(map[string]bool),
		verifier: newVerifier(),
	}
	c.indexBlockTxs(genesis)
	return c, nil
}

// AuthorizeMiner adds a public key to the permissioned miner set.
func (c *Chain) AuthorizeMiner(pubKey []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.miners[string(pubKey)] = true
}

// Params returns the chain parameters.
func (c *Chain) Params() Params { return c.params }

// Verifier returns the chain's script verifier (worker pool + signature
// cache). The mempool and miner share it so verification work done at
// admission is not repeated at block connect.
func (c *Chain) Verifier() *Verifier { return c.verifier }

// Genesis returns the genesis block.
func (c *Chain) Genesis() *Block { return c.genesis }

// Height returns the best-branch tip height.
func (c *Chain) Height() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int64(len(c.best)) - 1
}

// Tip returns the best-branch tip block.
func (c *Chain) Tip() *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.best[len(c.best)-1]
}

// BlockAt returns the best-branch block at the given height.
func (c *Chain) BlockAt(height int64) (*Block, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if height < 0 || height >= int64(len(c.best)) {
		return nil, false
	}
	return c.best[height], true
}

// BlockByID returns any indexed block (best branch or side branch).
func (c *Chain) BlockByID(id Hash) (*Block, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b, ok := c.index[id]
	return b, ok
}

// UTXO returns a private copy of the best-branch UTXO set. The copy is
// O(set) in time and memory: it is for callers that need a whole,
// consistent set to keep (invariant checks, benchmarks), never for a
// per-message path — those read the live set inside ReadState.
func (c *Chain) UTXO() *UTXOSet {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.utxo.Clone()
}

// Subscribe registers a callback invoked (synchronously, in AddBlock's
// caller) for every block that joins the best branch. Used by the
// registry scanner and the recipient's claim watcher.
func (c *Chain) Subscribe(fn func(*Block)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subscribers = append(c.subscribers, fn)
}

// AddBlock validates and accepts a block, extending the best branch, or
// storing (and possibly reorganizing to) a side branch.
func (c *Chain) AddBlock(b *Block) error {
	c.mu.Lock()
	var notify []*Block
	err := c.addBlockLocked(b, &notify)
	subs := make([]func(*Block), len(c.subscribers))
	copy(subs, c.subscribers)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	for _, nb := range notify {
		for _, fn := range subs {
			fn(nb)
		}
	}
	return nil
}

func (c *Chain) addBlockLocked(b *Block, notify *[]*Block) error {
	return c.addBlockPolicy(b, notify, c.params)
}

// addBlockPolicy is addBlockLocked with an explicit parameter set, so
// the trusted store-restore path can run the same code with script
// verification switched off.
func (c *Chain) addBlockPolicy(b *Block, notify *[]*Block, params Params) error {
	var start time.Time
	if c.metrics != nil {
		start = time.Now()
	}
	id := b.ID()
	if _, dup := c.index[id]; dup {
		return ErrDuplicateBlock
	}
	// Authenticate first: callers park a block on ErrBadPrevBlock.
	if len(c.miners) > 0 && !c.miners[string(b.Header.MinerPubKey)] {
		return ErrUnknownMiner
	}
	if !b.Header.VerifySignature() {
		return ErrBadMinerSig
	}
	parent, ok := c.index[b.Header.PrevBlock]
	if !ok {
		return fmt.Errorf("%w: %s", ErrBadPrevBlock, b.Header.PrevBlock)
	}
	if b.Header.Height != parent.Header.Height+1 {
		return fmt.Errorf("%w: block %d on parent %d", ErrBadHeight, b.Header.Height, parent.Header.Height)
	}
	if err := checkBlockStateless(b, params); err != nil {
		return err
	}

	tip := c.best[len(c.best)-1]
	if parent == tip {
		// The common case: extend the best branch in place, journaling
		// the mutations. connectBlockUndo rolls the set back itself on
		// failure.
		undo, err := connectBlockUndo(c.utxo, b, params, c.verifier)
		if err != nil {
			return err
		}
		c.index[id] = b
		c.undo[id] = undo
		c.indexBlockTxs(b)
		c.best = append(c.best, b)
		*notify = append(*notify, b)
		c.noteConnect(b, start)
		return nil
	}

	// Side branch. The block must link back to genesis; full UTXO
	// validation is deferred until its branch takes the lead (cheap
	// header, signature and stateless checks already ran above).
	branch, err := c.branchTo(parent)
	if err != nil {
		return err
	}
	branch = append(branch, b)
	c.index[id] = b
	if len(branch) <= len(c.best) {
		return nil
	}
	if err := c.reorgLocked(branch, notify); err != nil {
		delete(c.index, id)
		return err
	}
	c.noteConnect(b, start)
	return nil
}

// reorgLocked switches the best branch to the strictly longer candidate:
// the losing suffix is disconnected through its undo journals and the
// winning suffix connected with full validation, in O(reorg depth)
// total. If a winning block fails validation the chain is restored to
// its pre-reorg state exactly and the error returned.
func (c *Chain) reorgLocked(branch []*Block, notify *[]*Block) error {
	fork := commonPrefixLen(c.best, branch)
	if int64(fork) <= c.pruneBase {
		// Disconnecting down to the fork would unwind pruned heights,
		// whose bodies and undo journals are gone.
		return fmt.Errorf("%w: fork at height %d, prune base %d", ErrPrunedFork, fork, c.pruneBase)
	}
	detached := append([]*Block(nil), c.best[fork:]...)

	// Disconnect the losing suffix, tip first.
	for i := len(c.best) - 1; i >= fork; i-- {
		blk := c.best[i]
		blkID := blk.ID()
		if err := c.utxo.UndoBlock(c.undo[blkID]); err != nil {
			// Journal corruption — never expected; surface loudly.
			panic(fmt.Sprintf("chain: disconnect height %d: %v", i, err))
		}
		c.unindexBlockTxs(blk)
		delete(c.undo, blkID)
	}
	c.best = c.best[:fork:fork]

	// Connect the winning suffix.
	for j := fork; j < len(branch); j++ {
		blk := branch[j]
		undo, err := connectBlockUndo(c.utxo, blk, c.params, c.verifier)
		if err != nil {
			c.restoreBranch(fork, detached)
			return fmt.Errorf("chain: reorg connect height %d (%s): %w", j, blk.ID(), err)
		}
		blkID := blk.ID()
		c.undo[blkID] = undo
		c.indexBlockTxs(blk)
		c.best = append(c.best, blk)
	}
	*notify = append(*notify, branch[fork:]...)
	if m := c.metrics; m != nil {
		if depth := len(detached); depth > 0 {
			m.reorgs.Inc()
			m.reorgDepth.Set(int64(depth))
			m.blocksDisconnected.Add(uint64(depth))
		}
	}
	return nil
}

// restoreBranch rolls a half-connected reorg back: blocks connected so
// far are disconnected through their fresh journals, then the original
// suffix is re-applied trusted (it was fully validated when it first
// connected).
func (c *Chain) restoreBranch(fork int, detached []*Block) {
	for i := len(c.best) - 1; i >= fork; i-- {
		blk := c.best[i]
		blkID := blk.ID()
		if err := c.utxo.UndoBlock(c.undo[blkID]); err != nil {
			panic(fmt.Sprintf("chain: reorg rollback at height %d: %v", i, err))
		}
		c.unindexBlockTxs(blk)
		delete(c.undo, blkID)
	}
	c.best = c.best[:fork:fork]
	for _, blk := range detached {
		undo, err := applyBlockTrusted(c.utxo, blk)
		if err != nil {
			panic(fmt.Sprintf("chain: reorg restore height %d: %v", blk.Header.Height, err))
		}
		c.undo[blk.ID()] = undo
		c.indexBlockTxs(blk)
		c.best = append(c.best, blk)
	}
}

// noteConnect records the per-connect metrics.
func (c *Chain) noteConnect(b *Block, start time.Time) {
	m := c.metrics
	if m == nil {
		return
	}
	m.connectSeconds.ObserveSince(start)
	m.blocksConnected.Inc()
	m.txsVerified.Add(uint64(len(b.Txs) - 1))
	var scripts uint64
	for _, tx := range b.Txs[1:] {
		scripts += uint64(len(tx.Inputs))
	}
	m.scriptsVerified.Add(scripts)
	m.utxoSize.Set(int64(c.utxo.Len()))
	m.txIndexSize.Set(int64(len(c.txIndex)))
	m.spenderIndexSize.Set(int64(len(c.spenders)))
}

// indexBlockTxs adds a connected block's transactions to the txid and
// spender indexes.
func (c *Chain) indexBlockTxs(b *Block) {
	h := b.Header.Height
	for _, tx := range b.Txs {
		c.txIndex[tx.ID()] = txLoc{tx: tx, height: h}
		if tx.IsCoinbase() {
			continue
		}
		id := tx.ID()
		for _, in := range tx.Inputs {
			c.spenders[in.Prev] = id
		}
	}
}

// unindexBlockTxs removes a disconnected block's transactions from the
// txid and spender indexes.
func (c *Chain) unindexBlockTxs(b *Block) {
	for _, tx := range b.Txs {
		delete(c.txIndex, tx.ID())
		if tx.IsCoinbase() {
			continue
		}
		for _, in := range tx.Inputs {
			delete(c.spenders, in.Prev)
		}
	}
}

// branchTo walks parent links from b back to genesis.
func (c *Chain) branchTo(b *Block) ([]*Block, error) {
	branch := make([]*Block, b.Header.Height+1)
	cur := b
	for {
		if cur.Header.Height < 0 || int(cur.Header.Height) >= len(branch) {
			return nil, fmt.Errorf("%w: inconsistent height %d", ErrBadHeight, cur.Header.Height)
		}
		branch[cur.Header.Height] = cur
		if cur.Header.Height == 0 {
			break
		}
		parent, ok := c.index[cur.Header.PrevBlock]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrBadPrevBlock, cur.Header.PrevBlock)
		}
		cur = parent
	}
	if branch[0] != c.genesis {
		return nil, fmt.Errorf("%w: branch does not reach genesis", ErrBadPrevBlock)
	}
	return branch, nil
}

// replayBranch replays a branch from genesis into a fresh UTXO set
// through the full validation path. The live chain never uses it — the
// incremental undo journals replaced the replay — but it survives as
// the debug cross-check behind CheckConsistency: the O(n) ground truth
// the O(depth) path must agree with byte for byte.
func (c *Chain) replayBranch(branch []*Block) (*UTXOSet, error) {
	utxo := NewUTXOSet()
	for i, blk := range branch {
		if i == 0 {
			for _, tx := range blk.Txs {
				if err := utxo.ApplyTx(tx, 0); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := connectBlock(utxo, blk, c.params, c.verifier); err != nil {
			return nil, fmt.Errorf("replay height %d: %w", i, err)
		}
	}
	return utxo, nil
}

// CheckConsistency replays the best branch from genesis and verifies
// that the incrementally maintained UTXO set and chain indexes match the
// replay exactly. It is O(chain length) — a debug and test cross-check,
// also wired into the chaos invariants — and returns
// ErrInconsistentState (wrapped with detail) on divergence.
func (c *Chain) CheckConsistency() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.pruneBase > 0 {
		return c.checkConsistencyPrunedLocked()
	}
	replayed, err := c.replayBranch(c.best)
	if err != nil {
		return fmt.Errorf("%w: replay failed: %v", ErrInconsistentState, err)
	}
	if !c.utxo.Equal(replayed) {
		return fmt.Errorf("%w: utxo set diverged (incremental %d entries, replay %d)",
			ErrInconsistentState, c.utxo.Len(), replayed.Len())
	}
	if err := c.utxo.checkIndex(); err != nil {
		return fmt.Errorf("%w: %v", ErrInconsistentState, err)
	}
	// Rebuild the indexes from the best branch and compare.
	var txs, spends int
	for _, blk := range c.best {
		for _, tx := range blk.Txs {
			txs++
			loc, ok := c.txIndex[tx.ID()]
			if !ok || loc.height != blk.Header.Height || loc.tx != tx {
				return fmt.Errorf("%w: txIndex entry for %s wrong or missing", ErrInconsistentState, tx.ID())
			}
			if tx.IsCoinbase() {
				continue
			}
			for _, in := range tx.Inputs {
				spends++
				if c.spenders[in.Prev] != tx.ID() {
					return fmt.Errorf("%w: spender index for %s wrong or missing", ErrInconsistentState, in.Prev)
				}
			}
		}
	}
	if txs != len(c.txIndex) {
		return fmt.Errorf("%w: txIndex has %d entries, best branch has %d txs", ErrInconsistentState, len(c.txIndex), txs)
	}
	if spends != len(c.spenders) {
		return fmt.Errorf("%w: spender index has %d entries, best branch has %d spends", ErrInconsistentState, len(c.spenders), spends)
	}
	// Every best-branch block above genesis must hold an undo journal.
	for _, blk := range c.best[1:] {
		if _, ok := c.undo[blk.ID()]; !ok {
			return fmt.Errorf("%w: missing undo journal for height %d", ErrInconsistentState, blk.Header.Height)
		}
	}
	return nil
}

// checkConsistencyPrunedLocked is the pruned-chain variant of
// CheckConsistency: genesis replay is impossible once bodies below the
// horizon are gone, so the ground truth becomes the undo journals —
// unwind the tip set to the prune base, re-apply the unpruned suffix
// through full validation, and require the round trip to land exactly
// on the incrementally maintained state. Indexes are checked over
// genesis plus the unpruned suffix only.
func (c *Chain) checkConsistencyPrunedLocked() error {
	base := c.pruneBase
	rewound := c.utxo.Clone()
	for h := int64(len(c.best)) - 1; h > base; h-- {
		undo, ok := c.undo[c.best[h].ID()]
		if !ok {
			return fmt.Errorf("%w: missing undo journal for height %d", ErrInconsistentState, h)
		}
		if err := rewound.UndoBlock(undo); err != nil {
			return fmt.Errorf("%w: unwind height %d: %v", ErrInconsistentState, h, err)
		}
	}
	for h := base + 1; h < int64(len(c.best)); h++ {
		if err := connectBlock(rewound, c.best[h], c.params, c.verifier); err != nil {
			return fmt.Errorf("%w: re-apply height %d: %v", ErrInconsistentState, h, err)
		}
	}
	if !c.utxo.Equal(rewound) {
		return fmt.Errorf("%w: utxo set diverged after unwind/re-apply round trip (incremental %d entries, round trip %d)",
			ErrInconsistentState, c.utxo.Len(), rewound.Len())
	}
	if err := c.utxo.checkIndex(); err != nil {
		return fmt.Errorf("%w: %v", ErrInconsistentState, err)
	}
	// Stubs must stay stubs, and indexed txs/spends must come from
	// genesis plus the unpruned suffix exactly.
	for h := int64(1); h <= base; h++ {
		if len(c.best[h].Txs) != 0 {
			return fmt.Errorf("%w: pruned height %d still holds a body", ErrInconsistentState, h)
		}
	}
	var txs, spends int
	checkBlock := func(blk *Block) error {
		for _, tx := range blk.Txs {
			txs++
			loc, ok := c.txIndex[tx.ID()]
			if !ok || loc.height != blk.Header.Height || loc.tx != tx {
				return fmt.Errorf("%w: txIndex entry for %s wrong or missing", ErrInconsistentState, tx.ID())
			}
			if tx.IsCoinbase() {
				continue
			}
			for _, in := range tx.Inputs {
				spends++
				if c.spenders[in.Prev] != tx.ID() {
					return fmt.Errorf("%w: spender index for %s wrong or missing", ErrInconsistentState, in.Prev)
				}
			}
		}
		return nil
	}
	if err := checkBlock(c.best[0]); err != nil {
		return err
	}
	for h := base + 1; h < int64(len(c.best)); h++ {
		if err := checkBlock(c.best[h]); err != nil {
			return err
		}
	}
	if txs != len(c.txIndex) {
		return fmt.Errorf("%w: txIndex has %d entries, unpruned blocks have %d txs", ErrInconsistentState, len(c.txIndex), txs)
	}
	if spends != len(c.spenders) {
		return fmt.Errorf("%w: spender index has %d entries, unpruned blocks have %d spends", ErrInconsistentState, len(c.spenders), spends)
	}
	return nil
}

func commonPrefixLen(a, b []*Block) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// FindTx locates a best-branch transaction by ID through the maintained
// txid index — an O(1) lookup, where the seed scanned every transaction
// in every block. Confirmations = tip height − height + 1.
func (c *Chain) FindTx(id Hash) (*Tx, int64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	loc, ok := c.txIndex[id]
	if !ok {
		return nil, 0, false
	}
	return loc.tx, loc.height, true
}

// FindSpender locates the best-branch transaction spending the given
// outpoint through the maintained spender index — an O(1) lookup. The
// recipient uses it to spot the gateway's claim and extract the revealed
// ephemeral key (Fig. 3 step 10); with the index, the claim-watch loop
// no longer rescans the chain on every new block.
func (c *Chain) FindSpender(op OutPoint) (*Tx, int64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, ok := c.spenders[op]
	if !ok {
		return nil, 0, false
	}
	loc, ok := c.txIndex[id]
	if !ok {
		return nil, 0, false
	}
	return loc.tx, loc.height, true
}

// ReadState runs fn with the tip block and the live tip UTXO set, under
// the chain's read lock. It lets hot paths (mempool admission,
// block-template assembly, a wallet's coin lookup, serialization) read
// the live set instead of deep-cloning it. fn must treat utxo as
// immutable, must not keep it or anything aliasing it past its return,
// and must not call back into Chain methods that take the lock (Tip,
// UTXO, AddBlock, …) — the values it needs are passed in.
func (c *Chain) ReadState(fn func(tip *Block, utxo *UTXOSet)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	fn(c.best[len(c.best)-1], c.utxo)
}

// AddBlockTrusted connects a block whose scripts were validated when it
// was first persisted — the snapshot-restore path of the daemon store.
// Header linkage, miner authorization, signatures and all UTXO
// accounting rules still run; only script execution is skipped, which is
// what makes restart O(history txs) in map operations rather than
// signature verifications.
func (c *Chain) AddBlockTrusted(b *Block) error {
	c.mu.Lock()
	var notify []*Block
	params := c.params
	params.VerifyScripts = false
	err := c.addBlockPolicy(b, &notify, params)
	subs := make([]func(*Block), len(c.subscribers))
	copy(subs, c.subscribers)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	for _, nb := range notify {
		for _, fn := range subs {
			fn(nb)
		}
	}
	return nil
}

// Confirmations returns how many blocks confirm the transaction (1 =
// in the tip block), or 0 if unconfirmed.
func (c *Chain) Confirmations(id Hash) int64 {
	_, height, ok := c.FindTx(id)
	if !ok {
		return 0
	}
	return c.Height() - height + 1
}

// GenesisBlock builds a canonical genesis block paying initial funds to
// the given public key hashes. It is deterministic for reproducible
// simulations.
func GenesisBlock(allocations map[[20]byte]uint64) *Block {
	// Deterministic output order: sort by hash bytes.
	type alloc struct {
		hash  [20]byte
		value uint64
	}
	sorted := make([]alloc, 0, len(allocations))
	for h, v := range allocations {
		sorted = append(sorted, alloc{h, v})
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && lessHash(sorted[j].hash, sorted[j-1].hash); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	coinbase := &Tx{
		Inputs: []TxIn{{Prev: OutPoint{Index: coinbaseIndex}}},
	}
	for _, a := range sorted {
		coinbase.Outputs = append(coinbase.Outputs, TxOut{
			Value: a.value,
			Lock:  payToHash(a.hash),
		})
	}
	if len(coinbase.Outputs) == 0 {
		// A burn output so the genesis coinbase is well formed.
		coinbase.Outputs = append(coinbase.Outputs, TxOut{Value: 0, Lock: payToHash([20]byte{})})
	}
	b := &Block{
		Header: Header{Version: 1, Height: 0},
		Txs:    []*Tx{coinbase},
	}
	b.Header.MerkleRoot = MerkleRoot(b.Txs)
	return b
}

func lessHash(a, b [20]byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func payToHash(h [20]byte) script.Script {
	return script.PayToPubKeyHash(h)
}
