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
	// ErrInconsistentState reports that the incremental UTXO set, its
	// undo journals or the chain indexes diverged from the reference
	// CheckConsistency rebuilds — the debug cross-check failing.
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
	utxo, err := genesisUTXO(genesis)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidGenesis, err)
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

// genesisUTXO is the set the genesis block's transactions create.
func genesisUTXO(genesis *Block) (*UTXOSet, error) {
	utxo := NewUTXOSet()
	for _, tx := range genesis.Txs {
		if err := utxo.ApplyTx(tx, 0); err != nil {
			return nil, err
		}
	}
	return utxo, nil
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
func (c *Chain) AddBlock(b *Block) error { return c.addBlock(b, c.params) }

// AddBlockTrusted connects a block whose scripts were validated when it
// was first persisted — the snapshot-restore path of the daemon store.
// Header linkage, miner authorization, signatures and all UTXO
// accounting rules still run; only script execution is skipped, which is
// what makes restart O(history txs) in map operations rather than
// signature verifications.
func (c *Chain) AddBlockTrusted(b *Block) error { return c.addBlock(b, c.params.withoutScripts()) }

// addBlock accepts b under params, then hands every block that joined
// the best branch to the subscribers, outside the lock.
func (c *Chain) addBlock(b *Block, params Params) error {
	c.mu.Lock()
	notify, err := c.addBlockLocked(b, params)
	// Subscribe only appends, so this header's elements never change.
	subs := c.subscribers
	c.mu.Unlock()
	for _, nb := range notify {
		for _, fn := range subs {
			fn(nb)
		}
	}
	return err
}

// addBlockLocked validates b and files it: on the best branch, on a side
// branch, or as the tip of a reorganization. It returns the blocks that
// joined the best branch.
func (c *Chain) addBlockLocked(b *Block, params Params) ([]*Block, error) {
	var start time.Time
	if c.metrics != nil {
		start = time.Now()
	}
	id := b.ID()
	if _, dup := c.index[id]; dup {
		return nil, ErrDuplicateBlock
	}
	// Authenticate first: callers park a block on ErrBadPrevBlock.
	if len(c.miners) > 0 && !c.miners[string(b.Header.MinerPubKey)] {
		return nil, ErrUnknownMiner
	}
	if !b.Header.VerifySignature() {
		return nil, ErrBadMinerSig
	}
	parent, ok := c.index[b.Header.PrevBlock]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrBadPrevBlock, b.Header.PrevBlock)
	}
	if b.Header.Height != parent.Header.Height+1 {
		return nil, fmt.Errorf("%w: block %d on parent %d", ErrBadHeight, b.Header.Height, parent.Header.Height)
	}
	if err := checkBlockStateless(b, params); err != nil {
		return nil, err
	}

	if parent == c.best[len(c.best)-1] {
		// The common case: extend the best branch in place.
		if err := c.connectTip(b, id, params); err != nil {
			return nil, err
		}
		c.index[id] = b
		c.noteConnect(b, start)
		return []*Block{b}, nil
	}

	// Side branch. The block must link back to genesis; full UTXO
	// validation is deferred until its branch takes the lead (cheap
	// header, signature and stateless checks already ran above).
	branch, err := c.branchTo(parent)
	if err != nil {
		return nil, err
	}
	branch = append(branch, b)
	c.index[id] = b
	if len(branch) <= len(c.best) {
		return nil, nil
	}
	joined, err := c.reorgLocked(branch)
	if err != nil {
		delete(c.index, id)
		return nil, err
	}
	c.noteConnect(b, start)
	return joined, nil
}

// connectTip is the one way a block joins the best branch: it validates
// b (whose ID is id; hashing a header is not free) against the live set
// and applies it there, journaled (connectBlockUndo leaves the set
// untouched on failure), and indexes its transactions.
func (c *Chain) connectTip(b *Block, id Hash, params Params) error {
	undo, err := connectBlockUndo(c.utxo, b, params, c.verifier)
	if err != nil {
		return err
	}
	c.undo[id] = undo
	c.indexBlockTxs(b)
	c.best = append(c.best, b)
	return nil
}

// disconnectTo unwinds the best branch, tip first, through the undo
// journals until fork blocks remain.
func (c *Chain) disconnectTo(fork int) {
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
}

// reorgLocked switches the best branch to the strictly longer candidate:
// the losing suffix is disconnected through its undo journals and the
// winning suffix connected with full validation, in O(reorg depth)
// total, and the connected suffix returned. If a winning block fails
// validation the chain is restored to its pre-reorg state exactly and
// the error returned.
func (c *Chain) reorgLocked(branch []*Block) ([]*Block, error) {
	fork := commonPrefixLen(c.best, branch)
	if int64(fork) <= c.pruneBase {
		// Disconnecting down to the fork would unwind pruned heights,
		// whose bodies and undo journals are gone.
		return nil, fmt.Errorf("%w: fork at height %d, prune base %d", ErrPrunedFork, fork, c.pruneBase)
	}
	detached := append([]*Block(nil), c.best[fork:]...)
	c.disconnectTo(fork)
	for _, blk := range branch[fork:] {
		if err := c.connectTip(blk, blk.ID(), c.params); err != nil {
			c.restoreBranch(fork, detached)
			return nil, fmt.Errorf("chain: reorg connect height %d (%s): %w", blk.Header.Height, blk.ID(), err)
		}
	}
	if m := c.metrics; m != nil {
		if depth := len(detached); depth > 0 {
			m.reorgs.Inc()
			m.reorgDepth.Set(int64(depth))
			m.blocksDisconnected.Add(uint64(depth))
		}
	}
	return branch[fork:], nil
}

// restoreBranch rolls a half-connected reorg back: blocks connected so
// far are disconnected, then the original suffix re-joins through
// connectTip with scripts off, as AddBlockTrusted connects (they were
// verified when the suffix first connected).
func (c *Chain) restoreBranch(fork int, detached []*Block) {
	c.disconnectTo(fork)
	trusted := c.params.withoutScripts()
	for _, blk := range detached {
		if err := c.connectTip(blk, blk.ID(), trusted); err != nil {
			panic(fmt.Sprintf("chain: reorg restore height %d: %v", blk.Header.Height, err))
		}
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

// CheckConsistency verifies the incrementally maintained state against
// a reference built without it. A copy of the live set is unwound
// through the undo journals to the prune base — on an unpruned chain it
// must then equal the genesis set — and every block above the base is
// re-applied through the journal-free connectBlock; the round trip must
// land exactly on the live set. The tx and spender indexes must hold
// exactly genesis plus the unpruned suffix, and pruned heights must be
// header-only stubs. It is O(unpruned chain) — a debug and test
// cross-check, also wired into the chaos invariants and the benchmark's
// end-of-run checks — and returns ErrInconsistentState (wrapped with
// detail) on divergence.
//
// An entry wrongly present in the set and touched by no journal above
// the base survives the round trip unchanged, so on a pruned chain,
// where no genesis set remains to compare with, it cannot be seen.
func (c *Chain) CheckConsistency() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	base := c.pruneBase
	u, err := c.stateAtLocked(base)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInconsistentState, err)
	}
	if base == 0 {
		genesis, err := genesisUTXO(c.genesis)
		if err != nil || !u.Equal(genesis) {
			return fmt.Errorf("%w: unwound set (%d entries) is not the genesis set", ErrInconsistentState, u.Len())
		}
	}
	var txs, spends int
	for h, blk := range c.best {
		if h > 0 && int64(h) <= base {
			if len(blk.Txs) != 0 {
				return fmt.Errorf("%w: pruned height %d still holds a body", ErrInconsistentState, h)
			}
			continue
		}
		if h > 0 {
			if err := connectBlock(u, blk, c.params, c.verifier); err != nil {
				return fmt.Errorf("%w: re-apply height %d: %v", ErrInconsistentState, h, err)
			}
		}
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
	if !c.utxo.Equal(u) {
		return fmt.Errorf("%w: utxo set diverged after unwind/re-apply round trip (incremental %d entries, round trip %d)",
			ErrInconsistentState, c.utxo.Len(), u.Len())
	}
	if err := c.utxo.checkIndex(); err != nil {
		return fmt.Errorf("%w: %v", ErrInconsistentState, err)
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
