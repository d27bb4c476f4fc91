package chain

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bcwan/internal/script"
	"bcwan/internal/telemetry"
)

// Mempool holds transactions waiting to be mined. It enforces first-seen
// double-spend protection: a transaction conflicting with an accepted one
// is rejected (the attack window the paper discusses in §6 exists because
// a gateway releases the key before the payment is confirmed — a
// double-spender races the *miner*, not the mempool).
type Mempool struct {
	mu sync.Mutex
	// txs maps txid to transaction in arrival order (order kept
	// separately for deterministic block building).
	txs map[Hash]*Tx
	// order is the arrival sequence with tombstones: a removed entry is
	// zeroed in place (the zero Hash is unreachable for a real txid) and
	// compacted once tombstones outnumber live entries, so confirming a
	// large block never slice-shifts the whole tail per transaction.
	order    []Hash
	orderIdx map[Hash]int // txid → index into order
	tomb     int          // tombstone count in order
	// spends maps each spent outpoint to the claiming txid.
	spends map[OutPoint]Hash
	// short indexes pooled txids by their compact-relay short id so
	// block reconstruction resolves sketches without scanning the pool.
	short map[uint64][]Hash
	// overlay is the persistent copy-on-write view of base+pool that
	// Accept validates against, updated incrementally per admission and
	// rebuilt lazily when the base or height moves or the pool shrinks.
	// Rebuilding per Accept made admission O(pool²) overall.
	overlay       *UTXOView
	overlayBase   UTXOReader
	overlayHeight int64
	// verifier runs Accept's script checks. UseVerifier swaps in the
	// chain's, so admissions land in the signature cache block connect
	// consults and block connect skips re-verifying them.
	verifier *Verifier
	// metrics is nil until Instrument is called.
	metrics *mempoolMetrics
}

// Mempool errors.
var (
	// ErrMempoolConflict reports a double spend against a pooled
	// transaction.
	ErrMempoolConflict = errors.New("chain: conflicts with mempool transaction")
	// ErrAlreadyPooled reports a duplicate submission.
	ErrAlreadyPooled = errors.New("chain: transaction already in mempool")
)

// NewMempool returns an empty pool.
func NewMempool() *Mempool {
	return &Mempool{
		txs:      make(map[Hash]*Tx),
		orderIdx: make(map[Hash]int),
		spends:   make(map[OutPoint]Hash),
		short:    make(map[uint64][]Hash),
		verifier: newVerifier(),
	}
}

// UseVerifier shares a script verifier (typically Chain.Verifier()) with
// the pool, so admission verifications populate the same signature cache
// block connect consults.
func (m *Mempool) UseVerifier(v *Verifier) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.verifier = v
}

// Instrument registers the pool's metrics in reg (admissions, rejects
// by reason, size gauge, admission latency). Call once, before the pool
// sees concurrent use; a nil registry is a no-op.
func (m *Mempool) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.metrics = newMempoolMetrics(reg)
	m.metrics.size.Set(int64(len(m.txs)))
}

// Accept validates tx against the provided UTXO view (spendability and
// scripts) and against pooled spends, then admits it. Outputs created by
// pooled transactions are spendable — the gateway's claim chains onto the
// recipient's still-unconfirmed payment (Fig. 3 steps 9–10, the paper's
// deliberate zero-confirmation choice discussed in §6).
//
// utxo is only read, never mutated: pooled transactions are layered on
// top through a copy-on-write overlay, so callers can pass the chain's
// live set from inside Chain.ReadState without cloning it.
func (m *Mempool) Accept(tx *Tx, utxo UTXOReader, height int64, params Params) error {
	id := tx.ID()

	m.mu.Lock()
	defer m.mu.Unlock()
	var start time.Time
	if m.metrics != nil {
		start = time.Now()
	}
	err := m.acceptLocked(tx, id, utxo, height, params)
	if mm := m.metrics; mm != nil {
		mm.acceptSeconds.ObserveSince(start)
		if err == nil {
			mm.admitted.Inc()
			mm.size.Set(int64(len(m.txs)))
		} else {
			mm.rejectCounter(err).Inc()
		}
	}
	return err
}

func (m *Mempool) acceptLocked(tx *Tx, id Hash, utxo UTXOReader, height int64, params Params) error {
	if tx.IsCoinbase() {
		return ErrBadCoinbase
	}
	if _, dup := m.txs[id]; dup {
		return ErrAlreadyPooled
	}
	for _, in := range tx.Inputs {
		if prior, spent := m.spends[in.Prev]; spent {
			return fmt.Errorf("%w: %s already spent by %s", ErrMempoolConflict, in.Prev, prior)
		}
	}
	// Validate against the persistent confirmed+pooled overlay, so
	// chained unconfirmed spends connect. The overlay is extended by
	// exactly this transaction on success — the previous code rebuilt
	// it from the whole pool on every call, which made a burst of n
	// admissions O(n²).
	view := m.overlayLocked(utxo, height)
	if _, err := ConnectTxVerified(view, tx, height+1, params.CoinbaseMaturity, params.VerifyScripts, m.verifier); err != nil {
		return err
	}
	if err := view.ApplyTx(tx, height+1); err != nil {
		// ApplyTx mutates the overlay before it can fail (inputs are
		// spent before the duplicate-output check), so a partial
		// application poisons it for the next admission.
		m.overlay = nil
		return err
	}
	m.addLocked(id, tx)
	return nil
}

// overlayLocked returns the persistent confirmed+pooled view, rebuilding
// it when the base state or tip height moved or a removal invalidated
// it; the caller holds m.mu.
func (m *Mempool) overlayLocked(utxo UTXOReader, height int64) *UTXOView {
	if m.overlay != nil && m.overlayBase == utxo && m.overlayHeight == height {
		return m.overlay
	}
	view := NewUTXOView(utxo)
	for _, poolID := range m.order {
		if pooled, ok := m.txs[poolID]; ok {
			// Pooled txs were validated on entry; application can
			// only fail if the chain moved under us, in which case
			// the stale tx is simply not part of the view.
			_ = view.ApplyTx(pooled, height+1)
		}
	}
	m.overlay, m.overlayBase, m.overlayHeight = view, utxo, height
	return view
}

// addLocked records an admitted transaction in every index; the caller
// holds m.mu and has already validated the transaction.
func (m *Mempool) addLocked(id Hash, tx *Tx) {
	m.txs[id] = tx
	m.orderIdx[id] = len(m.order)
	m.order = append(m.order, id)
	for _, in := range tx.Inputs {
		m.spends[in.Prev] = id
	}
	sid := ShortTxID(id)
	m.short[sid] = append(m.short[sid], id)
}

// ForceReplace admits tx, evicting any pooled transactions that conflict
// with it. This models a malicious actor with miner access replacing a
// payment with a double spend (the §6 attack simulation); honest nodes
// never call it.
func (m *Mempool) ForceReplace(tx *Tx) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, in := range tx.Inputs {
		if prior, ok := m.spends[in.Prev]; ok {
			m.removeLocked(prior)
		}
	}
	id := tx.ID()
	if _, dup := m.txs[id]; dup {
		return
	}
	m.addLocked(id, tx)
	// The replacement skipped validation, so the incremental overlay no
	// longer mirrors the pool.
	m.overlay = nil
	m.compactOrderLocked()
	if m.metrics != nil {
		m.metrics.size.Set(int64(len(m.txs)))
	}
}

// Spendable returns the coins the given pubkey-hash can spend on top of
// the pool, as a small private set: its confirmed coins (utxo's
// pubkey-hash index) and the outputs pooled transactions pay it —
// unconfirmed change included — minus every outpoint a pooled
// transaction already claims, which Accept would refuse as a conflict.
// It reads the same persistent overlay Accept validates against, so the
// cost follows the wallet and the pool, never the size of utxo. Call it
// where Accept is called: inside Chain.ReadState, with the live set and
// tip height.
func (m *Mempool) Spendable(hash [script.HashLen]byte, utxo *UTXOSet, height int64) *UTXOSet {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewUTXOSet()
	offer := func(op OutPoint, e UTXOEntry) {
		if _, claimed := m.spends[op]; !claimed {
			out.put(op, e)
		}
	}
	for _, op := range utxo.byHash[hash] {
		offer(op, utxo.entries[op])
	}
	for op, e := range m.overlayLocked(utxo, height).created {
		if h, err := script.ExtractP2PKHHash(e.Out.Lock); err == nil && h == hash {
			offer(op, e)
		}
	}
	return out
}

// ExtendView applies every pooled transaction, in arrival order, to the
// given UTXO set — producing the "effective" spendable view a wallet
// sees, including unconfirmed change. Stale pooled transactions that no
// longer connect are skipped.
func (m *Mempool) ExtendView(view *UTXOSet, height int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range m.order {
		if tx, ok := m.txs[id]; ok {
			_ = view.ApplyTx(tx, height+1)
		}
	}
}

// Get returns a pooled transaction.
func (m *Mempool) Get(id Hash) (*Tx, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx, ok := m.txs[id]
	return tx, ok
}

// GetByShort returns every pooled transaction whose txid abbreviates to
// the given compact-relay short id — normally zero or one; more than
// one is a collision the reconstruction treats as missing.
func (m *Mempool) GetByShort(sid uint64) []*Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := m.short[sid]
	if len(ids) == 0 {
		return nil
	}
	out := make([]*Tx, 0, len(ids))
	for _, id := range ids {
		if tx, ok := m.txs[id]; ok {
			out = append(out, tx)
		}
	}
	return out
}

// Contains reports whether the transaction is pooled.
func (m *Mempool) Contains(id Hash) bool {
	_, ok := m.Get(id)
	return ok
}

// Len reports the pool size.
func (m *Mempool) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.txs)
}

// Select returns up to max transactions in arrival order for block
// building.
func (m *Mempool) Select(max int) []*Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Tx, 0, min(max, len(m.order)))
	for _, id := range m.order {
		if len(out) >= max {
			break
		}
		if tx, ok := m.txs[id]; ok {
			out = append(out, tx)
		}
	}
	return out
}

// RemoveConfirmed drops every pooled transaction included in the block,
// plus any transaction that conflicts with the block's spends.
func (m *Mempool) RemoveConfirmed(b *Block) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, tx := range b.Txs {
		m.removeLocked(tx.ID())
		for _, in := range tx.Inputs {
			if prior, ok := m.spends[in.Prev]; ok {
				m.removeLocked(prior)
			}
		}
	}
	m.compactOrderLocked()
	if m.metrics != nil {
		m.metrics.size.Set(int64(len(m.txs)))
	}
}

func (m *Mempool) removeLocked(id Hash) {
	tx, ok := m.txs[id]
	if !ok {
		return
	}
	delete(m.txs, id)
	for _, in := range tx.Inputs {
		if m.spends[in.Prev] == id {
			delete(m.spends, in.Prev)
		}
	}
	if i, ok := m.orderIdx[id]; ok {
		m.order[i] = Hash{}
		delete(m.orderIdx, id)
		m.tomb++
	}
	sid := ShortTxID(id)
	ids := m.short[sid]
	for i, h := range ids {
		if h == id {
			m.short[sid] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(m.short[sid]) == 0 {
		delete(m.short, sid)
	}
	// The removed transaction's effects are baked into the incremental
	// overlay; drop it so the next Accept rebuilds from the live pool.
	m.overlay = nil
}

// compactOrderLocked rewrites order without tombstones once they reach
// half the slice, keeping removal amortized O(1); the caller holds m.mu.
func (m *Mempool) compactOrderLocked() {
	if m.tomb*2 < len(m.order) {
		return
	}
	live := m.order[:0]
	for _, id := range m.order {
		if id != (Hash{}) {
			m.orderIdx[id] = len(live)
			live = append(live, id)
		}
	}
	m.order = live
	m.tomb = 0
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
