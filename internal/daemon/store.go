package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"bcwan/internal/chain"
	"bcwan/internal/durable"
)

// Chain persistence, in the durable package's format: blocks.log is the
// chain store's only file. Every best-branch connect appends one fsync'd
// block record. Every StoreCompactEvery appends, Compact appends one
// checkpoint record: the tip ID and the digest of the tip UTXO set. When
// the prune base has moved (a pruned gateway, a snapshot install),
// Compact instead rewrites the log atomically as the base state — one
// record per header up to the base, then the UTXO set at the base in
// chunks — followed by the best-branch blocks above the base and a
// checkpoint. So a connect costs one record whether or not the node
// prunes, and a rewrite O(PruneDepth + StoreCompactEvery) bodies.
//
// Load replays the log once. The base state installs through the chain's
// trusted snapshot path; blocks before the last checkpoint connect
// through the trusted fast path (script verification skipped), and the
// rebuilt tip and tip set must match that checkpoint; blocks after it go
// through full validation. A torn final record — the crash case — is cut
// by CRC.

// logMagic heads blocks.log. A BCWANLOG1 log, and the snapshot.dat that
// sat beside it, belong to the two-file layout and are refused.
var logMagic = []byte("BCWANLOG2\n")

// Record kinds. A record's kind is its last byte, so a block record is
// its serialization with one byte appended, not copied behind a prefix.
const (
	recHeader     = 'h' // one header at or below the prune base
	recUTXO       = 'u' // one chunk of the UTXO set at the prune base
	recBlock      = 'b' // one best-branch block
	recCheckpoint = 'c' // the tip ID, then the tip-set digest
)

// ErrBadStore reports an unreadable chain file.
var ErrBadStore = errors.New("daemon: malformed chain store")

// maxStoredBlock bounds a single log record; utxoChunk splits a base
// UTXO set into records well inside it.
const (
	maxStoredBlock = 64 << 20
	utxoChunk      = 1 << 20
)

// Store is the chain store. Every node has one writer — the chain's
// subscription callback — so AppendBlock is one write and one fsync under
// the store mutex, and it returns only once its record is on stable
// storage.
//
// Store methods are safe for concurrent use. Callbacks run outside the
// chain lock, so racing appends can land out of chain order; Load's
// replay is order-tolerant, and Compact checkpoints a tip only once the
// log holds every block below it.
type Store struct {
	// mu guards the log and the state below, which describes it.
	mu     sync.Mutex
	log    *durable.Log
	closed bool
	// base is the prune base of the log's base state (0: none; -1 after
	// a failed append, so the next Compact rewrites).
	base int64
	// cp is the tip the last checkpoint (or the base) vouches for, at
	// height cpHeight; since holds the blocks appended after it, last
	// the latest of them.
	cp       chain.Hash
	cpHeight int64
	since    map[chain.Hash]bool
	last     chain.Hash
}

// errStoreClosed reports a write against a closed store.
var errStoreClosed = errors.New("daemon: store closed")

// OpenStore opens (creating if needed) the chain store in dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: open store: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.dat")); err == nil {
		return nil, fmt.Errorf("%w: %s is from the two-file layout; the chain now lives in blocks.log alone", ErrBadStore, filepath.Join(dir, "snapshot.dat"))
	}
	log, err := durable.OpenLog(filepath.Join(dir, "blocks.log"), logMagic, maxStoredBlock)
	if err != nil {
		return nil, storeErr("open store", err)
	}
	return &Store{log: log, since: map[chain.Hash]bool{}}, nil
}

// storeErr wraps a failure of the durable layer, reporting a corrupt file
// as ErrBadStore.
func storeErr(op string, err error) error {
	if errors.Is(err, durable.ErrCorrupt) {
		return fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	return fmt.Errorf("daemon: %s: %w", op, err)
}

// badStore reports log content Load cannot trust.
func badStore(format string, args ...any) error {
	return fmt.Errorf("%w: blocks.log: %s", ErrBadStore, fmt.Sprintf(format, args...))
}

// Syncs returns how many log fsyncs the store's appends have issued.
func (s *Store) Syncs() uint64 { return s.log.Syncs() }

// LogRecords returns the number of blocks appended since the last
// checkpoint (found at load time, or appended since). Compact resets it
// to zero when it writes a checkpoint.
func (s *Store) LogRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.since)
}

// Close closes the log file. Every returned append is already durable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}

// AppendBlock durably appends one block to the log: the call returns
// only after the record is written and fsync'd.
func (s *Store) AppendBlock(b *chain.Block) error {
	raw := append(b.Serialize(), recBlock)
	id := b.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errStoreClosed
	}
	if err := s.log.Append(raw); err != nil {
		// No checkpoint can cover the lost block; make the next Compact
		// rewrite the log from the chain in memory instead.
		s.base = -1
		return fmt.Errorf("daemon: append block: %w", err)
	}
	s.since[id], s.last = true, id
	return nil
}

// CrashForTest simulates a power cut mid-append: the store is marked
// closed, a torn prefix of one more record is left on disk without any
// fsync, and the file is closed. Recovery is Load's job: it must
// truncate the torn tail and keep every record whose append returned
// before the crash.
func (s *Store) CrashForTest(b *chain.Block, tornBytes int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errStoreClosed
	}
	s.closed = true
	return s.log.CrashForTest(append(b.Serialize(), recBlock), tornBytes)
}

// Load restores the chain from the log and returns the number of blocks
// connected (base headers included). A torn or corrupt tail record is
// cut away (the crash-recovery path), not treated as an error; content
// that cannot be trusted is ErrBadStore.
func (s *Store) Load(c *chain.Chain) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs, err := s.log.Replay()
	if err != nil {
		return 0, storeErr("replay log", err)
	}
	var headers []*chain.Header
	var utxo [][]byte
	var blocks []*chain.Block
	var cp []byte
	trusted := 0
	for _, rec := range recs {
		if len(rec) == 0 {
			return 0, badStore("empty record")
		}
		kind, body := rec[len(rec)-1], rec[:len(rec)-1]
		if (kind == recHeader || kind == recUTXO) && (len(blocks) > 0 || cp != nil) {
			return 0, badStore("base state after the chain")
		}
		switch {
		case kind == recHeader:
			h, err := chain.DeserializeHeader(body)
			if err != nil {
				return 0, badStore("header: %v", err)
			}
			headers = append(headers, h)
		case kind == recUTXO:
			utxo = append(utxo, body)
		case kind == recBlock:
			b, err := chain.DeserializeBlock(body)
			if err != nil {
				return 0, badStore("block: %v", err)
			}
			blocks = append(blocks, b)
		case kind == recCheckpoint && len(body) == 2*len(chain.Hash{}):
			cp, trusted = body, len(blocks)
		default:
			return 0, badStore("record of kind %q and %d bytes", kind, len(rec))
		}
	}
	loaded, err := installBase(c, headers, utxo)
	if err != nil {
		return 0, err
	}
	n, err := connectAll(blocks[:trusted:trusted], c.AddBlockTrusted)
	loaded += n
	if err != nil {
		return loaded, err
	}
	// The checkpoint must name the state the trusted replay rebuilt — the
	// integrity check that makes skipping script verification safe.
	tip, hash := tipState(c)
	if cp != nil && (tip.ID() != chain.Hash(cp[:32]) || hash != chain.Hash(cp[32:])) {
		return loaded, badStore("checkpoint does not match the replayed chain (tip height %d)", tip.Header.Height)
	}
	s.base, s.cp, s.cpHeight, s.last = c.PruneBase(), tip.ID(), tip.Header.Height, tip.ID()
	clear(s.since)
	for _, b := range blocks[trusted:] {
		s.since[b.ID()], s.last = true, b.ID()
	}
	n, err = connectAll(blocks[trusted:], c.AddBlock)
	return loaded + n, err
}

// installBase installs the log's base state, if it has one, through the
// chain's trusted snapshot path.
func installBase(c *chain.Chain, headers []*chain.Header, chunks [][]byte) (int, error) {
	if len(headers) == 0 && len(chunks) == 0 {
		return 0, nil
	}
	r := bytes.NewReader(bytes.Join(chunks, nil))
	utxo, err := chain.DeserializeUTXO(r)
	if err == nil && r.Len() != 0 {
		err = fmt.Errorf("%d bytes after the UTXO set", r.Len())
	}
	if err == nil {
		err = c.InitFromSnapshot(headers, utxo)
	}
	if err != nil {
		return 0, badStore("base state: %v", err)
	}
	return len(headers), nil
}

// connectAll connects blocks through add. Appends can land out of chain
// order, so blocks whose parent has not connected yet are retried until a
// pass admits nothing; those whose ancestors never reached the log (lost
// with a torn tail) stay unconnected, and gossip refills the gap.
func connectAll(pending []*chain.Block, add func(*chain.Block) error) (int, error) {
	loaded := 0
	for progressed := true; progressed && len(pending) > 0; {
		progressed = false
		next := pending[:0]
		for _, b := range pending {
			switch err := add(b); {
			case err == nil:
				loaded++
				progressed = true
			case errors.Is(err, chain.ErrDuplicateBlock):
				progressed = true
			case errors.Is(err, chain.ErrBadPrevBlock):
				next = append(next, b)
			default:
				return loaded, fmt.Errorf("%w: blocks.log height %d: %w", ErrBadStore, b.Header.Height, err)
			}
		}
		pending = next
	}
	return loaded, nil
}

// Compact records the chain's tip in the log. While the prune base stays
// where the log's base state put it, that is one checkpoint record,
// written only when the tip is the last block appended and every block
// between it and the previous checkpoint is in the log; otherwise a
// callback's append is still in flight, and the next append retries.
// When the base has moved, a reorg forked below the previous checkpoint
// or an append failed, Compact rewrites the log instead.
//
// It runs under the mutex every append completes under, so each block
// whose append returned is in the rewritten log or appended after it,
// never dropped; a crash mid-rewrite leaves the old log or the new one.
func (s *Store) Compact(c *chain.Chain) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("daemon: compact: %w", errStoreClosed)
	}
	tip, hash := tipState(c)
	id := tip.ID()
	if base := c.PruneBase(); base != s.base {
		return s.rewrite(c, base, tip, hash)
	}
	if id == s.cp || id != s.last {
		return nil
	}
	for b := tip; b.ID() != s.cp; {
		if !s.since[b.ID()] {
			if b.Header.Height > s.cpHeight {
				return nil
			}
			return s.rewrite(c, s.base, tip, hash)
		}
		parent, ok := c.BlockByID(b.Header.PrevBlock)
		if !ok {
			return s.rewrite(c, s.base, tip, hash)
		}
		b = parent
	}
	if err := s.log.Append(checkpoint(id, hash)); err != nil {
		return fmt.Errorf("daemon: compact: %w", err)
	}
	s.cp, s.cpHeight = id, tip.Header.Height
	clear(s.since)
	return nil
}

// rewrite replaces the log with the base state at base, the best-branch
// blocks above it up to tip, and a checkpoint of tip.
func (s *Store) rewrite(c *chain.Chain, base int64, tip *chain.Block, hash chain.Hash) error {
	var recs [][]byte
	for h := int64(1); h <= base; h++ {
		b, ok := c.BlockAt(h)
		if !ok {
			return fmt.Errorf("daemon: compact: missing height %d", h)
		}
		recs = append(recs, append(b.Header.Serialize(), recHeader))
	}
	if base > 0 {
		state, err := c.StateAt(base)
		if err != nil {
			return fmt.Errorf("daemon: compact: %w", err)
		}
		for _, chunk := range SnapshotChunks(state.SerializeUTXO(), utxoChunk) {
			recs = append(recs, append(chunk, recUTXO))
		}
	}
	// Walk down from the tip by parent ID, not by height, so a reorg
	// racing the walk cannot splice two branches.
	var above []*chain.Block
	for b := tip; b.Header.Height > base; {
		above = append(above, b)
		parent, ok := c.BlockByID(b.Header.PrevBlock)
		if !ok || (parent.Header.Height > base && len(parent.Txs) == 0) {
			return fmt.Errorf("daemon: compact: body at height %d gone", b.Header.Height-1)
		}
		b = parent
	}
	for i := len(above) - 1; i >= 0; i-- {
		recs = append(recs, append(above[i].Serialize(), recBlock))
	}
	id := tip.ID()
	if err := s.log.Rewrite(append(recs, checkpoint(id, hash))); err != nil {
		return fmt.Errorf("daemon: compact: rewrite log: %w", err)
	}
	s.base, s.cp, s.cpHeight, s.last = base, id, tip.Header.Height, id
	clear(s.since)
	return nil
}

// checkpoint encodes a checkpoint record.
func checkpoint(tip, tipSet chain.Hash) []byte {
	return append(append(tip[:], tipSet[:]...), recCheckpoint)
}

// tipState returns the tip and the digest of the tip UTXO set, read
// together under the chain's read lock. The digest is kept current by
// every UTXO mutation, so a checkpoint costs O(1), not O(live coins).
func tipState(c *chain.Chain) (*chain.Block, chain.Hash) {
	var tip *chain.Block
	var h chain.Hash
	c.ReadState(func(b *chain.Block, utxo *chain.UTXOSet) {
		tip, h = b, utxo.Digest()
	})
	return tip, h
}

// SnapshotChunks splits a serialized snapshot into fixed-size chunks
// for piecewise transfer; the final chunk carries the remainder.
func SnapshotChunks(data []byte, chunkSize int) [][]byte {
	if chunkSize <= 0 {
		chunkSize = 64 << 10
	}
	var chunks [][]byte
	for len(data) > chunkSize {
		chunks = append(chunks, data[:chunkSize:chunkSize])
		data = data[chunkSize:]
	}
	return append(chunks, data)
}

// AssembleSnapshot reassembles downloaded chunks, verifies them against
// the commitment (total size, then the committed hash), and decodes the
// UTXO set. Any mismatch rejects the whole download — a joiner never
// installs bytes the commitment does not vouch for.
func AssembleSnapshot(commit *chain.SnapshotCommitment, chunks [][]byte) (*chain.UTXOSet, error) {
	total := 0
	for _, ch := range chunks {
		total += len(ch)
	}
	if int64(total) != commit.UTXOSize {
		return nil, fmt.Errorf("%w: assembled %d bytes, commitment says %d", chain.ErrBadCommitment, total, commit.UTXOSize)
	}
	data := bytes.Join(chunks, nil)
	if chain.SnapshotHash(data) != commit.UTXOHash {
		return nil, fmt.Errorf("%w: snapshot hash mismatch", chain.ErrBadCommitment)
	}
	r := bytes.NewReader(data)
	u, err := chain.DeserializeUTXO(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", chain.ErrBadCommitment, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", chain.ErrBadCommitment, r.Len())
	}
	return u, nil
}
