package daemon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"bcwan/internal/chain"
	"bcwan/internal/durable"
)

// Chain persistence, in the durable package's format: an fsync'd
// append-only block log plus a periodic snapshot. Steady-state cost is
// O(1) per block; restart cost is O(snapshot) map work plus full
// validation of the short log tail. A torn final record — the crash
// case — is detected by CRC and truncated away.
//
// The snapshot has one layout, the pruned one: the prune base, the
// headers up to it, the UTXO set at it, full blocks above it, and the tip
// set's hash as an integrity check. An unpruned chain has base 0: no
// headers and no base set, since the genesis block defines that set.
// Restoring installs a non-zero base through the chain's trusted snapshot
// path, so a pruned gateway restarts without the bodies it dropped.

// logMagic and snapMagic head blocks.log and snapshot.dat. The unpruned
// BCWANSNAP1 snapshot generation is no longer read.
var (
	logMagic  = []byte("BCWANLOG1\n")
	snapMagic = []byte("BCWANSNAP2\n")
)

// ErrBadStore reports an unreadable chain file.
var ErrBadStore = errors.New("daemon: malformed chain store")

// maxStoredBlock bounds a single log record.
const maxStoredBlock = 64 << 20

// Store is the incremental chain store: blocks.log receives one record
// per best-branch connect, snapshot.dat holds the last compaction point.
// Restart loads the snapshot through the trusted fast path and replays
// only the log tail through full validation.
//
// Every node has one writer — the chain's subscription callback — so
// AppendBlock is one write and one fsync under the store mutex, and it
// returns only once its record is on stable storage.
//
// Store methods are safe for concurrent use; appends arriving from
// racing callbacks serialize on the mutex, so log order is not
// guaranteed to be chain order — Load's replay is order-tolerant.
type Store struct {
	// mu guards the log and everything written through it (appends,
	// replay, a compaction's snapshot write and log reset).
	mu      sync.Mutex
	dir     string
	log     *durable.Log
	closed  bool
	records int
}

// errStoreClosed reports a write against a closed store.
var errStoreClosed = errors.New("daemon: store closed")

// OpenStore opens (creating if needed) the incremental store in dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: open store: %w", err)
	}
	log, err := durable.OpenLog(filepath.Join(dir, "blocks.log"), logMagic, maxStoredBlock)
	if err != nil {
		return nil, storeErr("open store", err)
	}
	return &Store{dir: dir, log: log}, nil
}

// storeErr wraps a failure of the durable layer, reporting a corrupt file
// as ErrBadStore.
func storeErr(op string, err error) error {
	if errors.Is(err, durable.ErrCorrupt) {
		return fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	return fmt.Errorf("daemon: %s: %w", op, err)
}

// Syncs returns how many log fsyncs the store's appends have issued.
func (s *Store) Syncs() uint64 { return s.log.Syncs() }

// LogRecords returns the number of block records currently in the log
// (valid records found at load time plus appends since). Compact resets
// it to zero.
func (s *Store) LogRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
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
	raw := b.Serialize()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errStoreClosed
	}
	if err := s.log.Append(raw); err != nil {
		return fmt.Errorf("daemon: append block: %w", err)
	}
	s.records++
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
	return s.log.CrashForTest(b.Serialize(), tornBytes)
}

// Load restores the chain from the snapshot (if present) and the log
// tail. Snapshot blocks connect through the trusted fast path — script
// verification is skipped, every other rule still runs — and the
// rebuilt tip set must hash to the one the snapshot recorded. Log-tail
// blocks go through full validation. A torn or corrupt tail record is
// truncated away (the crash-recovery path), not treated as an error.
//
// The replay is multi-pass because appends can land out of chain order:
// blocks whose parent has not connected yet are retried until a full
// pass makes no progress. Returns the number of blocks connected.
func (s *Store) Load(c *chain.Chain) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	loaded, err := s.loadSnapshot(c)
	if err != nil {
		return loaded, err
	}
	tail, err := s.replayLog(c)
	return loaded + tail, err
}

// loadSnapshot restores snapshot.dat if it exists.
func (s *Store) loadSnapshot(c *chain.Chain) (int, error) {
	body, err := durable.ReadFile(filepath.Join(s.dir, "snapshot.dat"), snapMagic)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, storeErr("load snapshot", err)
	}
	r := bytes.NewBuffer(body)
	var base int64
	var nHeaders uint32
	if binary.Read(r, binary.BigEndian, &base) != nil || binary.Read(r, binary.BigEndian, &nHeaders) != nil {
		return 0, errTruncated
	}
	if int64(nHeaders) != base {
		return 0, fmt.Errorf("%w: %d headers for prune base %d", ErrBadStore, nHeaders, base)
	}
	var headers []*chain.Header
	for range nHeaders {
		raw, err := nextItem(r)
		if err != nil {
			return 0, err
		}
		h, err := chain.DeserializeHeader(raw)
		if err != nil {
			return 0, fmt.Errorf("daemon: load snapshot: %w", err)
		}
		headers = append(headers, h)
	}
	if base > 0 {
		utxo, err := chain.DeserializeUTXO(r)
		if err != nil {
			return 0, fmt.Errorf("daemon: load snapshot: %w", err)
		}
		if err := c.InitFromSnapshot(headers, utxo); err != nil {
			return 0, fmt.Errorf("daemon: load snapshot: %w", err)
		}
	}
	loaded := len(headers)
	var nBlocks uint32
	if binary.Read(r, binary.BigEndian, &nBlocks) != nil {
		return loaded, errTruncated
	}
	for range nBlocks {
		raw, err := nextItem(r)
		if err != nil {
			return loaded, err
		}
		b, err := chain.DeserializeBlock(raw)
		if err != nil {
			return loaded, fmt.Errorf("daemon: load snapshot: %w", err)
		}
		if err := c.AddBlockTrusted(b); err != nil {
			if errors.Is(err, chain.ErrDuplicateBlock) {
				continue
			}
			return loaded, fmt.Errorf("daemon: load snapshot height %d: %w", b.Header.Height, err)
		}
		loaded++
	}
	if r.Len() != len(chain.Hash{}) {
		return loaded, fmt.Errorf("%w: %d bytes where the tip-set hash belongs", ErrBadStore, r.Len())
	}
	// The recorded tip-set hash must match the state the trusted replay
	// rebuilt — the integrity check that makes skipping script
	// verification on restore safe to trust.
	if _, h := tipState(c); !bytes.Equal(h[:], r.Bytes()) {
		return loaded, fmt.Errorf("%w: snapshot UTXO set does not match replayed chain state", ErrBadStore)
	}
	return loaded, nil
}

// errTruncated reports a snapshot body that ends mid-field.
var errTruncated = fmt.Errorf("%w: snapshot body truncated", ErrBadStore)

// nextItem reads one length-prefixed snapshot item.
func nextItem(r *bytes.Buffer) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil || int64(n) > int64(r.Len()) {
		return nil, errTruncated
	}
	return r.Next(int(n)), nil
}

// replayLog replays every intact log record through full validation;
// the log cuts itself at the first torn or corrupt record.
func (s *Store) replayLog(c *chain.Chain) (int, error) {
	recs, err := s.log.Replay()
	if err != nil {
		return 0, storeErr("replay log", err)
	}
	s.records = len(recs)
	pending := make([]*chain.Block, 0, len(recs))
	for _, raw := range recs {
		b, err := chain.DeserializeBlock(raw)
		if err != nil {
			return 0, fmt.Errorf("%w: log record: %v", ErrBadStore, err)
		}
		pending = append(pending, b)
	}

	// Multi-pass connect: appends may be out of chain order, so retry
	// parent-missing blocks until a pass admits nothing.
	loaded := 0
	for progressed := true; progressed && len(pending) > 0; {
		progressed = false
		next := pending[:0]
		for _, b := range pending {
			switch err := c.AddBlock(b); {
			case err == nil:
				loaded++
				progressed = true
			case errors.Is(err, chain.ErrDuplicateBlock):
				progressed = true
			case errors.Is(err, chain.ErrBadPrevBlock):
				next = append(next, b)
			default:
				return loaded, fmt.Errorf("daemon: replay log height %d: %w", b.Header.Height, err)
			}
		}
		pending = next
	}
	// Blocks whose ancestors never made it to disk (lost in the same
	// crash that tore the tail) stay unconnected; gossip anti-entropy
	// refills the gap at runtime.
	return loaded, nil
}

// Compact writes a fresh snapshot of the chain's best branch, then resets
// the log. It reads the chain under the mutex every append completes
// under, so each block whose append returned is in the snapshot or
// appended after the reset, never dropped by it. Crash-safe ordering: the
// snapshot is durable before the log is reset — so a crash in between
// leaves duplicate blocks in the log, which replay tolerates, never
// missing ones.
func (s *Store) Compact(c *chain.Chain) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("daemon: compact: %w", errStoreClosed)
	}
	body, err := snapshotBody(c)
	if err != nil {
		return err
	}
	if err := durable.WriteFile(filepath.Join(s.dir, "snapshot.dat"), snapMagic, body); err != nil {
		return fmt.Errorf("daemon: compact: %w", err)
	}
	if err := s.log.Reset(); err != nil {
		return fmt.Errorf("daemon: compact: reset log: %w", err)
	}
	s.records = 0
	return nil
}

// snapshotBody serializes the snapshot: the prune base, the headers up
// to it, the UTXO set at it (none at base 0), the blocks above it up to
// the tip, and the tip set's hash. Never StateAt(0): at base 0 it would
// unwind the whole chain on every compaction.
func snapshotBody(c *chain.Chain) ([]byte, error) {
	base := c.PruneBase()
	height, tipHash := tipState(c)
	// A bytes.Buffer doubles as it grows; a whole-chain body appended to
	// a slice would be copied at 1.25x steps instead.
	var body bytes.Buffer
	var n [8]byte
	body.Write(binary.BigEndian.AppendUint64(n[:0], uint64(base)))
	body.Write(binary.BigEndian.AppendUint32(n[:0], uint32(base)))
	if err := writeItems(&body, c, 1, base, func(b *chain.Block) []byte { return b.Header.Serialize() }); err != nil {
		return nil, err
	}
	if base > 0 {
		baseState, err := c.StateAt(base)
		if err != nil {
			return nil, fmt.Errorf("daemon: compact: %w", err)
		}
		body.Write(baseState.SerializeUTXO())
	}
	body.Write(binary.BigEndian.AppendUint32(n[:0], uint32(height-base)))
	if err := writeItems(&body, c, base+1, height, (*chain.Block).Serialize); err != nil {
		return nil, err
	}
	body.Write(tipHash[:])
	return body.Bytes(), nil
}

// writeItems writes enc of every best-branch block in heights [from, to],
// each prefixed with its length.
func writeItems(body *bytes.Buffer, c *chain.Chain, from, to int64, enc func(*chain.Block) []byte) error {
	var n [4]byte
	for h := from; h <= to; h++ {
		b, ok := c.BlockAt(h)
		if !ok {
			return fmt.Errorf("daemon: compact: missing height %d", h)
		}
		raw := enc(b)
		body.Write(binary.BigEndian.AppendUint32(n[:0], uint32(len(raw))))
		body.Write(raw)
	}
	return nil
}

// tipState returns the tip height and the snapshot hash of the tip UTXO
// set, read together under the chain's read lock.
func tipState(c *chain.Chain) (int64, chain.Hash) {
	var height int64
	var h chain.Hash
	c.ReadState(func(tip *chain.Block, utxo *chain.UTXOSet) {
		height, h = tip.Header.Height, chain.SnapshotHash(utxo.SerializeUTXO())
	})
	return height, h
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
