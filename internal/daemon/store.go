package daemon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"bcwan/internal/chain"
)

// Chain persistence: an fsync'd append-only block log plus a periodic
// snapshot (blocks + serialized UTXO set). Steady-state cost is O(1)
// per block; restart cost is O(snapshot) map work plus full validation
// of the short log tail. A torn final record — the crash case — is
// detected by CRC and truncated away.
//
// Snapshot generations:
//
//   - v1 (snapMagic): every best-branch block from height 1 plus the tip
//     UTXO set. Written by unpruned nodes.
//   - v2 (snapMagic2): the pruned form — headers only up to the prune
//     base, the UTXO set at the base, full blocks above it, and the tip
//     set's hash as an integrity cross-check. Written once the chain has
//     a pruned horizon; restoring installs the base through the chain's
//     trusted snapshot path, so a pruned gateway restarts without the
//     bodies it deliberately dropped.

// logMagic and snapMagic/snapMagic2 head the incremental store's files.
var (
	logMagic   = []byte("BCWANLOG1\n")
	snapMagic  = []byte("BCWANSNAP1\n")
	snapMagic2 = []byte("BCWANSNAP2\n")
)

// ErrBadStore reports an unreadable chain file.
var ErrBadStore = errors.New("daemon: malformed chain store")

// maxStoredBlock bounds a single record so a corrupt length prefix
// cannot trigger a huge allocation.
const maxStoredBlock = 64 << 20

// Store is the incremental chain store: blocks.log receives one
// CRC-framed record per best-branch connect, snapshot.dat holds the last
// compaction point (all best-branch blocks plus the serialized UTXO set
// at that height). Restart loads the snapshot through the trusted fast
// path and replays only the log tail through full validation.
//
// Every node has one writer — the chain's subscription callback — so
// AppendBlock is one write and one fsync under the store mutex, and it
// returns only once its record is on stable storage.
//
// Store methods are safe for concurrent use; appends arriving from
// racing callbacks serialize on the mutex, so log order is not
// guaranteed to be chain order — Load's replay is order-tolerant.
type Store struct {
	// mu guards the log fd and everything written through it (appends,
	// truncation, snapshot renames, replay). A nil log means closed.
	mu      sync.Mutex
	dir     string
	log     *os.File
	records int

	// syncs counts log fsyncs issued by appends.
	syncs atomic.Uint64
}

// errStoreClosed reports an append against a closed store.
var errStoreClosed = errors.New("daemon: append block: store closed")

// dirSyncHook, when non-nil, observes every directory fsync — a test
// hook for asserting the fresh-log and rename durability windows.
var dirSyncHook func(dir string)

// OpenStore opens (creating if needed) the incremental store in dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: open store: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "blocks.log"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("daemon: open store: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("daemon: open store: %w", err)
	}
	if info.Size() == 0 {
		if _, err := f.Write(logMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("daemon: open store: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("daemon: open store: %w", err)
		}
		// The log file itself was just created: fsync the directory so
		// a crash before the first compaction cannot lose the file (a
		// synced file in an unsynced directory is unreachable after
		// power loss). Snapshot renames get the same treatment in
		// Compact; this covers the fresh-store window.
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, fmt.Errorf("daemon: open store: %w", err)
		}
	} else {
		magic := make([]byte, len(logMagic))
		if _, err := io.ReadFull(f, magic); err != nil || string(magic) != string(logMagic) {
			f.Close()
			return nil, fmt.Errorf("%w: bad log magic", ErrBadStore)
		}
	}
	return &Store{dir: dir, log: f}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Syncs returns how many log fsyncs the store has issued.
func (s *Store) Syncs() uint64 { return s.syncs.Load() }

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
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// encodeRecord frames one block for the log:
// [len u32][crc32 u32][serialized block].
func encodeRecord(b *chain.Block) []byte {
	raw := b.Serialize()
	rec := make([]byte, 8+len(raw))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(raw)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(raw))
	copy(rec[8:], raw)
	return rec
}

// AppendBlock durably appends one block to the log: the call returns
// only after the record is written and fsync'd.
func (s *Store) AppendBlock(b *chain.Block) error {
	rec := encodeRecord(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return errStoreClosed
	}
	if _, err := s.log.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("daemon: append block: %w", err)
	}
	if _, err := s.log.Write(rec); err != nil {
		return fmt.Errorf("daemon: append block: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("daemon: append block: %w", err)
	}
	s.records++
	s.syncs.Add(1)
	return nil
}

// CrashForTest simulates a power cut mid-append: the store is marked
// closed, a torn prefix of one more record is left on disk without any
// fsync, and the fd is closed. tornBytes is clamped to strictly less
// than the full record so the tail is genuinely torn. Recovery is
// Load's job: the CRC framing must truncate the torn tail and keep
// every record whose append returned before the crash.
func (s *Store) CrashForTest(b *chain.Block, tornBytes int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return errStoreClosed
	}
	rec := encodeRecord(b)
	if tornBytes >= len(rec) {
		tornBytes = len(rec) - 1
	}
	if tornBytes < 0 {
		tornBytes = 0
	}
	if _, err := s.log.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	if _, err := s.log.Write(rec[:tornBytes]); err != nil {
		return err
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// Load restores the chain from the snapshot (if present) and the log
// tail. Snapshot blocks connect through the trusted fast path — script
// verification is skipped, every other rule still runs — and the
// restored UTXO set is cross-checked byte-for-byte against the set
// serialized into the snapshot. Log-tail blocks go through full
// validation. A torn or corrupt tail record is truncated away (the
// crash-recovery path), not treated as an error.
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

// loadSnapshot restores snapshot.dat if it exists, dispatching on the
// generation magic.
func (s *Store) loadSnapshot(c *chain.Chain) (int, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, "snapshot.dat"))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("daemon: load snapshot: %w", err)
	}
	if len(raw) < len(snapMagic)+4 {
		return 0, fmt.Errorf("%w: bad snapshot magic", ErrBadStore)
	}
	pruned := false
	switch string(raw[:len(snapMagic)]) {
	case string(snapMagic):
	case string(snapMagic2):
		pruned = true
	default:
		return 0, fmt.Errorf("%w: bad snapshot magic", ErrBadStore)
	}
	body := raw[len(snapMagic) : len(raw)-4]
	wantCRC := binary.BigEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return 0, fmt.Errorf("%w: snapshot checksum mismatch", ErrBadStore)
	}
	r := bytes.NewReader(body)
	if pruned {
		return s.loadSnapshotV2(c, r)
	}
	var scratch [4]byte
	if _, err := io.ReadFull(r, scratch[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	count := binary.BigEndian.Uint32(scratch[:])
	loaded := 0
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(r, scratch[:]); err != nil {
			return loaded, fmt.Errorf("%w: %v", ErrBadStore, err)
		}
		n := binary.BigEndian.Uint32(scratch[:])
		if n > maxStoredBlock {
			return loaded, fmt.Errorf("%w: block of %d bytes", ErrBadStore, n)
		}
		blockRaw := make([]byte, n)
		if _, err := io.ReadFull(r, blockRaw); err != nil {
			return loaded, fmt.Errorf("%w: %v", ErrBadStore, err)
		}
		b, err := chain.DeserializeBlock(blockRaw)
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
	snapUTXO, err := chain.DeserializeUTXO(r)
	if err != nil {
		return loaded, fmt.Errorf("daemon: load snapshot: %w", err)
	}
	// The snapshot's serialized set must match the set the trusted
	// replay just rebuilt — this is the integrity check that makes
	// skipping script verification on restore safe to trust.
	var match bool
	c.ReadState(func(_ *chain.Block, utxo *chain.UTXOSet) { match = snapUTXO.Equal(utxo) })
	if !match {
		return loaded, fmt.Errorf("%w: snapshot UTXO set does not match replayed chain state", ErrBadStore)
	}
	return loaded, nil
}

// maxStoredHeader bounds one header record in a v2 snapshot.
const maxStoredHeader = 4096

// loadSnapshotV2 restores a pruned snapshot: headers 1..base install as
// stubs with the base UTXO set through the chain's trusted snapshot
// path, full blocks above the base connect through the trusted fast
// path, and the stored tip-set hash cross-checks the rebuilt state.
func (s *Store) loadSnapshotV2(c *chain.Chain, r *bytes.Reader) (int, error) {
	var s8 [8]byte
	if _, err := io.ReadFull(r, s8[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	base := int64(binary.BigEndian.Uint64(s8[:]))
	var s4 [4]byte
	if _, err := io.ReadFull(r, s4[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	headerCount := binary.BigEndian.Uint32(s4[:])
	if int64(headerCount) != base {
		return 0, fmt.Errorf("%w: %d headers for prune base %d", ErrBadStore, headerCount, base)
	}
	headers := make([]*chain.Header, 0, headerCount)
	for i := uint32(0); i < headerCount; i++ {
		if _, err := io.ReadFull(r, s4[:]); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadStore, err)
		}
		n := binary.BigEndian.Uint32(s4[:])
		if n > maxStoredHeader {
			return 0, fmt.Errorf("%w: header of %d bytes", ErrBadStore, n)
		}
		raw := make([]byte, n)
		if _, err := io.ReadFull(r, raw); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadStore, err)
		}
		h, err := chain.DeserializeHeader(raw)
		if err != nil {
			return 0, fmt.Errorf("daemon: load snapshot: %w", err)
		}
		headers = append(headers, h)
	}
	utxo, err := chain.DeserializeUTXO(r)
	if err != nil {
		return 0, fmt.Errorf("daemon: load snapshot: %w", err)
	}
	if err := c.InitFromSnapshot(headers, utxo); err != nil {
		return 0, fmt.Errorf("daemon: load snapshot: %w", err)
	}
	loaded := len(headers)
	if _, err := io.ReadFull(r, s4[:]); err != nil {
		return loaded, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	blockCount := binary.BigEndian.Uint32(s4[:])
	for i := uint32(0); i < blockCount; i++ {
		if _, err := io.ReadFull(r, s4[:]); err != nil {
			return loaded, fmt.Errorf("%w: %v", ErrBadStore, err)
		}
		n := binary.BigEndian.Uint32(s4[:])
		if n > maxStoredBlock {
			return loaded, fmt.Errorf("%w: block of %d bytes", ErrBadStore, n)
		}
		raw := make([]byte, n)
		if _, err := io.ReadFull(r, raw); err != nil {
			return loaded, fmt.Errorf("%w: %v", ErrBadStore, err)
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
	var tipHash chain.Hash
	if _, err := io.ReadFull(r, tipHash[:]); err != nil {
		return loaded, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	if r.Len() != 0 {
		return loaded, fmt.Errorf("%w: %d trailing bytes", ErrBadStore, r.Len())
	}
	// The stored tip-set hash must match the state the trusted replay
	// rebuilt — the integrity check that makes skipping script
	// verification on restore safe to trust.
	if tipSetHash(c) != tipHash {
		return loaded, fmt.Errorf("%w: snapshot UTXO set does not match replayed chain state", ErrBadStore)
	}
	return loaded, nil
}

// replayLog replays every decodable log record through full validation,
// truncating the log at the first torn or corrupt record.
func (s *Store) replayLog(c *chain.Chain) (int, error) {
	if _, err := s.log.Seek(int64(len(logMagic)), io.SeekStart); err != nil {
		return 0, fmt.Errorf("daemon: replay log: %w", err)
	}
	r := bufio.NewReader(s.log)
	goodEnd := int64(len(logMagic))
	var pending []*chain.Block
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // clean EOF or torn length prefix: stop here
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		wantCRC := binary.BigEndian.Uint32(hdr[4:8])
		if n > maxStoredBlock {
			break
		}
		raw := make([]byte, n)
		if _, err := io.ReadFull(r, raw); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(raw) != wantCRC {
			break // corrupt record
		}
		b, err := chain.DeserializeBlock(raw)
		if err != nil {
			break
		}
		goodEnd += 8 + int64(n)
		pending = append(pending, b)
	}
	// Drop everything after the last good record so future appends
	// start from a consistent tail.
	if err := s.log.Truncate(goodEnd); err != nil {
		return 0, fmt.Errorf("daemon: replay log: truncate: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return 0, fmt.Errorf("daemon: replay log: %w", err)
	}
	s.records = len(pending)

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

// Compact writes a fresh snapshot of the chain's best branch and UTXO
// set, then resets the log. It needs no barrier against appends: it
// takes the mutex every append completes under, so no record is ever
// half-written when the log is truncated. Crash-safe ordering: the
// snapshot rename is made durable before the log is truncated — so a
// crash in between leaves duplicate blocks in the log, which replay
// tolerates, never missing ones.
func (s *Store) Compact(c *chain.Chain) error {
	var body bytes.Buffer
	magic := snapMagic
	if c.PruneBase() > 0 {
		magic = snapMagic2
		if err := writePrunedBody(&body, c); err != nil {
			return err
		}
	} else if err := writeFullBody(&body, c); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return fmt.Errorf("daemon: compact: store closed")
	}
	path := filepath.Join(s.dir, "snapshot.dat")
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("daemon: compact: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			f.Close()
			os.Remove(tmp)
		}
	}()
	var crcb [4]byte
	binary.BigEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(body.Bytes()))
	if _, err := f.Write(magic); err != nil {
		return fmt.Errorf("daemon: compact: %w", err)
	}
	if _, err := f.Write(body.Bytes()); err != nil {
		return fmt.Errorf("daemon: compact: %w", err)
	}
	if _, err := f.Write(crcb[:]); err != nil {
		return fmt.Errorf("daemon: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("daemon: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("daemon: compact: %w", err)
	}
	ok = true
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("daemon: compact: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("daemon: compact: %w", err)
	}
	// Snapshot durable: the log records below the snapshot height are
	// now redundant. Reset the log.
	if err := s.log.Truncate(int64(len(logMagic))); err != nil {
		return fmt.Errorf("daemon: compact: truncate log: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("daemon: compact: %w", err)
	}
	s.records = 0
	return nil
}

// writeFullBody serializes the v1 snapshot body: every best-branch
// block from height 1 plus the tip UTXO set.
func writeFullBody(body *bytes.Buffer, c *chain.Chain) error {
	var scratch [4]byte
	height := c.Height()
	binary.BigEndian.PutUint32(scratch[:], uint32(height))
	body.Write(scratch[:])
	for h := int64(1); h <= height; h++ {
		b, ok := c.BlockAt(h)
		if !ok {
			return fmt.Errorf("daemon: compact: missing height %d", h)
		}
		raw := b.Serialize()
		binary.BigEndian.PutUint32(scratch[:], uint32(len(raw)))
		body.Write(scratch[:])
		body.Write(raw)
	}
	c.ReadState(func(_ *chain.Block, utxo *chain.UTXOSet) { body.Write(utxo.SerializeUTXO()) })
	return nil
}

// writePrunedBody serializes the v2 snapshot body: headers up to the
// prune base, the UTXO set at the base, full blocks above it, and the
// tip set's hash.
func writePrunedBody(body *bytes.Buffer, c *chain.Chain) error {
	var s8 [8]byte
	var s4 [4]byte
	base := c.PruneBase()
	height := c.Height()
	binary.BigEndian.PutUint64(s8[:], uint64(base))
	body.Write(s8[:])
	binary.BigEndian.PutUint32(s4[:], uint32(base))
	body.Write(s4[:])
	for h := int64(1); h <= base; h++ {
		b, ok := c.BlockAt(h)
		if !ok {
			return fmt.Errorf("daemon: compact: missing height %d", h)
		}
		raw := b.Header.Serialize()
		binary.BigEndian.PutUint32(s4[:], uint32(len(raw)))
		body.Write(s4[:])
		body.Write(raw)
	}
	baseState, err := c.StateAt(base)
	if err != nil {
		return fmt.Errorf("daemon: compact: %w", err)
	}
	body.Write(baseState.SerializeUTXO())
	binary.BigEndian.PutUint32(s4[:], uint32(height-base))
	body.Write(s4[:])
	for h := base + 1; h <= height; h++ {
		b, ok := c.BlockAt(h)
		if !ok {
			return fmt.Errorf("daemon: compact: missing height %d", h)
		}
		raw := b.Serialize()
		binary.BigEndian.PutUint32(s4[:], uint32(len(raw)))
		body.Write(s4[:])
		body.Write(raw)
	}
	tipHash := tipSetHash(c)
	body.Write(tipHash[:])
	return nil
}

// tipSetHash is the snapshot hash of the chain's tip UTXO set,
// serialized under the chain's read lock rather than from a copy.
func tipSetHash(c *chain.Chain) chain.Hash {
	var h chain.Hash
	c.ReadState(func(_ *chain.Block, utxo *chain.UTXOSet) { h = chain.SnapshotHash(utxo.SerializeUTXO()) })
	return h
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

// syncDir fsyncs a directory so renames (and file creations) within it
// are durable.
func syncDir(dir string) error {
	if dirSyncHook != nil {
		dirSyncHook(dir)
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
