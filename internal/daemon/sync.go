package daemon

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/p2p"
)

// Headers-first sync and snapshot bootstrap (DESIGN.md §13). Every
// catch-up — the join at boot and every later round — walks one state
// machine, headers → snapshot → tail → live, instead of replaying blocks
// from genesis:
//
//  1. headers: rebase the header spine onto the chain's best branch and
//     extend it with locator-based getheaders batches, validating
//     linkage, miner membership and signatures as batches arrive. The
//     spine pins every block ID below the peer's tip.
//  2. snapshot: fetch a miner-signed snapshot commitment (the manifest)
//     and the serialized UTXO set it commits to, in checksummed chunks.
//     The commitment is trusted only if its signature verifies against
//     the authorized miner set AND its block ID matches our own spine
//     at that height AND the assembled bytes hash to the committed
//     value. A peer that fails any check is abandoned for the next;
//     when every peer has failed, the machine falls back to a full
//     sync from genesis — it never installs unverified state.
//  3. tail: fetch full bodies for the spine IDs the chain lacks, from
//     the first height where spine and best chain disagree (above the
//     snapshot horizon, if one was installed), as direct getdata batches
//     served by the relay — so a fork of any depth resolves in one round.
//  4. live: ongoing replication is the relay's inv/compact-block gossip.
//     Every retry tick, every outbound Connect and an orphan block (asked
//     of the peer that sent it) start the next round at headers.
//
// Every phase is driven by a retry ticker with deterministic peer
// rotation (sorted peer names, round-robin counter), so chaos runs
// replay identically under a fixed seed. The live tick's round and its
// pool re-announce are the node's only anti-entropy: they repair a lost
// block sketch, a lost transaction inv or a healed partition without
// waiting for the next block.

// Sync phases.
const (
	syncHeaders = iota
	syncSnapshot
	syncTail
	syncLive
)

var syncPhaseNames = map[int]string{
	syncHeaders:  "headers",
	syncSnapshot: "snapshot",
	syncTail:     "tail",
	syncLive:     "live",
}

const (
	// headersBatchMax is the getheaders response cap; a full batch
	// signals the requester to immediately ask for more.
	headersBatchMax = 2000
	// syncStallTicks is how many retry ticks a phase may stall before
	// the machine gives up on it (headers/tail degrade to live; the next
	// round retries).
	syncStallTicks = 10
	// maxSyncBlocks caps one tail getdata batch. The connect hook asks
	// for the next batch once this one has connected, so a laggard never
	// has more than this many bodies in flight from one peer's send queue.
	maxSyncBlocks = 64
	// snapshotStallTicks is how many ticks a snapshot peer may stall
	// before the machine fails over to the next one.
	snapshotStallTicks = 4
	// maxSnapshotBytes bounds a snapshot download (UTXOSize claimed by
	// the manifest) so a lying manifest cannot demand the moon.
	maxSnapshotBytes = 1 << 30
)

// SyncInfo is the sync-progress surface exposed over RPC.
type SyncInfo struct {
	// Phase is "headers", "snapshot", "tail" or "live".
	Phase       string `json:"phase"`
	ChainHeight int64  `json:"chainheight"`
	// SpineHeight is the validated header spine tip: the best chain's
	// tip plus whatever headers the last round learned (0 until the
	// machine is released).
	SpineHeight int64 `json:"spineheight"`
	PruneBase   int64 `json:"prunebase"`
	// SnapshotHeight is the horizon of the snapshot being downloaded or
	// installed (0 = none).
	SnapshotHeight      int64 `json:"snapshotheight"`
	SnapshotChunksGot   int   `json:"snapshotchunksgot"`
	SnapshotChunksTotal int   `json:"snapshotchunkstotal"`
	// FullSyncFallback reports that every snapshot peer failed and the
	// node reverted to a full sync from genesis.
	FullSyncFallback bool `json:"fullsyncfallback"`
}

// syncManager drives the bootstrap state machine and owns the node's
// snapshot-serving cache.
type syncManager struct {
	n *Node

	mu    sync.Mutex
	phase int
	spine *chain.HeaderChain
	// rot is the deterministic peer-rotation counter.
	rot   int
	stall int
	// headersSent records that the opening getheaders went out, so
	// later ticks only re-send after a silent interval.
	headersSent bool
	// tailPeer serves the tail: the peer whose headers extended the
	// spine (it holds the bodies), rotated only when it stalls.
	tailPeer string
	// tailReqEnd is the top of the last requested tail batch; the
	// connect hook sends the next batch once that block is indexed.
	tailReqEnd int64
	// early is the tail's reorder window: spine blocks that arrived
	// ahead of their parent, by height, at most maxSyncBlocks above the
	// chain. The connect hook hands each on once its parent is indexed;
	// a new round or the return to live empties it.
	early map[int64]*chain.Block

	// held suppresses ticks and headers responses until Node.Open has
	// loaded the store (or the first retry tick fires, for nodes that
	// never open one), so a network bootstrap cannot race the disk load
	// into a half-initialized chain.
	held bool

	// Snapshot download state.
	snapPeer  string
	commit    *chain.SnapshotCommitment
	chunks    [][]byte
	got       int
	triedSnap map[string]bool
	fullOnly  bool
	installed int64

	// Snapshot serving state: the latest verified commitment and its
	// serialized set (built lazily on first request).
	serveCommit *chain.SnapshotCommitment
	serveData   []byte
	// unplacedCommit is the newest authorized commitment this node
	// cannot place on its own branch (behind, or on a fork). It is kept
	// for the relay to serve, never to serve a snapshot from.
	unplacedCommit *chain.SnapshotCommitment

	stop chan struct{}
	done chan struct{}
}

func newSyncManager(n *Node) *syncManager {
	return &syncManager{
		n:         n,
		phase:     syncHeaders,
		held:      true,
		spine:     chain.NewHeaderChain(n.cfg.Genesis, n.cfg.Miners),
		triedSnap: make(map[string]bool),
		early:     make(map[int64]*chain.Block),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// start launches the retry loop. Called once from NewNode after the
// initial peer connects.
func (sm *syncManager) start() {
	go sm.run()
}

func (sm *syncManager) run() {
	defer close(sm.done)
	ticker := time.NewTicker(sm.n.syncRetryInterval())
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			sm.release()
			sm.tick()
			// Outside sm.mu: Relay.onInv holds the relay's mutex while
			// its Have callback takes sm.mu.
			sm.n.reannouncePool()
		case <-sm.stop:
			return
		}
	}
}

func (sm *syncManager) close() {
	sm.mu.Lock()
	sm.phase = syncLive
	sm.mu.Unlock()
	select {
	case <-sm.stop:
	default:
		close(sm.stop)
	}
	<-sm.done
}

// release lifts the startup hold, rebases the spine onto whatever chain
// Open loaded, and asks every peer for headers with the chain's own
// locator: the answers to the greetings sent while held were dropped.
func (sm *syncManager) release() {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if !sm.held {
		return
	}
	sm.held = false
	sm.spine.Rebase(sm.n.chain)
	for _, p := range sm.n.gossip.Peers() {
		sm.sendGetHeadersLocked(p)
		sm.headersSent = true
	}
}

// beginRoundLocked puts a live machine back at the headers phase, with
// the spine rebased onto the best chain so a getheaders carries the
// chain's own locator and a peer answers from the fork point.
func (sm *syncManager) beginRoundLocked() {
	sm.spine.Rebase(sm.n.chain)
	sm.phase = syncHeaders
	sm.stall = 0
	sm.headersSent = true
	sm.tailPeer = ""
	clear(sm.early)
}

// greet opens an outbound link with a getheaders. The dialee learns our
// address from it (p2p registers an inbound peer on its first message);
// once live it is also a round against the new peer. A held machine
// drops the answer, and release asks again.
func (sm *syncManager) greet(peer string) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.phase == syncLive {
		sm.beginRoundLocked()
	}
	sm.sendGetHeadersLocked(peer)
}

// orphan takes a block whose parent is unknown, received from peer
// from. A live machine starts a round with its sender, whose tail
// fetches the block again. A tail fetch keeps the block in its window if
// the spine names it (its header joins the spine when it extends it): a
// reordered batch, or a sketch newer than the fetch. Otherwise the block
// waits for the running round, or the next live tick's.
func (sm *syncManager) orphan(b *chain.Block, from string) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	switch sm.phase {
	case syncLive:
		sm.beginRoundLocked()
		sm.sendGetHeadersLocked(from)
	case syncTail:
		h := b.Header.Height
		if h == sm.spine.Height()+1 {
			sm.spine.Connect([]*chain.Header{&b.Header})
		}
		if id, ok := sm.spine.IDAt(h); ok && id == b.ID() && h <= sm.n.chain.Height()+maxSyncBlocks {
			sm.early[h] = b
		}
	}
}

// tick advances the machine one retry step; a live machine starts a
// round.
func (sm *syncManager) tick() {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.held {
		return
	}
	// Every phase self-paces off its responses (onHeaders chains the
	// next batch, onSnapshotChunk the next chunk, the block-connect hook
	// the next tail getdata), so a tick re-sends only after a full
	// silent interval (stall ≥ 2) — a fast retry tick must not flood
	// duplicates while a response is still being verified.
	switch sm.phase {
	case syncLive:
		// A round with the next peer in the rotation: it finds whatever
		// a lost announcement or a partition kept from us.
		if peer := sm.nextPeerLocked(); peer != "" {
			sm.beginRoundLocked()
			sm.sendGetHeadersLocked(peer)
		}
	case syncHeaders:
		sm.stall++
		if sm.stall > syncStallTicks {
			// Nobody answered. If the spine learned anything, fetch
			// those bodies; either way stop blocking the node — the next
			// round covers whatever was missed.
			if sm.spine.Height() > sm.n.chain.Height() {
				sm.toTailLocked()
			} else {
				sm.toLiveLocked()
			}
			return
		}
		if !sm.headersSent || sm.stall >= 2 {
			sm.sendGetHeadersLocked(sm.nextPeerLocked())
			sm.headersSent = true
		}
	case syncSnapshot:
		sm.stall++
		if sm.stall > snapshotStallTicks {
			sm.failSnapshotPeerLocked("stalled")
			return
		}
		if sm.stall >= 2 {
			sm.resendSnapshotRequestLocked()
		}
	case syncTail:
		if sm.tailDoneLocked() {
			sm.toLiveLocked()
			return
		}
		// noteBlockConnected resets the count on every connect.
		sm.stall++
		if sm.stall > syncStallTicks {
			sm.toLiveLocked()
			return
		}
		if sm.stall >= 2 {
			sm.tailPeer = sm.nextPeerLocked()
			sm.sendTailRequestLocked(sm.tailPeer)
		}
	}
}

// nextPeerLocked rotates deterministically through the sorted peer set.
func (sm *syncManager) nextPeerLocked() string {
	peers := sm.n.gossip.Peers()
	if len(peers) == 0 {
		return ""
	}
	sort.Strings(peers)
	p := peers[sm.rot%len(peers)]
	sm.rot++
	return p
}

func (sm *syncManager) sendGetHeadersLocked(peer string) {
	if peer == "" {
		return
	}
	loc := sm.spine.Locator()
	msg := &p2p.MsgGetHeaders{Locator: make([][32]byte, len(loc)), Max: headersBatchMax}
	for i, id := range loc {
		msg.Locator[i] = id
	}
	sm.n.gossip.SendTo(peer, p2p.MsgTypeGetHeaders, msg.Encode())
}

// onHeaders consumes a headers batch: validate and connect to the
// spine, then either ask for more (full batch) or decide how to fetch
// state (short batch = the peer's tip).
func (sm *syncManager) onHeaders(from string, msg p2p.Message) {
	dec, err := p2p.DecodeHeaders(msg.Payload)
	if err != nil {
		sm.n.logf("headers from %s: %v", from, err)
		sm.n.misbehave(from, "undecodable headers")
		return
	}
	headers := make([]*chain.Header, 0, len(dec.Headers))
	for _, raw := range dec.Headers {
		h, err := chain.DeserializeHeader(raw)
		if err != nil {
			sm.n.logf("header from %s undecodable: %v", from, err)
			return
		}
		headers = append(headers, h)
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.held {
		return
	}
	if sm.phase == syncLive {
		// A late answer — to a greeting, a boot request or an earlier
		// round — may still show blocks we lack: it opens a round with
		// its sender.
		sm.beginRoundLocked()
	}
	if sm.phase != syncHeaders {
		return
	}
	added, err := sm.spine.Connect(headers)
	if added > 0 {
		sm.stall = 0
		sm.tailPeer = from
		sm.n.metrics.headersSynced.Add(uint64(added))
	}
	if err != nil {
		sm.n.logf("header spine from %s: %v", from, err)
		return
	}
	if len(headers) >= headersBatchMax {
		// Chain the next batch only off responses that taught us
		// something: a duplicate response (a stall retry crossing the
		// answer in flight) chaining too would double the request
		// stream every batch.
		if added > 0 {
			sm.sendGetHeadersLocked(from)
		}
		return
	}
	sm.decideLocked()
}

// decideLocked picks the state-fetch strategy once the spine stops
// growing: snapshot bootstrap for a fresh node far behind a snapshot-
// capable mesh, a plain tail fetch otherwise.
func (sm *syncManager) decideLocked() {
	our := sm.n.chain.Height()
	if sm.spine.Height() <= our {
		// Nothing to fetch, as after most live ticks: no log line.
		sm.phase = syncLive
		return
	}
	useSnapshot := !sm.fullOnly &&
		!sm.n.cfg.SnapshotSyncDisabled &&
		our == 0 && // InitFromSnapshot needs an empty chain
		sm.spine.Height()-our >= sm.n.snapshotMinGap()
	if !useSnapshot {
		sm.toTailLocked()
		return
	}
	sm.phase = syncSnapshot
	sm.stall = 0
	sm.snapPeer = sm.nextUntriedSnapPeerLocked()
	if sm.snapPeer == "" {
		sm.fullOnly = true
		sm.toTailLocked()
		return
	}
	sm.requestManifestLocked()
}

func (sm *syncManager) nextUntriedSnapPeerLocked() string {
	peers := sm.n.gossip.Peers()
	sort.Strings(peers)
	for _, p := range peers {
		if !sm.triedSnap[p] {
			return p
		}
	}
	return ""
}

func (sm *syncManager) requestManifestLocked() {
	msg := &p2p.MsgGetSnapshot{Height: -1, Chunk: -1}
	sm.n.gossip.SendTo(sm.snapPeer, p2p.MsgTypeGetSnapshot, msg.Encode())
}

func (sm *syncManager) requestChunkLocked(chunk int32) {
	msg := &p2p.MsgGetSnapshot{Height: sm.commit.Height, Chunk: chunk}
	sm.n.gossip.SendTo(sm.snapPeer, p2p.MsgTypeGetSnapshot, msg.Encode())
}

func (sm *syncManager) resendSnapshotRequestLocked() {
	if sm.commit == nil {
		sm.requestManifestLocked()
		return
	}
	sm.requestChunkLocked(int32(sm.got))
}

// failSnapshotPeerLocked abandons the current snapshot peer and moves
// to the next untried one; when all are exhausted, falls back to a full
// sync from genesis.
func (sm *syncManager) failSnapshotPeerLocked(why string) {
	sm.n.logf("snapshot peer %s abandoned: %s", sm.snapPeer, why)
	if sm.snapPeer != "" {
		sm.triedSnap[sm.snapPeer] = true
	}
	sm.commit = nil
	sm.chunks = nil
	sm.got = 0
	sm.stall = 0
	sm.snapPeer = sm.nextUntriedSnapPeerLocked()
	if sm.snapPeer == "" {
		sm.fullOnly = true
		sm.n.metrics.syncFullFallbacks.Inc()
		sm.toTailLocked()
		return
	}
	sm.requestManifestLocked()
}

// onSnapshotChunk consumes manifest and chunk responses from the
// current snapshot peer.
func (sm *syncManager) onSnapshotChunk(from string, msg p2p.Message) {
	dec, err := p2p.DecodeSnapshotChunk(msg.Payload)
	if err != nil {
		sm.n.logf("snapshotchunk from %s: %v", from, err)
		sm.n.misbehave(from, "undecodable snapshotchunk")
		return
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.phase != syncSnapshot || from != sm.snapPeer {
		return
	}
	if dec.Chunk < 0 {
		sm.acceptManifestLocked(dec)
		return
	}
	if sm.commit == nil || dec.Height != sm.commit.Height || int(dec.Chunk) != sm.got {
		return
	}
	if len(dec.Payload) == 0 {
		sm.n.metrics.snapshotRejected.Inc()
		sm.failSnapshotPeerLocked("empty chunk")
		return
	}
	sm.chunks[sm.got] = dec.Payload
	sm.got++
	sm.stall = 0
	if sm.got < len(sm.chunks) {
		sm.requestChunkLocked(int32(sm.got))
		return
	}
	sm.installSnapshotLocked()
}

// acceptManifestLocked verifies a snapshot commitment against the miner
// set and our own validated spine before any chunk is downloaded.
func (sm *syncManager) acceptManifestLocked(dec *p2p.MsgSnapshotChunk) {
	if sm.commit != nil {
		return // already have one in flight
	}
	if len(dec.Manifest) == 0 || dec.Total <= 0 {
		sm.failSnapshotPeerLocked("no snapshot offered")
		return
	}
	commit, err := chain.DeserializeSnapshotCommitment(dec.Manifest)
	if err != nil {
		sm.n.metrics.snapshotRejected.Inc()
		sm.failSnapshotPeerLocked(fmt.Sprintf("manifest: %v", err))
		return
	}
	spineID, onSpine := sm.spine.IDAt(commit.Height)
	switch {
	case !sm.n.chain.IsAuthorizedMiner(commit.MinerPubKey):
		err = fmt.Errorf("unauthorized commitment signer")
	case !commit.VerifySignature():
		err = fmt.Errorf("bad commitment signature")
	case !onSpine || spineID != commit.BlockID:
		err = fmt.Errorf("commitment block %s at height %d not on our spine", commit.BlockID, commit.Height)
	case commit.Height <= sm.n.chain.Height():
		err = fmt.Errorf("commitment height %d not ahead of chain", commit.Height)
	case commit.UTXOSize <= 0 || commit.UTXOSize > maxSnapshotBytes:
		err = fmt.Errorf("implausible snapshot size %d", commit.UTXOSize)
	case int64(dec.Total) > commit.UTXOSize:
		err = fmt.Errorf("%d chunks for %d bytes", dec.Total, commit.UTXOSize)
	}
	if err != nil {
		sm.n.metrics.snapshotRejected.Inc()
		sm.failSnapshotPeerLocked(err.Error())
		return
	}
	sm.commit = commit
	sm.chunks = make([][]byte, dec.Total)
	sm.got = 0
	sm.stall = 0
	sm.requestChunkLocked(0)
}

// installSnapshotLocked verifies the assembled bytes against the
// commitment and installs the set through the chain's trusted path,
// persisting the result so a restart does not re-bootstrap.
func (sm *syncManager) installSnapshotLocked() {
	utxo, err := AssembleSnapshot(sm.commit, sm.chunks)
	if err != nil {
		sm.n.metrics.snapshotRejected.Inc()
		sm.failSnapshotPeerLocked(err.Error())
		return
	}
	headers := sm.spine.Headers(1, sm.commit.Height)
	if err := sm.n.chain.InitFromSnapshot(headers, utxo); err != nil {
		// Verified bytes that still refuse to install mean the local
		// chain moved (no longer empty) — not a peer fault. Finish the
		// join as a tail fetch.
		sm.n.logf("snapshot install: %v", err)
		sm.toTailLocked()
		return
	}
	sm.installed = sm.commit.Height
	sm.n.metrics.snapshotInstalledHeight.Set(sm.commit.Height)
	// Cache the verified snapshot so this node can serve joiners.
	sm.serveCommit = sm.commit
	sm.serveData = bytes.Join(sm.chunks, nil)
	if st := sm.n.store; st != nil {
		if err := st.Compact(sm.n.chain); err != nil {
			sm.n.logf("snapshot persist: %v", err)
		}
	}
	sm.n.logf("snapshot installed at height %d (%d chunks)", sm.commit.Height, len(sm.chunks))
	sm.toTailLocked()
}

func (sm *syncManager) toTailLocked() {
	sm.phase = syncTail
	sm.stall = 0
	if sm.tailPeer == "" {
		sm.tailPeer = sm.nextPeerLocked()
	}
	sm.sendTailRequestLocked(sm.tailPeer)
}

// tailDoneLocked reports that the best chain has caught up with the
// spine (by extending it, or by reorganizing onto the spine's branch).
func (sm *syncManager) tailDoneLocked() bool {
	return sm.n.chain.Height() >= sm.spine.Height()
}

// tailStartLocked is the lowest spine height whose block the chain does
// not hold yet: the search starts above the highest height where the
// spine and the best chain agree and skips side-branch blocks already
// fetched, so a fork of any depth is fetched from its first diverging
// block rather than from our tip.
func (sm *syncManager) tailStartLocked() int64 {
	h := min(sm.spine.Height(), sm.n.chain.Height())
	for ; h > 0; h-- {
		id, _ := sm.spine.IDAt(h)
		if b, ok := sm.n.chain.BlockAt(h); ok && b.ID() == id {
			break
		}
	}
	for h++; h <= sm.spine.Height(); h++ {
		if id, _ := sm.spine.IDAt(h); !sm.n.relayHave("block", p2p.ObjectID(id)) {
			break
		}
	}
	return h
}

// sendTailRequestLocked asks a peer for the next batch of spine block
// bodies as a direct getdata — answered by the peer's relay exactly
// like any other inventory request.
func (sm *syncManager) sendTailRequestLocked(peer string) {
	if peer == "" {
		return
	}
	var ids []p2p.ObjectID
	for h := sm.tailStartLocked(); h <= sm.spine.Height() && len(ids) < maxSyncBlocks; h++ {
		if sm.early[h] == nil {
			id, _ := sm.spine.IDAt(h)
			ids = append(ids, p2p.ObjectID(id))
			sm.tailReqEnd = h
		}
	}
	if len(ids) == 0 {
		return
	}
	sm.n.gossip.SendTo(peer, "getdata", p2p.EncodeInv("block", ids...))
}

// noteBlockConnected is called from acceptBlock whenever block b joins
// the index, and returns the tail window's next block, whose parent b
// is. During the tail phase it requests the next getdata batch as soon
// as the previous one has fully arrived, so the backfill is
// response-paced instead of waiting out a retry tick per batch.
func (sm *syncManager) noteBlockConnected(b *chain.Block) *chain.Block {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.phase != syncTail {
		return nil
	}
	next := sm.early[b.Header.Height+1]
	delete(sm.early, b.Header.Height+1)
	sm.stall = 0
	if sm.tailDoneLocked() {
		sm.toLiveLocked()
		return next
	}
	if id, ok := sm.spine.IDAt(sm.tailReqEnd); ok && sm.n.relayHave("block", p2p.ObjectID(id)) {
		sm.sendTailRequestLocked(sm.tailPeer)
	}
	return next
}

func (sm *syncManager) toLiveLocked() {
	clear(sm.early)
	sm.phase = syncLive
	sm.n.logf("sync live at height %d", sm.n.chain.Height())
}

// info snapshots the machine state for RPC.
func (sm *syncManager) info() SyncInfo {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	si := SyncInfo{
		Phase:            syncPhaseNames[sm.phase],
		SpineHeight:      sm.spine.Height(),
		FullSyncFallback: sm.fullOnly,
		SnapshotHeight:   sm.installed,
	}
	if sm.commit != nil {
		si.SnapshotHeight = sm.commit.Height
		si.SnapshotChunksGot = sm.got
		si.SnapshotChunksTotal = len(sm.chunks)
	}
	return si
}

// --- Serving side -----------------------------------------------------

// onGetHeaders serves best-branch headers above the requester's
// locator. Pruned heights still serve — stubs keep their headers.
func (n *Node) onGetHeaders(from string, msg p2p.Message) {
	dec, err := p2p.DecodeGetHeaders(msg.Payload)
	if err != nil {
		n.misbehave(from, "undecodable getheaders")
		return
	}
	max := int(dec.Max)
	if max <= 0 || max > headersBatchMax {
		max = headersBatchMax
	}
	loc := make([]chain.Hash, len(dec.Locator))
	for i, id := range dec.Locator {
		loc[i] = id
	}
	headers := n.chain.HeadersAfter(loc, max)
	resp := &p2p.MsgHeaders{Headers: make([][]byte, len(headers))}
	for i, h := range headers {
		resp.Headers[i] = h.Serialize()
	}
	n.gossip.SendTo(from, p2p.MsgTypeHeaders, resp.Encode())
}

// onGetSnapshot serves the snapshot manifest (latest verified
// commitment) and its chunks.
func (n *Node) onGetSnapshot(from string, msg p2p.Message) {
	dec, err := p2p.DecodeGetSnapshot(msg.Payload)
	if err != nil {
		n.misbehave(from, "undecodable getsnapshot")
		return
	}
	sm := n.sync
	sm.mu.Lock()
	commit, data := sm.serveCommit, sm.serveData
	if commit != nil && data == nil {
		data = sm.buildServeDataLocked()
	}
	sm.mu.Unlock()

	if dec.Chunk < 0 {
		resp := &p2p.MsgSnapshotChunk{Height: -1, Chunk: -1}
		if commit != nil && data != nil {
			resp.Height = commit.Height
			resp.Total = int32((len(data) + n.snapshotChunkSize() - 1) / n.snapshotChunkSize())
			resp.Manifest = commit.Serialize()
		}
		n.gossip.SendTo(from, p2p.MsgTypeSnapshotChunk, resp.Encode())
		return
	}
	if commit == nil || data == nil || dec.Height != commit.Height {
		return
	}
	chunks := SnapshotChunks(data, n.snapshotChunkSize())
	if int(dec.Chunk) >= len(chunks) {
		return
	}
	resp := &p2p.MsgSnapshotChunk{
		Height:  commit.Height,
		Chunk:   dec.Chunk,
		Total:   int32(len(chunks)),
		Payload: chunks[dec.Chunk],
	}
	if n.gossip.SendTo(from, p2p.MsgTypeSnapshotChunk, resp.Encode()) {
		n.metrics.snapshotChunksServed.Inc()
	}
}

// buildServeDataLocked materializes the serialized set for the cached
// commitment by unwinding undo journals to the commitment height. A
// commitment the chain can no longer back (pruned past, failed hash)
// is dropped.
func (sm *syncManager) buildServeDataLocked() []byte {
	commit := sm.serveCommit
	u, err := sm.n.chain.StateAt(commit.Height)
	if err != nil {
		sm.n.logf("snapshot serve at %d: %v", commit.Height, err)
		sm.serveCommit = nil
		return nil
	}
	data := u.SerializeUTXO()
	if chain.SnapshotHash(data) != commit.UTXOHash || int64(len(data)) != commit.UTXOSize {
		sm.n.logf("snapshot serve at %d: local state does not match commitment", commit.Height)
		sm.serveCommit = nil
		return nil
	}
	sm.serveData = data
	return data
}

// onSnapCommit consumes a relayed snapshot commitment: verify it
// against the miner set and keep the newest one on our own best branch
// for serving, or the newest one this node cannot place yet (behind, or
// on a fork) in unplacedCommit. A commitment relays onward once an
// authorized miner's signature checks out and this call kept it; a
// forged one stops here.
func (n *Node) onSnapCommit(from string, payload []byte) (p2p.ObjectID, bool) {
	commit, err := chain.DeserializeSnapshotCommitment(payload)
	if err != nil {
		n.misbehave(from, "undecodable snapshot commitment")
		return p2p.ObjectID{}, false
	}
	id := p2p.ObjectID(commit.ID())
	if !n.chain.IsAuthorizedMiner(commit.MinerPubKey) || !commit.VerifySignature() {
		n.metrics.snapshotRejected.Inc()
		return id, false
	}
	b, ok := n.chain.BlockAt(commit.Height)
	placed := ok && b.ID() == commit.BlockID
	sm := n.sync
	sm.mu.Lock()
	switch {
	case placed && (sm.serveCommit == nil || commit.Height > sm.serveCommit.Height):
		sm.serveCommit = commit
		sm.serveData = nil
	case !placed && (sm.unplacedCommit == nil || commit.Height > sm.unplacedCommit.Height):
		sm.unplacedCommit = commit
	}
	kept := sm.serveCommit == commit || sm.unplacedCommit == commit
	sm.mu.Unlock()
	return id, kept
}

// keptCommit returns the serving or the unplaced commitment when its
// relay ID is id — what relayHave and relayFetch answer for
// "snapcommit" — or nil.
func (sm *syncManager) keptCommit(id p2p.ObjectID) *chain.SnapshotCommitment {
	sm.mu.Lock()
	kept := []*chain.SnapshotCommitment{sm.serveCommit, sm.unplacedCommit}
	sm.mu.Unlock()
	for _, commit := range kept {
		if commit != nil && p2p.ObjectID(commit.ID()) == id {
			return commit
		}
	}
	return nil
}

// publishSnapshotCommitment builds, signs and caches a commitment to
// this miner's state at the given height, and announces it on the relay.
func (n *Node) publishSnapshotCommitment(height int64) {
	if n.cfg.MinerKey == nil || height <= 0 {
		return
	}
	u, err := n.chain.StateAt(height)
	if err != nil {
		n.logf("snapshot commitment at %d: %v", height, err)
		return
	}
	b, ok := n.chain.BlockAt(height)
	if !ok {
		return
	}
	data := u.SerializeUTXO()
	commit := &chain.SnapshotCommitment{
		Version:  1,
		Height:   height,
		BlockID:  b.ID(),
		UTXOHash: chain.SnapshotHash(data),
		UTXOSize: int64(len(data)),
	}
	if err := commit.Sign(n.cfg.MinerKey, randomOrDefault(n.cfg.Random)); err != nil {
		n.logf("snapshot commitment sign: %v", err)
		return
	}
	sm := n.sync
	sm.mu.Lock()
	if sm.serveCommit == nil || commit.Height >= sm.serveCommit.Height {
		sm.serveCommit = commit
		sm.serveData = data
	}
	sm.mu.Unlock()
	n.relay.Announce(p2p.MsgTypeSnapCommit, p2p.ObjectID(commit.ID()))
}

// maybePublishCommitment publishes after mining a block on a snapshot
// interval boundary.
func (n *Node) maybePublishCommitment(b *chain.Block) {
	if n.cfg.MinerKey == nil {
		return
	}
	if interval := n.snapshotInterval(); b.Header.Height%interval == 0 {
		n.publishSnapshotCommitment(b.Header.Height)
	}
}

// SyncInfo reports bootstrap progress (RPC getsyncinfo).
func (n *Node) SyncInfo() SyncInfo {
	si := n.sync.info()
	si.ChainHeight = n.chain.Height()
	si.PruneBase = n.chain.PruneBase()
	return si
}

// Config accessors with defaults.

func (n *Node) snapshotInterval() int64 {
	if n.cfg.SnapshotInterval > 0 {
		return n.cfg.SnapshotInterval
	}
	return 1024
}

func (n *Node) snapshotChunkSize() int {
	if n.cfg.SnapshotChunkSize > 0 {
		return n.cfg.SnapshotChunkSize
	}
	return 64 << 10
}

func (n *Node) snapshotMinGap() int64 {
	if n.cfg.SnapshotMinGap > 0 {
		return n.cfg.SnapshotMinGap
	}
	return 64
}

func (n *Node) syncRetryInterval() time.Duration {
	if n.cfg.SyncRetryInterval > 0 {
		return n.cfg.SyncRetryInterval
	}
	return 500 * time.Millisecond
}
