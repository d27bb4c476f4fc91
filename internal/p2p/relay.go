package p2p

import (
	"sync"
	"time"
)

// This file implements inventory-based relay on top of the point-to-point
// node, the only way a gossiped object (transaction, block, snapshot
// commitment) reaches peers beyond the first hop: a node that obtains a
// new object announces its 32-byte digest ("inv") and peers request only
// the bodies they do not already hold ("getdata"). An object travels on
// only after its kind's handler accepted it, so a forged or junk body
// stops at the first honest node. Per-peer known-inventory sets keep a
// node from announcing an object back to the peer it learned it from,
// and a timeout re-requests an announced object from the next announcer
// when the first one never answers.

// ObjectID is the 32-byte content identifier inventory gossip relays
// (transaction, block and snapshot-commitment hashes).
type ObjectID = [32]byte

const (
	// maxKnownPerPeer bounds each peer's known-inventory ring.
	maxKnownPerPeer = 8192
	// maxRelayObjects bounds the relay's payload store.
	maxRelayObjects = 4096
	// defaultRequestTimeout is how long a getdata waits before the
	// relay asks the next announcer.
	defaultRequestTimeout = 500 * time.Millisecond
)

// RelayConfig wires an inventory relay to its consumer.
type RelayConfig struct {
	// Have reports whether the consumer already holds the object
	// outside the relay's own store (mempool or chain lookup); such
	// inventory is never requested. Nil means "only the store knows".
	Have func(kind string, id ObjectID) bool
	// Fetch recovers the serialized object after the relay's bounded
	// store evicted it (e.g. old blocks re-serialized from the chain).
	Fetch func(kind string, id ObjectID) ([]byte, bool)
	// RequestTimeout overrides defaultRequestTimeout (tests shrink it).
	RequestTimeout time.Duration
}

// ObjectHandler consumes one relayed object body. It returns the
// object's content id and whether the object is valid enough to relay
// onward. Handlers must be idempotent: a re-requested object can be
// delivered by more than one announcer.
type ObjectHandler func(from string, payload []byte) (id ObjectID, relay bool)

// invKey identifies one relayable object.
type invKey struct {
	kind string
	id   ObjectID
}

// invSet is a bounded set of object identities with ring eviction, the
// same discipline as the relay's object store.
type invSet struct {
	set  map[invKey]bool
	ring []invKey
	head int
	cap  int
}

func newInvSet(capacity int) *invSet {
	return &invSet{set: make(map[invKey]bool), cap: capacity}
}

// add records the key, evicting the oldest entry once full; it reports
// false when the key was already present.
func (s *invSet) add(k invKey) bool {
	if s.set[k] {
		return false
	}
	s.set[k] = true
	if len(s.ring) < s.cap {
		s.ring = append(s.ring, k)
		return true
	}
	delete(s.set, s.ring[s.head])
	s.ring[s.head] = k
	s.head = (s.head + 1) % s.cap
	return true
}

func (s *invSet) has(k invKey) bool { return s.set[k] }

// pendingFetch tracks one outstanding getdata: who has announced the
// object, who we already asked, and the timer that escalates to the
// next announcer.
type pendingFetch struct {
	announcers []string // arrival order
	asked      map[string]bool
	timer      *time.Timer
}

// Relay is the inventory-relay state bolted onto a Node.
type Relay struct {
	node    *Node
	cfg     RelayConfig
	timeout time.Duration

	mu       sync.Mutex
	handlers map[string]ObjectHandler
	store    map[invKey][]byte
	ring     []invKey
	head     int
	known    map[string]*invSet // peer addr → inventory it is known to have
	pending  map[invKey]*pendingFetch
	closed   bool
}

// NewRelay attaches inventory relay to n. Call Handle for every object
// kind before traffic arrives.
func NewRelay(n *Node, cfg RelayConfig) *Relay {
	r := &Relay{
		node:     n,
		cfg:      cfg,
		timeout:  cfg.RequestTimeout,
		handlers: make(map[string]ObjectHandler),
		store:    make(map[invKey][]byte),
		known:    make(map[string]*invSet),
		pending:  make(map[invKey]*pendingFetch),
	}
	if r.timeout <= 0 {
		r.timeout = defaultRequestTimeout
	}
	n.Handle("inv", r.onInv)
	n.Handle("getdata", r.onGetData)
	return r
}

// Handle registers the consumer callback for an object kind and starts
// accepting bodies of that kind over the wire.
func (r *Relay) Handle(kind string, h ObjectHandler) {
	r.mu.Lock()
	r.handlers[kind] = h
	r.mu.Unlock()
	r.node.Handle(kind, func(from string, msg Message) {
		r.onObject(kind, from, msg.Payload)
	})
}

// Close stops every outstanding request timer. The relay must not be
// used afterwards.
func (r *Relay) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for _, p := range r.pending {
		p.timer.Stop()
	}
	r.pending = make(map[invKey]*pendingFetch)
}

// Announce stores the object and advertises its digest to connected
// peers not already known to hold it.
func (r *Relay) Announce(kind string, id ObjectID, payload []byte) {
	key := invKey{kind, id}
	peers := r.node.Peers()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.storeLocked(key, payload)
	r.clearPendingLocked(key)
	r.pruneKnownLocked(peers)
	targets := make([]string, 0, len(peers))
	for _, addr := range peers {
		if !r.knownLocked(addr).has(key) {
			targets = append(targets, addr)
		}
	}
	m := r.node.metrics
	r.mu.Unlock()

	if len(targets) == 0 {
		return
	}
	wire := EncodeInv(kind, id)
	announced := m.local(kind).get(announceOut)
	var sent []string
	for _, addr := range targets {
		if r.node.SendTo(addr, "inv", wire) {
			sent = append(sent, addr)
			announced.Inc()
		}
	}
	r.mu.Lock()
	for _, addr := range sent {
		r.knownLocked(addr).add(key)
	}
	r.mu.Unlock()
}

// AnnounceBatch stores a batch of objects and advertises all of them
// with one inv frame per peer — the mempool-rebroadcast path, which
// would otherwise cost one message per object per peer every pump. The
// batch ignores known-inventory: an entry can be a false positive when
// a send was enqueued but lost, and a rebroadcast exists to repair
// exactly that.
func (r *Relay) AnnounceBatch(kind string, ids []ObjectID, bodies [][]byte) {
	if len(ids) == 0 || len(ids) != len(bodies) {
		return
	}
	peers := r.node.Peers()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	keys := make([]invKey, len(ids))
	for i, id := range ids {
		keys[i] = invKey{kind, id}
		r.storeLocked(keys[i], bodies[i])
		r.clearPendingLocked(keys[i])
	}
	r.pruneKnownLocked(peers)
	m := r.node.metrics
	r.mu.Unlock()

	wire := EncodeInv(kind, ids...)
	announced := m.local(kind).get(announceOut)
	for _, addr := range peers {
		if r.node.SendTo(addr, "inv", wire) {
			announced.Add(uint64(len(ids)))
			r.mu.Lock()
			known := r.knownLocked(addr)
			for _, key := range keys {
				known.add(key)
			}
			r.mu.Unlock()
		}
	}
}

// Put stores an object body without announcing it — the compact-block
// path pushes its own announcement format but must still be able to
// answer getdata and getblocktxn for the block.
func (r *Relay) Put(kind string, id ObjectID, payload []byte) {
	key := invKey{kind, id}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.storeLocked(key, payload)
	r.clearPendingLocked(key)
}

// Has reports whether the relay's store holds the object body.
func (r *Relay) Has(kind string, id ObjectID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.store[invKey{kind, id}]
	return ok
}

// Known reports whether the peer is known to hold the object.
func (r *Relay) Known(addr, kind string, id ObjectID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.knownLocked(addr).has(invKey{kind, id})
}

// MarkKnown records that the peer holds the object (e.g. it sent or
// received the block through the compact path).
func (r *Relay) MarkKnown(addr, kind string, id ObjectID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.knownLocked(addr).add(invKey{kind, id})
}

// Request asks one specific peer for the full object — the compact
// block reconstruction's last-resort fallback. The normal timeout and
// re-request machinery takes over if the peer never answers.
func (r *Relay) Request(kind string, id ObjectID, from string) {
	key := invKey{kind, id}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if _, have := r.store[key]; have {
		r.mu.Unlock()
		return
	}
	if p, exists := r.pending[key]; exists {
		if !p.asked[from] {
			p.announcers = append(p.announcers, from)
		}
		r.mu.Unlock()
		return
	}
	r.newPendingLocked(key, from)
	m := r.node.metrics
	r.mu.Unlock()
	m.local(kind).get(requestOut).Inc()
	r.node.SendTo(from, "getdata", EncodeInv(kind, id))
}

// onInv records the announcer and requests any object this node lacks.
func (r *Relay) onInv(from string, msg Message) {
	kind, ids, ok := decodeInv(msg.Payload)
	if !ok {
		return
	}
	m := r.node.metrics
	var want []ObjectID
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if _, handled := r.handlers[kind]; !handled {
		r.mu.Unlock()
		return
	}
	counters := m.remote(kind)
	for _, id := range ids {
		counters.get(announceIn).Inc()
		key := invKey{kind, id}
		r.knownLocked(from).add(key)
		if p, exists := r.pending[key]; exists {
			if !p.asked[from] {
				p.announcers = append(p.announcers, from)
			}
			continue
		}
		if _, have := r.store[key]; have {
			continue
		}
		if r.cfg.Have != nil && r.cfg.Have(kind, id) {
			continue
		}
		r.newPendingLocked(key, from)
		want = append(want, id)
	}
	r.mu.Unlock()
	if len(want) > 0 {
		counters.get(requestOut).Add(uint64(len(want)))
		r.node.SendTo(from, "getdata", EncodeInv(kind, want...))
	}
}

// onGetData answers requests from the store, falling back to the
// consumer's Fetch for evicted objects. A kind with no handler is
// ignored, as in onInv: this node relays no such object.
func (r *Relay) onGetData(from string, msg Message) {
	kind, ids, ok := decodeInv(msg.Payload)
	if !ok {
		return
	}
	r.mu.Lock()
	_, handled := r.handlers[kind]
	r.mu.Unlock()
	if !handled {
		return
	}
	m := r.node.metrics
	counters := m.remote(kind)
	for _, id := range ids {
		counters.get(requestIn).Inc()
		key := invKey{kind, id}
		r.mu.Lock()
		body, have := r.store[key]
		r.mu.Unlock()
		if !have && r.cfg.Fetch != nil {
			body, have = r.cfg.Fetch(kind, id)
		}
		if !have {
			m.relayUnfulfilled.Inc()
			continue
		}
		if r.node.SendTo(from, kind, body) {
			counters.get(fulfillOut).Inc()
			r.mu.Lock()
			r.knownLocked(from).add(key)
			r.mu.Unlock()
		}
	}
}

// onObject runs the consumer handler for a delivered body, then relays
// the object onward by announcement.
func (r *Relay) onObject(kind, from string, payload []byte) {
	r.mu.Lock()
	h := r.handlers[kind]
	r.mu.Unlock()
	if h == nil {
		return
	}
	r.node.metrics.remote(kind).get(fulfillIn).Inc()
	id, relayOn := h(from, payload)
	key := invKey{kind, id}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.knownLocked(from).add(key)
	r.clearPendingLocked(key)
	_, already := r.store[key]
	if relayOn && !already {
		// Store before unlocking: an inv handled between clearing the
		// fetch and Announce's store would otherwise fetch the body again.
		r.storeLocked(key, payload)
	}
	r.mu.Unlock()
	if relayOn && !already {
		r.Announce(kind, id, payload)
	}
}

// expire fires when an asked announcer did not deliver in time: ask the
// next one, or abandon the fetch (a later announcement recreates it).
func (r *Relay) expire(key invKey) {
	m := r.node.metrics
	r.mu.Lock()
	p := r.pending[key]
	if p == nil || r.closed {
		r.mu.Unlock()
		return
	}
	m.relayTimeouts.Inc()
	next := ""
	for _, a := range p.announcers {
		if !p.asked[a] {
			next = a
			break
		}
	}
	if next == "" {
		delete(r.pending, key)
		m.relayExpired.Inc()
		r.mu.Unlock()
		return
	}
	p.asked[next] = true
	p.timer = time.AfterFunc(r.timeout, func() { r.expire(key) })
	r.mu.Unlock()
	m.relayRerequests.Inc()
	m.local(key.kind).get(requestOut).Inc()
	r.node.SendTo(next, "getdata", EncodeInv(key.kind, key.id))
}

// newPendingLocked registers an outstanding fetch asked of from; the
// caller holds r.mu.
func (r *Relay) newPendingLocked(key invKey, from string) {
	p := &pendingFetch{
		announcers: []string{from},
		asked:      map[string]bool{from: true},
	}
	p.timer = time.AfterFunc(r.timeout, func() { r.expire(key) })
	r.pending[key] = p
}

// clearPendingLocked drops the outstanding fetch for key, if any; the
// caller holds r.mu.
func (r *Relay) clearPendingLocked(key invKey) {
	if p, ok := r.pending[key]; ok {
		p.timer.Stop()
		delete(r.pending, key)
	}
}

// storeLocked inserts the body with ring eviction; the caller holds
// r.mu.
func (r *Relay) storeLocked(key invKey, payload []byte) {
	if _, dup := r.store[key]; dup {
		return
	}
	r.store[key] = payload
	if len(r.ring) < maxRelayObjects {
		r.ring = append(r.ring, key)
		return
	}
	delete(r.store, r.ring[r.head])
	r.ring[r.head] = key
	r.head = (r.head + 1) % maxRelayObjects
}

// knownLocked returns the peer's known-inventory set, creating it on
// first use; the caller holds r.mu.
func (r *Relay) knownLocked(addr string) *invSet {
	s := r.known[addr]
	if s == nil {
		s = newInvSet(maxKnownPerPeer)
		r.known[addr] = s
	}
	return s
}

// pruneKnownLocked drops known-inventory state for departed peers; the
// caller holds r.mu.
func (r *Relay) pruneKnownLocked(peers []string) {
	if len(r.known) <= len(peers) {
		return
	}
	live := make(map[string]bool, len(peers))
	for _, addr := range peers {
		live[addr] = true
	}
	for addr := range r.known {
		if !live[addr] {
			delete(r.known, addr)
		}
	}
}

// EncodeInv frames an inventory payload: 1-byte kind length, the kind,
// then one or more 32-byte ids. The relay's inv and getdata share it, and
// the sync state machine's tail getdata batches use it to be answered by
// the same code path.
func EncodeInv(kind string, ids ...ObjectID) []byte {
	out := make([]byte, 0, 1+len(kind)+32*len(ids))
	out = append(out, byte(len(kind)))
	out = append(out, kind...)
	for i := range ids {
		out = append(out, ids[i][:]...)
	}
	return out
}

// decodeInv parses an EncodeInv payload. It rejects empty, truncated or
// ragged frames.
func decodeInv(payload []byte) (kind string, ids []ObjectID, ok bool) {
	if len(payload) < 1 {
		return "", nil, false
	}
	kl := int(payload[0])
	rest := payload[1:]
	if len(rest) < kl {
		return "", nil, false
	}
	kind = string(rest[:kl])
	rest = rest[kl:]
	if len(rest) == 0 || len(rest)%32 != 0 {
		return "", nil, false
	}
	ids = make([]ObjectID, 0, len(rest)/32)
	for len(rest) > 0 {
		var id ObjectID
		copy(id[:], rest[:32])
		ids = append(ids, id)
		rest = rest[32:]
	}
	return kind, ids, true
}
