package p2p

import (
	"sync"
	"time"
)

// This file implements inventory-based relay on top of the point-to-point
// node, the only way a gossiped object (transaction, block, snapshot
// commitment) reaches peers beyond the first hop: a node that obtains a
// new object announces its 32-byte digest ("inv") and peers request only
// the bodies they do not already hold ("getdata"). The relay keeps no
// bodies: the consumer is the only store, answering Have and Fetch, and
// an object travels on only once its kind's handler reports that the
// consumer holds it, so a body this node refused stops here. Per-peer
// known-inventory sets keep a node from announcing an object back to the
// peer it learned it from, and a timeout re-requests an announced object
// from the next announcer when the first one never answers.

// ObjectID is the 32-byte content identifier inventory gossip relays
// (transaction, block and snapshot-commitment hashes).
type ObjectID = [32]byte

const (
	// maxKnownPerPeer bounds each peer's known-inventory ring.
	maxKnownPerPeer = 8192
	// defaultRequestTimeout is how long a getdata waits before the
	// relay asks the next announcer.
	defaultRequestTimeout = 500 * time.Millisecond
)

// RelayConfig wires an inventory relay to its consumer, the only store
// of the objects it relays. Have and Fetch are required.
type RelayConfig struct {
	// Have reports whether the consumer holds the object, or would
	// refuse it again; such inventory is never requested.
	Have func(kind string, id ObjectID) bool
	// Fetch serializes a held object to answer a getdata.
	Fetch func(kind string, id ObjectID) ([]byte, bool)
	// RequestTimeout overrides defaultRequestTimeout (tests shrink it).
	RequestTimeout time.Duration
}

// ObjectHandler consumes one relayed object body. It returns the
// object's content id and whether the consumer now holds the object —
// Fetch can serve it — so the relay announces it onward. Handlers must
// be idempotent: a re-requested object can be delivered by more than one
// announcer.
type ObjectHandler func(from string, payload []byte) (id ObjectID, relay bool)

// invKey identifies one relayable object.
type invKey struct {
	kind string
	id   ObjectID
}

// invSet is a bounded set of object identities with ring eviction.
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

// Announce advertises the digest of an object the consumer holds to
// connected peers not already known to hold it.
func (r *Relay) Announce(kind string, id ObjectID) {
	key := invKey{kind, id}
	peers := r.node.Peers()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
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

// AnnounceBatch advertises objects the consumer already holds (its
// Fetch answers the getdata) with one inv frame per peer — the daemon's
// pool re-announce, which per-object announcements would cost one
// message per object per peer every tick. The batch ignores
// known-inventory: an entry can be a false positive when a send was
// enqueued but lost, and a re-announce exists to repair exactly that.
func (r *Relay) AnnounceBatch(kind string, ids []ObjectID) {
	if len(ids) == 0 {
		return
	}
	wire := EncodeInv(kind, ids...)
	announced := r.node.metrics.local(kind).get(announceOut)
	for _, addr := range r.node.Peers() {
		if r.node.SendTo(addr, "inv", wire) {
			announced.Add(uint64(len(ids)))
		}
	}
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
	if r.cfg.Have(kind, id) {
		return
	}
	key := invKey{kind, id}
	r.mu.Lock()
	if r.closed {
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
		if r.cfg.Have(kind, id) {
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

// onGetData answers requests through the consumer's Fetch. A kind with
// no handler is ignored, as in onInv: this node relays no such object.
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
		body, have := r.cfg.Fetch(kind, id)
		if !have {
			m.relayUnfulfilled.Inc()
			continue
		}
		if r.node.SendTo(from, kind, body) {
			counters.get(fulfillOut).Inc()
			r.mu.Lock()
			r.knownLocked(from).add(invKey{kind, id})
			r.mu.Unlock()
		}
	}
}

// onObject runs the consumer handler for a delivered body, then relays
// the object onward by announcement if the consumer now holds it. A
// duplicate delivery announces to no one: every peer told the first
// time is known to hold the object.
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
	// The handler stored a held object before the fetch clears, so an
	// inv handled from here on finds it through Have.
	r.clearPendingLocked(key)
	r.mu.Unlock()
	if relayOn {
		r.Announce(kind, id)
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
