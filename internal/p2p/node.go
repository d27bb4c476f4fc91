package p2p

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"log"
	"sync"

	"bcwan/internal/telemetry"
)

// ErrBanned reports a connection attempt to or from a banned peer.
var ErrBanned = errors.New("p2p: peer banned")

// ErrPeerLimit reports that the node's peer slots are full.
var ErrPeerLimit = errors.New("p2p: peer limit reached")

// DefaultBanThreshold is the misbehavior score at which a peer is
// disconnected and refused; ~10 malformed frames at the daemon's
// standard 10-point penalty.
const DefaultBanThreshold = 100

// Handler processes a gossip message. Handlers run on per-connection
// reader goroutines; implementations must be safe for concurrent use.
type Handler func(from string, msg Message)

// Node is one gossip participant: it listens for peers, maintains
// outbound connections, and floods messages with duplicate suppression.
type Node struct {
	transport Transport
	listener  Listener
	logger    *log.Logger

	// metrics is set once before the accept loop starts (see
	// NewNodeWithTelemetry) and never mutated, so reads need no lock.
	// All its methods are nil-safe no-ops when unset.
	metrics *p2pMetrics

	mu       sync.Mutex
	peers    map[string]*peer
	conns    map[Conn]bool // every live conn, incl. unregistered inbound
	handlers map[string]Handler
	// direct marks message types that are addressed point-to-point (the
	// relay's inv/getdata/fulfillment traffic): they bypass duplicate
	// suppression — the same getdata from two peers must be answered
	// twice — and are never re-flooded.
	direct map[string]bool
	seen   map[[sha256.Size]byte]bool
	// seenRing is a fixed-capacity ring over the keys of seen, in
	// insertion order. It grows to maxSeen and is then overwritten in
	// place at seenHead — unlike the previous slice-shift eviction,
	// the backing array is allocated once and old digests become
	// collectable as soon as they are overwritten.
	seenRing [][sha256.Size]byte
	seenHead int
	closed   bool

	// Misbehavior accounting (PR 8): protocol-level abuse accumulates a
	// per-address score; crossing banThreshold drops the peer and refuses
	// further connections either way. maxPeers (0 = unlimited) bounds the
	// registered-peer set so an adversary cannot add slots at will — and
	// banning a slot-squatter is the recovery path from an eclipse.
	banScore     map[string]int
	banned       map[string]bool
	banThreshold int
	maxPeers     int

	wg sync.WaitGroup
}

// maxSeen bounds the duplicate-suppression memory.
const maxSeen = 100_000

// sendQueueLen bounds each peer's outbound queue. Handlers run on
// reader goroutines and re-flood what they receive; if those floods
// wrote to the transport directly, two nodes with full transport
// buffers could block each other's readers forever (send-side
// head-of-line deadlock). Sends therefore enqueue to a per-peer writer
// goroutine and the queue sheds load when a peer stalls — the next
// catch-up round or mempool rebroadcast re-delivers anything dropped.
const sendQueueLen = 256

// peer is one registered neighbor: its connection plus the outbound
// queue its writer goroutine drains.
type peer struct {
	conn Conn
	out  chan Message
	die  chan struct{}
	once sync.Once
}

// stop wakes the writer so it exits; safe to call more than once.
func (p *peer) stop() { p.once.Do(func() { close(p.die) }) }

// enqueue offers msg to the writer without ever blocking the caller;
// it reports false when the queue is full and the message was shed.
func (p *peer) enqueue(msg Message) bool {
	select {
	case p.out <- msg:
		return true
	default:
		return false
	}
}

// NewNode starts a node listening on addr (empty = transport default).
func NewNode(transport Transport, addr string, logger *log.Logger) (*Node, error) {
	return NewNodeWithTelemetry(transport, addr, logger, nil)
}

// NewNodeWithTelemetry starts a node whose gossip traffic is recorded
// in reg (messages and bytes in/out by type, duplicate suppression,
// peer count, dial failures). A nil registry disables instrumentation.
func NewNodeWithTelemetry(transport Transport, addr string, logger *log.Logger, reg *telemetry.Registry) (*Node, error) {
	listener, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	n := &Node{
		transport:    transport,
		listener:     listener,
		logger:       logger,
		peers:        make(map[string]*peer),
		conns:        make(map[Conn]bool),
		handlers:     make(map[string]Handler),
		direct:       make(map[string]bool),
		seen:         make(map[[sha256.Size]byte]bool),
		banScore:     make(map[string]int),
		banned:       make(map[string]bool),
		banThreshold: DefaultBanThreshold,
	}
	if reg != nil {
		n.metrics = newP2PMetrics(reg)
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.listener.Addr() }

// Handle registers the handler for a message type. Must be called before
// messages of that type arrive.
func (n *Node) Handle(msgType string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[msgType] = h
}

// HandleDirect registers a handler for a point-to-point message type:
// no duplicate suppression and no gossip re-flood. Handlers must be
// idempotent — the wire may deliver the same message more than once.
func (n *Node) HandleDirect(msgType string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[msgType] = h
	n.direct[msgType] = true
}

// SetMaxPeers bounds the number of registered peers (0 = unlimited).
// Connections beyond the bound — outbound or inbound — are refused.
func (n *Node) SetMaxPeers(k int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.maxPeers = k
}

// SetBanThreshold overrides the misbehavior score at which a peer is
// banned.
func (n *Node) SetBanThreshold(v int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.banThreshold = v
}

// Misbehave charges points of protocol abuse (malformed frames, bogus
// requests) against an address. Crossing the ban threshold disconnects
// the peer and refuses it from then on. Callers pick the points so that
// an honest peer's occasional garbage never reaches the threshold.
func (n *Node) Misbehave(addr string, points int, reason string) {
	if addr == "" || addr == n.Addr() {
		return
	}
	n.mu.Lock()
	n.banScore[addr] += points
	score := n.banScore[addr]
	freshBan := score >= n.banThreshold && !n.banned[addr]
	if freshBan {
		n.banned[addr] = true
	}
	n.mu.Unlock()
	if m := n.metrics; m != nil {
		m.misbehavior.Add(uint64(points))
	}
	if freshBan {
		n.logf("banning %s (score %d): %s", addr, score, reason)
		if m := n.metrics; m != nil {
			m.bans.Inc()
		}
		n.dropPeer(addr)
	}
}

// Banned reports whether an address is currently banned.
func (n *Node) Banned(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.banned[addr]
}

// BanScore returns an address's accumulated misbehavior score.
func (n *Node) BanScore(addr string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.banScore[addr]
}

// Connect dials a peer and starts reading from it. Connecting to an
// already connected address is a no-op; banned addresses and connects
// beyond the peer limit are refused.
func (n *Node) Connect(addr string) error {
	if addr == n.Addr() {
		return nil
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if _, dup := n.peers[addr]; dup {
		n.mu.Unlock()
		return nil
	}
	if n.banned[addr] {
		n.mu.Unlock()
		if m := n.metrics; m != nil {
			m.connRefused("banned").Inc()
		}
		return ErrBanned
	}
	if n.maxPeers > 0 && len(n.peers) >= n.maxPeers {
		n.mu.Unlock()
		if m := n.metrics; m != nil {
			m.connRefused("full").Inc()
		}
		return ErrPeerLimit
	}
	n.mu.Unlock()

	conn, err := n.transport.Dial(addr)
	if err != nil {
		if m := n.metrics; m != nil {
			m.dialFailures.Inc()
		}
		return err
	}
	n.addPeer(addr, conn)
	return nil
}

// Peers returns the addresses of connected peers.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.peers))
	for addr := range n.peers {
		out = append(out, addr)
	}
	return out
}

// Broadcast floods a message to every connected peer. The message is
// marked seen locally so a gossiped echo is not re-processed. Sends are
// queued to per-peer writers and never block the caller.
func (n *Node) Broadcast(msgType string, payload []byte) {
	msg := Message{Type: msgType, From: n.Addr(), Payload: payload}
	n.markSeen(msg)
	n.sendToPeers(msg, "")
}

// SendTo queues a message to one connected peer only — the relay's
// announcement, request and fulfillment traffic. It reports false when
// the peer is unknown or its queue was full (the message was shed).
func (n *Node) SendTo(addr, msgType string, payload []byte) bool {
	msg := Message{Type: msgType, From: n.Addr(), Payload: payload}
	n.mu.Lock()
	p := n.peers[addr]
	n.mu.Unlock()
	if p == nil {
		return false
	}
	if !p.enqueue(msg) {
		if m := n.metrics; m != nil {
			m.queueDrops.Inc()
		}
		return false
	}
	if m := n.metrics; m != nil {
		m.msgOut(msg.Type).Inc()
		m.bytesOut.Add(uint64(msg.WireSize()))
	}
	return true
}

// sendToPeers queues msg to every peer except the one named by skip.
func (n *Node) sendToPeers(msg Message, skip string) {
	n.mu.Lock()
	targets := make([]*peer, 0, len(n.peers))
	for addr, p := range n.peers {
		if addr == skip {
			continue
		}
		targets = append(targets, p)
	}
	n.mu.Unlock()
	for _, p := range targets {
		if !p.enqueue(msg) {
			if m := n.metrics; m != nil {
				m.queueDrops.Inc()
			}
			continue
		}
		if m := n.metrics; m != nil {
			m.msgOut(msg.Type).Inc()
			m.bytesOut.Add(uint64(msg.WireSize()))
		}
	}
}

// Close shuts the node down and waits for its goroutines.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	for _, p := range n.peers {
		p.stop()
	}
	n.peers = make(map[string]*peer)
	n.conns = make(map[Conn]bool)
	n.peerGaugeLocked()
	n.mu.Unlock()

	n.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	return nil
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return
		}
		// Inbound peers are keyed by their advertised From address on
		// first message; until then track under a placeholder.
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop("", conn)
	}
}

func (n *Node) addPeer(addr string, conn Conn) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return
	}
	if old, dup := n.peers[addr]; dup {
		old.stop()
		old.conn.Close()
		delete(n.conns, old.conn)
	}
	n.registerPeerLocked(addr, conn)
	n.conns[conn] = true
	n.mu.Unlock()
	n.wg.Add(1)
	go n.readLoop(addr, conn)
}

// registerPeerLocked records a peer and starts its writer; the caller
// holds n.mu.
func (n *Node) registerPeerLocked(addr string, conn Conn) *peer {
	p := &peer{conn: conn, out: make(chan Message, sendQueueLen), die: make(chan struct{})}
	n.peers[addr] = p
	n.peerGaugeLocked()
	n.wg.Add(1)
	go n.writeLoop(addr, p)
	return p
}

// writeLoop drains one peer's outbound queue onto its connection. A
// send error drops the peer (the read loop notices the closed conn and
// exits as well).
func (n *Node) writeLoop(addr string, p *peer) {
	defer n.wg.Done()
	for {
		select {
		case msg := <-p.out:
			if err := p.conn.Send(msg); err != nil {
				n.logf("send %s to %s: %v", msg.Type, addr, err)
				n.dropPeer(addr)
				return
			}
		case <-p.die:
			return
		}
	}
}

func (n *Node) dropPeer(addr string) {
	n.mu.Lock()
	p, ok := n.peers[addr]
	if ok {
		delete(n.peers, addr)
		n.peerGaugeLocked()
	}
	n.mu.Unlock()
	if ok {
		p.stop()
		p.conn.Close()
	}
}

func (n *Node) readLoop(addr string, conn Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
	}()
	for {
		msg, err := conn.Receive()
		if err != nil {
			if addr != "" {
				n.dropPeer(addr)
			}
			return
		}
		// Learn inbound peer addresses so broadcasts reach them, and
		// so the mesh becomes bidirectional without extra dials. Banned
		// addresses and inbounds beyond the peer limit are refused — the
		// connection is closed, not just left unregistered, so a refused
		// peer cannot keep feeding us traffic.
		if addr == "" && msg.From != "" && msg.From != n.Addr() {
			addr = msg.From
			n.mu.Lock()
			refuse := ""
			if n.banned[addr] {
				refuse = "banned"
			} else if _, dup := n.peers[addr]; !dup && !n.closed {
				if n.maxPeers > 0 && len(n.peers) >= n.maxPeers {
					refuse = "full"
				} else {
					n.registerPeerLocked(addr, conn)
				}
			}
			n.mu.Unlock()
			if refuse != "" {
				if m := n.metrics; m != nil {
					m.connRefused(refuse).Inc()
				}
				n.logf("refusing inbound %s: %s", addr, refuse)
				return
			}
		}
		if m := n.metrics; m != nil {
			m.msgIn(msg.Type).Inc()
			m.bytesIn.Add(uint64(msg.WireSize()))
			m.messageBytes.Observe(float64(msg.WireSize()))
		}
		n.dispatch(msg)
	}
}

// dispatch runs the handler once per unique message and re-floods it.
// Direct (point-to-point) types skip both the duplicate suppression and
// the re-flood.
func (n *Node) dispatch(msg Message) {
	n.mu.Lock()
	h := n.handlers[msg.Type]
	direct := n.direct[msg.Type]
	n.mu.Unlock()
	if direct {
		if h != nil {
			h(msg.From, msg)
		}
		return
	}
	if !n.markSeen(msg) {
		if m := n.metrics; m != nil {
			m.dupSuppressed.Inc()
		}
		return
	}
	if h != nil {
		h(msg.From, msg)
	}
	// Gossip re-flood with our own origin, so indirect peers learn it.
	n.sendToPeers(Message{Type: msg.Type, From: n.Addr(), Payload: msg.Payload}, msg.From)
}

// messageDigest is the duplicate-suppression key. The payload is hashed
// on its own first (Sum256 runs over the original slice, no copy), then
// combined with the type through a small stack buffer — the previous
// type+payload concatenation allocated a fresh payload-sized buffer for
// every message on the hot path. Types longer than 63 bytes are
// truncated; gossip types are short constants.
func messageDigest(msgType string, payload []byte) [sha256.Size]byte {
	inner := sha256.Sum256(payload)
	var buf [63 + 1 + sha256.Size]byte
	n := copy(buf[:63], msgType)
	buf[n] = 0
	n++
	n += copy(buf[n:], inner[:])
	return sha256.Sum256(buf[:n])
}

// markSeen records the message body; it reports true the first time.
// Once the ring reaches maxSeen entries the oldest digest is evicted in
// place, keeping memory constant.
func (n *Node) markSeen(msg Message) bool {
	sum := messageDigest(msg.Type, msg.Payload)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.seen[sum] {
		return false
	}
	n.seen[sum] = true
	if len(n.seenRing) < maxSeen {
		n.seenRing = append(n.seenRing, sum)
		return true
	}
	delete(n.seen, n.seenRing[n.seenHead])
	n.seenRing[n.seenHead] = sum
	n.seenHead = (n.seenHead + 1) % maxSeen
	if m := n.metrics; m != nil {
		m.seenEvictions.Inc()
	}
	return true
}

// peerGaugeLocked syncs the peer-count gauge; the caller holds n.mu.
func (n *Node) peerGaugeLocked() {
	if m := n.metrics; m != nil {
		m.peerCount.Set(int64(len(n.peers)))
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.logger != nil {
		n.logger.Printf("p2p %s: %s", n.Addr(), fmt.Sprintf(format, args...))
	}
}
