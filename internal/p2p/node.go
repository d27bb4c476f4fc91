package p2p

import (
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
// disconnected and refused.
const DefaultBanThreshold = 100

// Penalty is what one frame costs its sender when its type's decoder
// refuses the payload, or when it claims another sender: ten such
// frames ban the peer, and an honest peer's occasional garbage stays
// far from that.
const Penalty = DefaultBanThreshold / 10

// DefaultMaxPeers bounds a node's registered peers unless SetMaxPeers
// says otherwise, so inbound connections cannot grow the peer set
// without limit (Bitcoin Core's default).
const DefaultMaxPeers = 125

// handler decodes one payload and, if it decodes, consumes the value; it
// returns the decoder's error.
type handler func(from string, payload []byte) error

// Node is one overlay participant: it listens for peers, maintains
// outbound connections, and moves every message point-to-point. Nothing
// is forwarded here — a gossiped object travels only through the
// inventory relay (relay.go), which announces what a handler validated —
// so a message of a type no handler knows is dropped at the first hop.
type Node struct {
	transport Transport
	listener  Listener
	logger    *log.Logger

	// metrics is set once in NewNode, before the accept loop starts, and
	// never mutated, so reads need no lock. All its methods are nil-safe
	// no-ops when unset.
	metrics *p2pMetrics

	mu       sync.Mutex
	peers    map[string]*peer
	conns    map[Conn]bool // every live conn, incl. unregistered inbound
	handlers map[string]handler
	closed   bool

	// Misbehavior accounting: protocol-level abuse accumulates a
	// per-address score; crossing DefaultBanThreshold drops the peer and
	// refuses further connections either way. maxPeers bounds the
	// registered-peer set so an adversary cannot add slots at will — and
	// banning a slot-squatter is the recovery path from an eclipse.
	banScore map[string]int
	banned   map[string]bool
	maxPeers int

	wg sync.WaitGroup
}

// sendQueueLen bounds each peer's outbound queue. Handlers run on
// reader goroutines and often answer what they receive (getdata with a
// body, getheaders with headers); if those replies wrote to the
// transport directly, two nodes with full transport buffers could block
// each other's readers forever (send-side head-of-line deadlock). Sends
// therefore enqueue to a per-peer writer goroutine and the queue sheds
// load when a peer stalls — the relay's re-request timeout, the next
// catch-up round or the mempool rebroadcast re-delivers anything dropped.
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

// NewNode starts a node listening on addr (empty = transport default)
// whose traffic is recorded in reg (messages and bytes in/out by type,
// peer count, dial failures, bans). A nil registry disables
// instrumentation.
func NewNode(transport Transport, addr string, logger *log.Logger, reg *telemetry.Registry) (*Node, error) {
	listener, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	n := &Node{
		transport: transport,
		listener:  listener,
		logger:    logger,
		peers:     make(map[string]*peer),
		conns:     make(map[Conn]bool),
		handlers:  make(map[string]handler),
		banScore:  make(map[string]int),
		banned:    make(map[string]bool),
		maxPeers:  DefaultMaxPeers,
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

// Handle registers how payloads of one message type become values and
// who consumes them. Must be called before messages of that type arrive.
// A payload the decoder refuses costs its sender Penalty and reaches no
// handler; a type with no registration is dropped uncharged. h runs on
// the connection's reader goroutine, under the address the connection
// is registered as (never a frame's own claim), and must be idempotent:
// the wire may deliver the same message more than once. A type gets its
// per-type telemetry series only once a registration or a send names it.
func Handle[T any](n *Node, msgType string, decode func([]byte) (T, error), h func(from string, v T)) {
	n.metrics.local(msgType)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[msgType] = func(from string, payload []byte) error {
		v, err := decode(payload)
		if err == nil {
			h(from, v)
		}
		return err
	}
}

// SetMaxPeers bounds the number of registered peers (DefaultMaxPeers
// until called). Connections beyond the bound — outbound or inbound —
// are refused.
func (n *Node) SetMaxPeers(k int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.maxPeers = k
}

// misbehave charges Penalty against an address. Crossing the ban
// threshold disconnects the peer and refuses it from then on.
func (n *Node) misbehave(addr, reason string) {
	if addr == "" || addr == n.Addr() {
		return
	}
	n.mu.Lock()
	n.banScore[addr] += Penalty
	score := n.banScore[addr]
	freshBan := score >= DefaultBanThreshold && !n.banned[addr]
	if freshBan {
		n.banned[addr] = true
	}
	n.mu.Unlock()
	if m := n.metrics; m != nil {
		m.misbehavior.Add(Penalty)
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
	if len(n.peers) >= n.maxPeers {
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

// SendTo queues a message to one connected peer only — the relay's
// announcement, request and fulfillment traffic. It reports false when
// the peer is unknown or its queue was full (the message was shed). The
// peer's writer counts the message as sent just before it hands it to
// the transport, so the count moves before the peer can act on it.
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
	return true
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
			if m := n.metrics; m != nil {
				m.local(msg.Type).get(msgOut).Inc()
				m.bytesOut.Add(uint64(msg.WireSize()))
			}
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
		// Learn inbound peer addresses so replies and announcements
		// reach them, and so the mesh becomes bidirectional without
		// extra dials. Banned
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
				if len(n.peers) >= n.maxPeers {
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
			m.remote(msg.Type).get(msgIn).Inc()
			m.bytesIn.Add(uint64(msg.WireSize()))
			m.messageBytes.Observe(float64(msg.WireSize()))
		}
		if msg.From != addr {
			// Else a peer could have another charged for its garbage,
			// or route replies elsewhere.
			n.misbehave(addr, "frame claims to be from "+msg.From)
			continue
		}
		n.dispatch(addr, msg)
	}
}

// dispatch runs the message's handler, if its type has one, under the
// address of the connection it arrived on, and charges the sender for a
// payload the type's decoder refuses. Nothing is forwarded.
func (n *Node) dispatch(from string, msg Message) {
	n.mu.Lock()
	h := n.handlers[msg.Type]
	n.mu.Unlock()
	if h == nil {
		return
	}
	if err := h(from, msg.Payload); err != nil {
		n.misbehave(from, msg.Type+": "+err.Error())
	}
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
