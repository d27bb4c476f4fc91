// Package p2p implements the gateway-to-gateway overlay of the BcWAN
// architecture (Fig. 2): with the network server removed, gateway daemons
// gossip transactions and blocks directly to each other over TCP. An
// in-memory transport with identical semantics backs the tests and the
// simulation harness.
package p2p

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Message is one framed gossip datagram.
type Message struct {
	// Type routes the message to a handler ("tx", "block", "inv", …).
	Type string
	// From is the sender's listen address, so receivers can dial back.
	From string
	// Payload is the message body, carried as raw bytes.
	Payload []byte
}

// WireSize is the logical size of the message on the wire: type, sender
// and payload bytes. Transport framing (length prefixes) is excluded so
// byte metrics compare protocols, not encodings. The byte counters and
// the relaybench experiment both use this measure.
func (m *Message) WireSize() int { return len(m.Type) + len(m.From) + len(m.Payload) }

// maxFrameSize bounds a single framed message (a full block with many
// transactions fits comfortably).
const maxFrameSize = 8 << 20

// Transport abstracts the wire so TCP and in-memory networks share the
// Node implementation.
type Transport interface {
	// Listen starts accepting connections on addr ("" lets the
	// transport choose). It returns the bound address.
	Listen(addr string) (Listener, error)
	// Dial opens a connection to a listening address.
	Dial(addr string) (Conn, error)
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Addr() string
	Close() error
}

// Conn is a bidirectional message stream.
type Conn interface {
	Send(Message) error
	Receive() (Message, error)
	Close() error
}

// ErrClosed reports use of a closed connection or listener.
var ErrClosed = errors.New("p2p: closed")

// TCPTransport implements Transport over real sockets, one binary frame
// per message (see tcpConn).
type TCPTransport struct{}

var _ Transport = TCPTransport{}

// Socket timeouts, variables so tests can shrink them. Without the dial
// bound a black-holed peer stalls Connect for the OS default (minutes);
// without the write bound a peer that stops reading wedges its writer
// goroutine forever instead of surfacing a send error that drops it.
var (
	tcpDialTimeout  = 10 * time.Second
	tcpWriteTimeout = 30 * time.Second
)

// Listen implements Transport.
func (TCPTransport) Listen(addr string) (Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("p2p listen: %w", err)
	}
	return &tcpListener{l: l}, nil
}

// Dial implements Transport.
func (TCPTransport) Dial(addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, tcpDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("p2p dial %s: %w", addr, err)
	}
	return newTCPConn(c), nil
}

type tcpListener struct {
	l net.Listener
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }

func (t *tcpListener) Close() error { return t.l.Close() }

// Frame layout, all integers big-endian:
//
//	u32 body length | u8 len(Type) | Type | u16 len(From) | From | Payload
//
// The body is everything after the 4-byte prefix; maxFrameSize bounds it.
const (
	framePrefixLen = 4
	maxFrameType   = 1<<8 - 1
	maxFrameFrom   = 1<<16 - 1
	// frameChunk is the most Receive allocates for a body before its
	// bytes arrive; a larger declared body grows as they do, so a bare
	// prefix cannot pin maxFrameSize bytes.
	frameChunk = 64 << 10
)

// frameTypes interns the message types this project sends, so a received
// frame of a known type allocates no Type string. The daemon's "delivery"
// and "deliveryack" are listed by value: internal/daemon defines them.
var frameTypes = func() map[string]string {
	all := append([]string{
		MsgTypeChannelOpen, MsgTypeChannelAccept, MsgTypeChannelFund,
		MsgTypeChannelUpdate, MsgTypeChannelUpdateAck, MsgTypeChannelClose,
		MsgTypeGetHeaders, MsgTypeHeaders, MsgTypeGetSnapshot,
		MsgTypeSnapshotChunk, MsgTypeSnapCommit,
		"delivery", "deliveryack",
	}, knownMessageTypes...)
	m := make(map[string]string, len(all))
	for _, t := range all {
		m[t] = t
	}
	return m
}()

type tcpConn struct {
	c net.Conn

	mu   sync.Mutex // serializes Send frames; guards the fields below
	hdr  []byte     // the frame's prefix, Type and From, reused per Send
	bufs [2][]byte  // header and payload, backing vec
	vec  net.Buffers

	// Receive state; only the connection's one reader touches it.
	r      *bufio.Reader
	prefix [framePrefixLen]byte
	from   string // the last frame's From, reused while it repeats
}

func newTCPConn(c net.Conn) *tcpConn { return &tcpConn{c: c, r: bufio.NewReader(c)} }

// Send writes m as one frame: header and payload in one vectored write,
// the payload neither copied nor re-encoded.
func (t *tcpConn) Send(m Message) error {
	if len(m.Type) > maxFrameType {
		return fmt.Errorf("p2p: message type of %d bytes exceeds %d", len(m.Type), maxFrameType)
	}
	if len(m.From) > maxFrameFrom {
		return fmt.Errorf("p2p: sender of %d bytes exceeds %d", len(m.From), maxFrameFrom)
	}
	if body := 1 + len(m.Type) + 2 + len(m.From) + len(m.Payload); body > maxFrameSize {
		return fmt.Errorf("p2p: frame of %d bytes exceeds limit", body)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hdr = appendFrameHeader(t.hdr[:0], &m)
	if err := t.c.SetWriteDeadline(time.Now().Add(tcpWriteTimeout)); err != nil {
		return err
	}
	// WriteTo consumes vec and clears bufs' entries, so the payload is
	// not retained past the write.
	t.bufs = [2][]byte{t.hdr, m.Payload}
	t.vec = t.bufs[:]
	_, err := t.vec.WriteTo(t.c)
	return err
}

// appendFrameHeader appends everything of m's frame but its payload: the
// length prefix, Type and From. The caller has checked the field limits.
func appendFrameHeader(h []byte, m *Message) []byte {
	body := 1 + len(m.Type) + 2 + len(m.From) + len(m.Payload)
	h = binary.BigEndian.AppendUint32(h, uint32(body))
	h = append(h, byte(len(m.Type)))
	h = append(h, m.Type...)
	h = binary.BigEndian.AppendUint16(h, uint16(len(m.From)))
	return append(h, m.From...)
}

// Receive reads the next frame. The returned Payload aliases a buffer
// owned by the message alone.
func (t *tcpConn) Receive() (Message, error) {
	if _, err := io.ReadFull(t.r, t.prefix[:]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(t.prefix[:])
	if n > maxFrameSize {
		return Message{}, fmt.Errorf("p2p: frame of %d bytes exceeds limit", n)
	}
	body, err := readBody(t.r, int(n))
	if err != nil {
		return Message{}, err
	}
	m, err := decodeFrame(body, t.from)
	if err != nil {
		return Message{}, err
	}
	t.from = m.From
	return m, nil
}

// readBody reads an n-byte frame body. Up to frameChunk bytes are
// allocated at once; beyond that the buffer at most doubles per step,
// each step only after the bytes before it have arrived.
func readBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, min(n, frameChunk))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	for len(body) < n {
		have := len(body)
		body = append(body, make([]byte, min(have, n-have))...)
		if _, err := io.ReadFull(r, body[have:]); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// decodeFrame parses a frame body (everything after the length prefix).
// Payload aliases body, a known Type is interned, and From is lastFrom
// itself when the two are equal, so a connection whose sender repeats
// allocates no string for it.
func decodeFrame(body []byte, lastFrom string) (Message, error) {
	if len(body) < 1 || len(body) < 1+int(body[0])+2 {
		return Message{}, errMalformedFrame
	}
	typ := body[1 : 1+int(body[0])]
	rest := body[1+len(typ):]
	nFrom := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) < nFrom {
		return Message{}, errMalformedFrame
	}
	m := Message{Type: frameTypes[string(typ)], From: lastFrom, Payload: rest[nFrom:]}
	if m.Type == "" {
		m.Type = string(typ)
	}
	if string(rest[:nFrom]) != lastFrom {
		m.From = string(rest[:nFrom])
	}
	return m, nil
}

var errMalformedFrame = errors.New("p2p: malformed frame")

func (t *tcpConn) Close() error { return t.c.Close() }

// MemTransport is an in-process Transport: addresses are arbitrary
// strings, connections are paired channels. Safe for concurrent use.
type MemTransport struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	nextAddr  int
}

var _ Transport = (*MemTransport)(nil)

// NewMemTransport returns an empty in-memory network.
func NewMemTransport() *MemTransport {
	return &MemTransport{listeners: make(map[string]*memListener)}
}

// Listen implements Transport.
func (m *MemTransport) Listen(addr string) (Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" {
		m.nextAddr++
		addr = fmt.Sprintf("mem:%d", m.nextAddr)
	}
	if _, taken := m.listeners[addr]; taken {
		return nil, fmt.Errorf("p2p: address %s in use", addr)
	}
	l := &memListener{addr: addr, incoming: make(chan Conn, 16), transport: m}
	m.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (m *MemTransport) Dial(addr string) (Conn, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("p2p dial %s: connection refused", addr)
	}
	a, b := newMemConnPair()
	select {
	case l.incoming <- b:
		return a, nil
	default:
		a.Close()
		b.Close()
		return nil, fmt.Errorf("p2p dial %s: accept queue full", addr)
	}
}

type memListener struct {
	addr      string
	incoming  chan Conn
	transport *MemTransport
	closeOnce sync.Once
	closed    chan struct{}
}

func (l *memListener) Accept() (Conn, error) {
	c, ok := <-l.incoming
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

func (l *memListener) Addr() string { return l.addr }

func (l *memListener) Close() error {
	l.closeOnce.Do(func() {
		l.transport.mu.Lock()
		delete(l.transport.listeners, l.addr)
		l.transport.mu.Unlock()
		close(l.incoming)
	})
	return nil
}

type memConn struct {
	in        chan Message
	out       chan Message
	closeOnce sync.Once
	closed    chan struct{}
	peer      *memConn
}

func newMemConnPair() (*memConn, *memConn) {
	ab := make(chan Message, 64)
	ba := make(chan Message, 64)
	a := &memConn{in: ba, out: ab, closed: make(chan struct{})}
	b := &memConn{in: ab, out: ba, closed: make(chan struct{})}
	a.peer = b
	b.peer = a
	return a, b
}

func (c *memConn) Send(m Message) error {
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer.closed:
		return ErrClosed
	case c.out <- m:
		return nil
	}
}

func (c *memConn) Receive() (Message, error) {
	select {
	case <-c.closed:
		return Message{}, ErrClosed
	case m := <-c.in:
		return m, nil
	case <-c.peer.closed:
		// Drain anything already queued before reporting closure.
		select {
		case m := <-c.in:
			return m, nil
		default:
			return Message{}, io.EOF
		}
	}
}

func (c *memConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}
