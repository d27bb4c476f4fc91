// Package p2p implements the gateway-to-gateway overlay of the BcWAN
// architecture (Fig. 2): with the network server removed, gateway daemons
// gossip transactions and blocks directly to each other over TCP. An
// in-memory transport with identical semantics backs the tests and the
// simulation harness.
package p2p

import (
	"encoding/binary"
	"encoding/json"
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
	Type string `json:"type"`
	// From is the sender's listen address, so receivers can dial back.
	From string `json:"from"`
	// Payload is the message body (hex/base64-free: JSON array of
	// bytes is wasteful, so payloads are raw bytes via base64 per
	// encoding/json's []byte convention).
	Payload []byte `json:"payload"`
}

// WireSize is the logical size of the message on the wire: type, sender
// and payload bytes. Transport framing (JSON field names, base64
// expansion, length prefixes) is excluded so byte metrics compare
// protocols, not encodings. The byte counters and the relaybench
// experiment both use this measure.
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

// TCPTransport implements Transport over real sockets with 4-byte
// length-prefixed JSON frames.
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
	return &tcpConn{c: c}, nil
}

type tcpListener struct {
	l net.Listener
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: c}, nil
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }

func (t *tcpListener) Close() error { return t.l.Close() }

type tcpConn struct {
	c  net.Conn
	mu sync.Mutex // serializes Send frames
}

func (t *tcpConn) Send(m Message) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("p2p marshal: %w", err)
	}
	if len(data) > maxFrameSize {
		return fmt.Errorf("p2p: frame of %d bytes exceeds limit", len(data))
	}
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(len(data)))
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.c.SetWriteDeadline(time.Now().Add(tcpWriteTimeout)); err != nil {
		return err
	}
	if _, err := t.c.Write(lenb[:]); err != nil {
		return err
	}
	_, err = t.c.Write(data)
	return err
}

func (t *tcpConn) Receive() (Message, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(t.c, lenb[:]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n > maxFrameSize {
		return Message{}, fmt.Errorf("p2p: frame of %d bytes exceeds limit", n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(t.c, data); err != nil {
		return Message{}, err
	}
	var m Message
	if err := json.Unmarshal(data, &m); err != nil {
		return Message{}, fmt.Errorf("p2p unmarshal: %w", err)
	}
	return m, nil
}

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
