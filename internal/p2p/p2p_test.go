package p2p

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// collector accumulates received messages thread-safely.
type collector struct {
	mu   sync.Mutex
	msgs []Message
}

// handler records a payload the raw decoder passed, with its sender.
func (c *collector) handler(from string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, Message{From: from, Payload: payload})
}

// raw is the decoder of a test fake that wants the payload bytes.
func raw(payload []byte) ([]byte, error) { return payload, nil }

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) waitFor(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages, have %d", n, c.count())
		}
		time.Sleep(time.Millisecond)
	}
}

func transports(t *testing.T) map[string]func() Transport {
	t.Helper()
	return map[string]func() Transport{
		"mem": func() Transport { return NewMemTransport() },
		"tcp": func() Transport { return TCPTransport{} },
	}
}

func TestDirectBroadcast(t *testing.T) {
	for name, mk := range transports(t) {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			a, err := NewNode(tr, "", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := NewNode(tr, "", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			var got collector
			Handle(b, "tx", raw, got.handler)
			if err := a.Connect(b.Addr()); err != nil {
				t.Fatal(err)
			}
			a.SendTo(b.Addr(), "tx", []byte("payload-1"))
			got.waitFor(t, 1)
			if string(got.msgs[0].Payload) != "payload-1" {
				t.Fatalf("payload = %q", got.msgs[0].Payload)
			}
			if got.msgs[0].From != a.Addr() {
				t.Fatalf("from = %q, want %q", got.msgs[0].From, a.Addr())
			}
		})
	}
}

func TestBidirectionalAfterInbound(t *testing.T) {
	tr := NewMemTransport()
	a, err := NewNode(tr, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(tr, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var aGot collector
	Handle(a, "tx", raw, aGot.handler)
	var bGot collector
	Handle(b, "tx", raw, bGot.handler)

	// Only a dials b. After a's first message, b must be able to
	// answer over the learned inbound connection.
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	a.SendTo(b.Addr(), "tx", []byte("hello"))
	bGot.waitFor(t, 1)
	b.SendTo(a.Addr(), "tx", []byte("reply"))
	aGot.waitFor(t, 1)
	if string(aGot.msgs[0].Payload) != "reply" {
		t.Fatalf("payload = %q", aGot.msgs[0].Payload)
	}
}

func TestConnectSelfIsNoop(t *testing.T) {
	tr := NewMemTransport()
	a, err := NewNode(tr, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Connect(a.Addr()); err != nil {
		t.Fatal(err)
	}
	if len(a.Peers()) != 0 {
		t.Fatal("node connected to itself")
	}
}

func TestConnectUnknownAddressFails(t *testing.T) {
	tr := NewMemTransport()
	a, err := NewNode(tr, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Connect("mem:999"); err == nil {
		t.Fatal("dial to unknown address succeeded")
	}
}

func TestCloseIsIdempotentAndStopsUse(t *testing.T) {
	tr := NewMemTransport()
	a, err := NewNode(tr, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("mem:other-node"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Connect after Close err = %v, want ErrClosed", err)
	}
}

func TestMemConnCloseUnblocksReceive(t *testing.T) {
	a, b := newMemConnPair()
	done := make(chan error, 1)
	go func() {
		_, err := b.Receive()
		done <- err
	}()
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("Receive err = %v, want EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Receive did not unblock on peer close")
	}
}

func TestMemConnDrainsQueuedBeforeEOF(t *testing.T) {
	a, b := newMemConnPair()
	if err := a.Send(Message{Type: "tx", Payload: []byte("queued")}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	m, err := b.Receive()
	if err != nil {
		t.Fatalf("Receive = %v, want queued message", err)
	}
	if string(m.Payload) != "queued" {
		t.Fatalf("payload = %q", m.Payload)
	}
}

// TestTCPFrameRoundTrip: every message the project sends, and the edges
// of the frame layout, arrive with the same Type, From and Payload bytes
// over both transports.
func TestTCPFrameRoundTrip(t *testing.T) {
	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	var cases []Message
	for _, typ := range knownMessageTypes {
		cases = append(cases, Message{Type: typ, From: "127.0.0.1:9401", Payload: payload})
	}
	cases = append(cases,
		Message{Type: "tx", From: "me"},
		Message{Type: strings.Repeat("t", maxFrameType), From: "me", Payload: []byte{1}},
		Message{Type: "tx", From: strings.Repeat("f", maxFrameFrom), Payload: []byte{2}},
		Message{Type: "unknown-type", From: "someone-else", Payload: []byte{3}},
		// A body that outgrows Receive's first allocation twice.
		Message{Type: "block", From: "me", Payload: bytes.Repeat(payload[:7], frameChunk/2)},
	)
	for name, mk := range transports(t) {
		t.Run(name, func(t *testing.T) {
			send, recv := connPair(t, mk())
			errc := make(chan error, 1)
			go func() {
				for _, m := range cases {
					if err := send.Send(m); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
			for i, want := range cases {
				got, err := recv.Receive()
				if err != nil {
					t.Fatalf("case %d: %v", i, err)
				}
				if got.Type != want.Type || got.From != want.From || !bytes.Equal(got.Payload, want.Payload) {
					t.Fatalf("case %d: got %.40q/%.40q/%d bytes, want %.40q/%.40q/%d bytes",
						i, got.Type, got.From, len(got.Payload), want.Type, want.From, len(want.Payload))
				}
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		})
	}
}
