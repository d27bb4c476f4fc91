package p2p

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestDialTimeoutBounds asserts an unreachable peer cannot stall Dial
// past the configured bound (it used to block for the OS default).
func TestDialTimeoutBounds(t *testing.T) {
	old := tcpDialTimeout
	tcpDialTimeout = 500 * time.Millisecond
	defer func() { tcpDialTimeout = old }()

	start := time.Now()
	// TEST-NET-3 (RFC 5737) is never routed; depending on the host it
	// black-holes (exercising the timeout) or errors immediately —
	// either way Dial must return well inside the bound.
	conn, err := TCPTransport{}.Dial("203.0.113.1:9")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial took %v, timeout not applied", elapsed)
	}
	if err == nil {
		// Some environments (transparent proxies, captive networks)
		// answer for any address; the bound above still held.
		conn.Close()
		t.Skip("network answers for TEST-NET addresses; connect timeout not exercisable here")
	}
}

// TestSendWriteDeadline asserts that a peer which stops reading turns
// into a send error instead of wedging the writer forever: the write
// deadline fires once the kernel buffers fill.
func TestSendWriteDeadline(t *testing.T) {
	old := tcpWriteTimeout
	tcpWriteTimeout = 300 * time.Millisecond
	defer func() { tcpWriteTimeout = old }()

	lis, err := TCPTransport{}.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer lis.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err == nil {
			accepted <- c // never read from: the peer is stalled
		}
	}()
	sender, err := TCPTransport{}.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer sender.Close()
	defer func() {
		select {
		case c := <-accepted:
			c.Close()
		default:
		}
	}()

	msg := Message{Type: "t", From: "a", Payload: make([]byte, 1<<20)}
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < 256; i++ {
			if err := sender.Send(msg); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("256 MiB vanished into an unread socket without an error")
		}
		if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
			t.Logf("send failed with non-timeout error %v (acceptable: peer reset)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("send to stalled peer never returned; write deadline not applied")
	}
}

// TestNodeCloseReleasesGoroutines asserts Close tears down accept,
// reader and writer goroutines — the regression guard for the per-peer
// writer loops.
func TestNodeCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	tr := NewMemTransport()
	var nodes []*Node
	for i := 0; i < 4; i++ {
		n, err := NewNode(tr, fmt.Sprintf("n%d", i), nil, nil)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes = append(nodes, n)
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				if err := a.Connect(b.Addr()); err != nil {
					t.Fatalf("connect: %v", err)
				}
			}
		}
	}
	for i, n := range nodes {
		for _, p := range n.Peers() {
			n.SendTo(p, "t", []byte{byte(i)})
		}
	}
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after close\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFloodDoesNotDeadlock is the regression test for the send-side
// head-of-line deadlock: handlers used to send synchronously on reader
// goroutines, so two nodes with full transport buffers blocked each
// other's readers forever. Here every received message is answered from
// its reader goroutine; with per-peer writer queues the flood below
// completes, where synchronous replies hang.
func TestFloodDoesNotDeadlock(t *testing.T) {
	tr := NewMemTransport()
	a, err := NewNode(tr, "a", nil, nil)
	if err != nil {
		t.Fatalf("node a: %v", err)
	}
	b, err := NewNode(tr, "b", nil, nil)
	if err != nil {
		t.Fatalf("node b: %v", err)
	}
	if err := a.Connect("b"); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if err := b.Connect("a"); err != nil {
		t.Fatalf("connect: %v", err)
	}
	for _, n := range []*Node{a, b} {
		Handle(n, "t", raw, func(from string, payload []byte) {
			n.SendTo(from, "r", payload)
		})
	}

	// Well past the 64-message transport buffer and the send queues,
	// from both sides at once.
	const floods = 4
	const msgs = 2000
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for f := 0; f < floods; f++ {
			wg.Add(2)
			go func(f int) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					a.SendTo("b", "t", []byte(fmt.Sprintf("a/%d/%d", f, i)))
				}
			}(f)
			go func(f int) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					b.SendTo("a", "t", []byte(fmt.Sprintf("b/%d/%d", f, i)))
				}
			}(f)
		}
		wg.Wait()
		a.Close()
		b.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("bidirectional flood deadlocked")
	}
}
