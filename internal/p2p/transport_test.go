package p2p

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// connPair returns both ends of one connection on tr: the dialled end
// and the accepted one.
func connPair(t *testing.T, tr Transport) (dialled, accepted Conn) {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	acc := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(acc)
			return
		}
		acc <- c
	}()
	dialled, err = tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialled.Close() })
	select {
	case accepted = <-acc:
		if accepted == nil {
			t.Fatal("accept failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	t.Cleanup(func() { accepted.Close() })
	return dialled, accepted
}

// encodeFrame is the whole frame Send writes for m.
func encodeFrame(m Message) []byte {
	return append(appendFrameHeader(nil, &m), m.Payload...)
}

// TestFrameGoldenBytes pins the frame layout byte for byte: a change to
// it breaks every deployed peer.
func TestFrameGoldenBytes(t *testing.T) {
	m := Message{Type: "tx", From: "a:1", Payload: []byte{0xde, 0xad}}
	golden := []byte{
		0x00, 0x00, 0x00, 0x0a, // body length 10
		0x02, 't', 'x', // Type
		0x00, 0x03, 'a', ':', '1', // From
		0xde, 0xad, // Payload
	}
	a, b := net.Pipe()
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		errc <- newTCPConn(a).Send(m)
		a.Close()
	}()
	wire, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, golden) {
		t.Fatalf("frame = % x\nwant    % x", wire, golden)
	}
	got, err := decodeFrame(golden[framePrefixLen:], "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.From != m.From || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("decoded %+v, want %+v", got, m)
	}
}

// TestFrameSendRefusesOversizeFields: a field the layout cannot carry is
// an error before anything reaches the wire.
func TestFrameSendRefusesOversizeFields(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := newTCPConn(a)
	for name, m := range map[string]Message{
		"type":  {Type: strings.Repeat("t", maxFrameType+1)},
		"from":  {Type: "tx", From: strings.Repeat("f", maxFrameFrom+1)},
		"frame": {Type: "tx", Payload: make([]byte, maxFrameSize)},
	} {
		// Nothing reads b, so a frame that got as far as the pipe would
		// block here instead of returning.
		if err := c.Send(m); err == nil {
			t.Errorf("%s: oversize frame accepted", name)
		}
	}
}

// TestFramePrefixDoesNotPinMemory: a peer that declares a maximal frame
// and then stalls or hangs up must not make Receive allocate the whole
// declared body up front.
func TestFramePrefixDoesNotPinMemory(t *testing.T) {
	l, err := TCPTransport{}.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], maxFrameSize)
	if _, err := raw.Write(append(prefix[:], make([]byte, 10)...)); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = conn.Receive()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Receive accepted a frame cut off after 10 of 8 MiB")
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 1<<20 {
		t.Fatalf("Receive allocated %d bytes for a 10-byte body", delta)
	}
}

// TestFrameAllocations is a tripwire on the warm per-frame allocation
// counts. The frames Receive reads were all written before it starts, so
// no concurrent writer is counted.
func TestFrameAllocations(t *testing.T) {
	send, recv := connPair(t, TCPTransport{})
	m := Message{Type: "inv", From: "127.0.0.1:9401", Payload: make([]byte, 64)}
	// Warm both ends: the first frame sizes the header and sets the
	// receiver's remembered From.
	if err := send.Send(m); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Receive(); err != nil {
		t.Fatal(err)
	}
	// 101 frames of 88 bytes fit in the socket buffers with no reader.
	sendAllocs := testing.AllocsPerRun(100, func() {
		if err := send.Send(m); err != nil {
			t.Fatal(err)
		}
	})
	recvAllocs := testing.AllocsPerRun(100, func() {
		got, err := recv.Receive()
		if err != nil || got.From != m.From || len(got.Payload) != len(m.Payload) {
			t.Fatalf("Receive = %+v, %v", got, err)
		}
	})
	// A warm Send allocates nothing; Receive allocates the body alone.
	if sendAllocs > 0 {
		t.Errorf("Send allocates %.0f times per frame, want 0", sendAllocs)
	}
	if recvAllocs > 1 {
		t.Errorf("Receive allocates %.0f times per frame, want 1 (the body)", recvAllocs)
	}
}

// TestMalformedFrameDropsPeer: a frame whose body does not parse ends the
// connection, and the node forgets the peer it carried.
func TestMalformedFrameDropsPeer(t *testing.T) {
	n, err := NewNode(TCPTransport{}, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	raw, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(encodeFrame(Message{Type: "hello", From: "peer:1"})); err != nil {
		t.Fatal(err)
	}
	waitPeers(t, n, 1)
	// Body of 3 bytes whose Type claims 5.
	if _, err := raw.Write([]byte{0, 0, 0, 3, 5, 'a', 'b'}); err != nil {
		t.Fatal(err)
	}
	waitPeers(t, n, 0)
	if err := raw.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read after malformed frame = %v, want EOF", err)
	}
}

// FuzzFrameDecode: no body makes decodeFrame panic, and every body it
// accepts re-encodes to itself.
func FuzzFrameDecode(f *testing.F) {
	valid := encodeFrame(Message{Type: "block", From: "127.0.0.1:9401", Payload: []byte{1, 2, 3}})[framePrefixLen:]
	f.Add(valid)
	f.Add([]byte{})
	// Empty Type, From and Payload.
	f.Add([]byte{0, 0, 0})
	// Cut short: after the Type length, inside Type, inside the From
	// length, inside From.
	f.Add(valid[:1])
	f.Add(valid[:3])
	f.Add(valid[:1+5+1])
	f.Add(valid[:1+5+2+4])
	// Over-long: a Type, then a From, longer than the rest of the body.
	f.Add(append([]byte{0xff}, valid[1:]...))
	f.Add(append(valid[:1+5:1+5], append([]byte{0xff, 0xff}, valid[1+5+2:]...)...))
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := decodeFrame(body, "")
		if err != nil {
			return
		}
		if again := encodeFrame(m)[framePrefixLen:]; !bytes.Equal(again, body) {
			t.Fatalf("body % x re-encodes as % x", body, again)
		}
		reused, err := decodeFrame(body, m.From)
		if err != nil || reused.Type != m.Type || reused.From != m.From || !bytes.Equal(reused.Payload, m.Payload) {
			t.Fatalf("decode with the previous From = %+v, %v; want %+v", reused, err, m)
		}
	})
}
