package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"
)

func waitPeers(t *testing.T, n *Node, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(n.Peers()) != want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d peers, have %v", want, n.Peers())
		}
		time.Sleep(time.Millisecond)
	}
}

// ban charges addr at n until the ban threshold.
func ban(n *Node, addr, reason string) {
	for i := 0; i < DefaultBanThreshold/Penalty; i++ {
		n.misbehave(addr, reason)
	}
}

func TestMisbehaveCrossingThresholdBans(t *testing.T) {
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

	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultBanThreshold/Penalty-1; i++ {
		a.misbehave(b.Addr(), "malformed frames")
	}
	if a.Banned(b.Addr()) {
		t.Fatal("banned below threshold")
	}
	a.misbehave(b.Addr(), "malformed frame")
	if !a.Banned(b.Addr()) {
		t.Fatal("not banned at threshold")
	}
	if got := a.BanScore(b.Addr()); got != DefaultBanThreshold {
		t.Fatalf("ban score = %d, want %d", got, DefaultBanThreshold)
	}
	waitPeers(t, a, 0)
	if err := a.Connect(b.Addr()); !errors.Is(err, ErrBanned) {
		t.Fatalf("reconnect err = %v, want ErrBanned", err)
	}
}

func TestBannedInboundRefusedAndNotDispatched(t *testing.T) {
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

	var got collector
	Handle(a, "tx", raw, got.handler)
	ban(a, b.Addr(), "preemptive")

	if err := b.Connect(a.Addr()); err != nil {
		t.Fatal(err)
	}
	b.SendTo(a.Addr(), "tx", []byte("from-banned"))
	time.Sleep(50 * time.Millisecond)
	if got.count() != 0 {
		t.Fatalf("dispatched %d messages from a banned peer", got.count())
	}
	if len(a.Peers()) != 0 {
		t.Fatalf("banned peer registered: %v", a.Peers())
	}
}

func TestMaxPeersRefusesExtraAndBanFreesSlot(t *testing.T) {
	tr := NewMemTransport()
	mk := func() *Node {
		n, err := NewNode(tr, "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	a, b, c := mk(), mk(), mk()

	a.SetMaxPeers(1)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect(c.Addr()); !errors.Is(err, ErrPeerLimit) {
		t.Fatalf("outbound over limit err = %v, want ErrPeerLimit", err)
	}

	// Inbound beyond the limit is refused too: c's connection is closed
	// and never registered.
	if err := c.Connect(a.Addr()); err != nil {
		t.Fatal(err)
	}
	c.SendTo(a.Addr(), "tx", []byte("hello"))
	time.Sleep(50 * time.Millisecond)
	if len(a.Peers()) != 1 || a.Peers()[0] != b.Addr() {
		t.Fatalf("peers = %v, want just %s", a.Peers(), b.Addr())
	}

	// Banning the slot squatter frees the slot for the honest peer.
	ban(a, b.Addr(), "squatting")
	waitPeers(t, a, 0)
	if err := a.Connect(c.Addr()); err != nil {
		t.Fatal(err)
	}
	waitPeers(t, a, 1)
	if a.Peers()[0] != c.Addr() {
		t.Fatalf("peers = %v, want %s", a.Peers(), c.Addr())
	}
}

// TestDefaultMaxPeersBound: a node nobody configured still bounds its
// peer set, so inbound senders cannot grow it without limit.
func TestDefaultMaxPeersBound(t *testing.T) {
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
	conns := make([]Conn, 0, DefaultMaxPeers+1)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	hello := func(i int) {
		t.Helper()
		conn, err := tr.Dial(a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		if err := conn.Send(Message{Type: "hello", From: fmt.Sprintf("inbound-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < DefaultMaxPeers; i++ {
		hello(i)
		waitPeers(t, a, i+1) // and the accept queue stays short
	}
	if err := a.Connect(b.Addr()); !errors.Is(err, ErrPeerLimit) {
		t.Fatalf("outbound beyond %d default peers: err = %v, want ErrPeerLimit", DefaultMaxPeers, err)
	}
	// One more inbound sender is refused: its connection is closed.
	hello(DefaultMaxPeers)
	if _, err := conns[DefaultMaxPeers].Receive(); err == nil {
		t.Fatal("inbound beyond the default bound was answered, want it closed")
	}
	if got := len(a.Peers()); got != DefaultMaxPeers {
		t.Fatalf("%d peers, want %d", got, DefaultMaxPeers)
	}
}

// TestForgedFromChargesTheConnection: a connected peer that stamps an
// honest peer's address on its garbage is charged itself, and the
// handler never sees the forged name.
func TestForgedFromChargesTheConnection(t *testing.T) {
	tr := NewMemTransport()
	victim, err := NewNode(tr, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	honest, err := NewNode(tr, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	var got collector
	Handle(victim, "tx", raw, got.handler)
	if err := honest.Connect(victim.Addr()); err != nil {
		t.Fatal(err)
	}
	honest.SendTo(victim.Addr(), "hello", nil)
	waitPeers(t, victim, 1)

	const forger = "forger"
	conn, err := tr.Dial(victim.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(Message{Type: "hello", From: forger}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := conn.Send(Message{Type: "tx", From: honest.Addr(), Payload: []byte("junk")}); err != nil {
			t.Fatal(err)
		}
	}
	// Someone is charged 10 points per frame; wait for all three.
	deadline := time.Now().Add(5 * time.Second)
	for victim.BanScore(forger)+victim.BanScore(honest.Addr()) < 30 {
		if time.Now().After(deadline) {
			t.Fatal("the forged frames were never charged")
		}
		time.Sleep(time.Millisecond)
	}
	if score := victim.BanScore(honest.Addr()); score != 0 {
		t.Fatalf("honest peer charged %d for frames it never sent", score)
	}
	if score := victim.BanScore(forger); score != 30 {
		t.Fatalf("forger charged %d, want 30", score)
	}
	if got.count() != 0 {
		t.Fatalf("dispatched %d forged frames", got.count())
	}
}

// FuzzSyncMsgDecode drives the four sync decoders with hostile inputs:
// none may panic, every accepted message must respect the documented
// bounds, and decode/encode/decode must agree.
func FuzzSyncMsgDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add((&MsgGetHeaders{Locator: [][32]byte{{1}, {2}}, Max: 100}).Encode())
	f.Add((&MsgHeaders{Headers: [][]byte{[]byte("hdr-a"), []byte("hdr-b")}}).Encode())
	f.Add((&MsgGetSnapshot{Height: 42, Chunk: -1}).Encode())
	f.Add((&MsgSnapshotChunk{Height: 42, Chunk: 0, Total: 3, Manifest: []byte("m"), Payload: []byte("p")}).Encode())

	// Hostile-field seeds: counts that lie, lengths that overflow what is
	// present, negative-as-unsigned values, wrong versions, truncations
	// and trailing garbage.
	hugeLocators := []byte{wireVersion, 0xFF, 0xFF}
	f.Add(hugeLocators)
	hugeHeaders := append([]byte{wireVersion}, 0xFF, 0xFF, 0xFF, 0xFF)
	f.Add(hugeHeaders)
	lyingHeaderLen := (&MsgHeaders{Headers: [][]byte{[]byte("hdr")}}).Encode()
	binary.BigEndian.PutUint32(lyingHeaderLen[5:], 1<<30)
	f.Add(lyingHeaderLen)
	wrongVersion := (&MsgGetSnapshot{Height: 1, Chunk: 0}).Encode()
	wrongVersion[0] = 0xFE
	f.Add(wrongVersion)
	negChunk := (&MsgGetSnapshot{Height: -1, Chunk: -2}).Encode()
	f.Add(negChunk)
	lyingManifest := (&MsgSnapshotChunk{Manifest: []byte("m")}).Encode()
	binary.BigEndian.PutUint32(lyingManifest[17:], maxManifestBytes+1)
	f.Add(lyingManifest)
	lyingPayload := (&MsgSnapshotChunk{Payload: []byte("p")}).Encode()
	f.Add(lyingPayload[:len(lyingPayload)-1])
	trailing := append((&MsgGetHeaders{Max: 1}).Encode(), 0xAA)
	f.Add(trailing)

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeGetHeaders(data); err == nil {
			if len(m.Locator) > maxLocatorIDs {
				t.Fatalf("accepted %d locator ids", len(m.Locator))
			}
			m2, err := DecodeGetHeaders(m.Encode())
			if err != nil {
				t.Fatalf("re-decode getheaders: %v", err)
			}
			if len(m2.Locator) != len(m.Locator) || m2.Max != m.Max {
				t.Fatal("getheaders round-trip mismatch")
			}
		}
		if m, err := DecodeHeaders(data); err == nil {
			if len(m.Headers) > maxHeadersPerMsg {
				t.Fatalf("accepted %d headers", len(m.Headers))
			}
			for _, h := range m.Headers {
				if len(h) > maxHeaderBytes {
					t.Fatalf("accepted %d-byte header", len(h))
				}
			}
			if _, err := DecodeHeaders(m.Encode()); err != nil {
				t.Fatalf("re-decode headers: %v", err)
			}
		}
		if m, err := DecodeGetSnapshot(data); err == nil {
			m2, err := DecodeGetSnapshot(m.Encode())
			if err != nil {
				t.Fatalf("re-decode getsnapshot: %v", err)
			}
			if *m2 != *m {
				t.Fatalf("getsnapshot round-trip mismatch: %+v vs %+v", m, m2)
			}
		}
		if m, err := DecodeSnapshotChunk(data); err == nil {
			if len(m.Manifest) > maxManifestBytes || len(m.Payload) > maxSnapshotChunk {
				t.Fatalf("accepted oversized chunk: manifest %d payload %d", len(m.Manifest), len(m.Payload))
			}
			if _, err := DecodeSnapshotChunk(m.Encode()); err != nil {
				t.Fatalf("re-decode snapshotchunk: %v", err)
			}
		}
	})
}
