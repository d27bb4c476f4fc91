package p2p

import (
	"testing"

	"bcwan/internal/telemetry"
)

func snapValue(t *testing.T, reg *telemetry.Registry, name string, labels map[string]string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if m.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return m.Value
		}
	}
	t.Fatalf("metric %s %v not in snapshot", name, labels)
	return 0
}

// TestKnownInventoryEviction fills one peer's known-inventory ring past
// capacity and checks memory stays bounded, old entries are forgotten
// and fresh ones are remembered.
func TestKnownInventoryEviction(t *testing.T) {
	key := func(i int) invKey { return invKey{kind: "tx", id: ObjectID{byte(i), byte(i >> 8), byte(i >> 16)}} }
	s := newInvSet(maxKnownPerPeer)
	const extra = 10
	for i := 0; i < maxKnownPerPeer+extra; i++ {
		if !s.add(key(i)) {
			t.Fatalf("entry %d reported as present", i)
		}
	}
	if len(s.set) != maxKnownPerPeer || len(s.ring) != maxKnownPerPeer {
		t.Fatalf("set=%d ring=%d, want both %d", len(s.set), len(s.ring), maxKnownPerPeer)
	}
	if cap(s.ring) > 2*maxKnownPerPeer {
		t.Fatalf("ring capacity %d grew past bound", cap(s.ring))
	}
	// The first `extra` entries were evicted: re-adding one is "new".
	if s.has(key(0)) || !s.add(key(0)) {
		t.Fatal("evicted entry still known")
	}
	// A recent entry is still remembered.
	if s.add(key(maxKnownPerPeer + extra - 1)) {
		t.Fatal("recent entry forgotten")
	}
}

// TestP2PTelemetryCounters runs a two-node message exchange and checks
// message/byte/peer metrics on both sides.
func TestP2PTelemetryCounters(t *testing.T) {
	tr := NewMemTransport()
	regA := telemetry.NewRegistry()
	regB := telemetry.NewRegistry()
	a, err := NewNode(tr, "", nil, regA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(tr, "", nil, regB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var got collector
	b.Handle("tx", got.handler)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	payload := []byte("payload-1")
	a.SendTo(b.Addr(), "tx", payload)
	got.waitFor(t, 1)

	if got := snapValue(t, regA, "bcwan_p2p_messages_out_total", map[string]string{"type": "tx"}); got != 1 {
		t.Fatalf("a messages_out = %v, want 1", got)
	}
	// Byte counters cover the whole message — type, sender and payload —
	// so relay-savings comparisons are honest about announcement overhead.
	wire := (&Message{Type: "tx", From: a.Addr(), Payload: payload}).WireSize()
	if got := snapValue(t, regA, "bcwan_p2p_bytes_out_total", nil); got != float64(wire) {
		t.Fatalf("a bytes_out = %v, want %d", got, wire)
	}
	if got := snapValue(t, regA, "bcwan_p2p_peer_count", nil); got != 1 {
		t.Fatalf("a peer_count = %v, want 1", got)
	}
	if got := snapValue(t, regB, "bcwan_p2p_messages_in_total", map[string]string{"type": "tx"}); got != 1 {
		t.Fatalf("b messages_in = %v, want 1", got)
	}
	if got := snapValue(t, regB, "bcwan_p2p_bytes_in_total", nil); got != float64(wire) {
		t.Fatalf("b bytes_in = %v, want %d", got, wire)
	}
	// Pre-registered series exist at zero even for unseen types.
	if got := snapValue(t, regB, "bcwan_p2p_messages_in_total", map[string]string{"type": "block"}); got != 0 {
		t.Fatalf("b block messages_in = %v, want 0", got)
	}

	// Dial failures are counted.
	if err := a.Connect("mem-no-such-node"); err == nil {
		t.Fatal("dial to bogus address succeeded")
	}
	if got := snapValue(t, regA, "bcwan_p2p_dial_failures_total", nil); got != 1 {
		t.Fatalf("dial_failures = %v, want 1", got)
	}
}
