package p2p

import (
	"fmt"
	"sync"
	"testing"
	"time"

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

// TestJunkTypesMintNoSeries: a peer that names message types and relay
// kinds this node never handles or sends adds no telemetry series — a
// type may be megabytes long, and a registered series is never freed.
func TestJunkTypesMintNoSeries(t *testing.T) {
	tr := NewMemTransport()
	reg := telemetry.NewRegistry()
	n, err := NewNode(tr, "", nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	fetched := 0
	r := NewRelay(n, RelayConfig{
		Have: func(string, ObjectID) bool { return false },
		Fetch: func(string, ObjectID) ([]byte, bool) {
			fetched++
			return nil, false
		},
	})
	defer r.Close()
	r.Handle("tx", func(string, []byte) (ObjectID, bool) { return ObjectID{}, false })
	pings := make(chan struct{}, 1)
	n.Handle("ping", func(string, Message) { pings <- struct{}{} })

	conn, err := tr.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const junker = "junker"
	// A frame's handler runs before the next frame is read, so a ping
	// answered means every frame sent before it was processed.
	ping := func() {
		t.Helper()
		if err := conn.Send(Message{Type: "ping", From: junker}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-pings:
		case <-time.After(5 * time.Second):
			t.Fatal("ping never handled")
		}
	}
	ping()
	before := len(reg.Snapshot())
	for i := 0; i < 1000; i++ {
		if err := conn.Send(Message{Type: fmt.Sprintf("junk-%d", i), From: junker}); err != nil {
			t.Fatal(err)
		}
		inv := EncodeInv(fmt.Sprintf("kind-%d", i), ObjectID{byte(i), byte(i >> 8)})
		if err := conn.Send(Message{Type: "getdata", From: junker, Payload: inv}); err != nil {
			t.Fatal(err)
		}
	}
	ping()
	if after := len(reg.Snapshot()); after != before {
		t.Fatalf("junk traffic registered %d series", after-before)
	}
	if fetched != 0 {
		t.Fatalf("getdata for unhandled kinds reached Fetch %d times", fetched)
	}
	if score := n.BanScore(junker); score != 0 {
		t.Fatalf("unknown types charged %d misbehavior points", score)
	}
	if got := counterValue(reg, "messages_in_total", telemetry.L("type", "getdata")); got != 1000 {
		t.Fatalf("getdata messages_in = %d, want 1000", got)
	}
}

// TestWarmCounterLookupDoesNotAllocate is the tripwire for the
// per-message counter lookups building a series key again.
func TestWarmCounterLookupDoesNotAllocate(t *testing.T) {
	m := newP2PMetrics(telemetry.NewRegistry())
	m.local("chanupdate").get(msgOut)
	allocs := testing.AllocsPerRun(100, func() {
		m.remote("tx").get(msgIn).Inc()
		m.local("chanupdate").get(msgOut).Inc()
		m.local("block").get(announceOut).Inc()
		m.remote("block").get(requestIn).Inc()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per warm lookup round, want 0", allocs)
	}
}

// TestCounterTableConcurrentUse races first use of one name and its
// counters from several goroutines: every goroutine must land on the
// one registered series.
func TestCounterTableConcurrentUse(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := newP2PMetrics(reg)
	const workers, incs = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				m.local("chanopen").get(msgOut).Inc()
				m.remote("chanopen").get(msgIn).Inc()
			}
		}()
	}
	wg.Wait()
	for _, name := range []string{"messages_out_total", "messages_in_total"} {
		if got := counterValue(reg, name, telemetry.L("type", "chanopen")); got != workers*incs {
			t.Errorf("%s = %d, want %d", name, got, workers*incs)
		}
	}
}
