package p2p

import (
	"bytes"
	"crypto/sha256"
	"slices"
	"sync"
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/telemetry"
)

// relayTestNode bundles a node, its relay, its registry, a collector
// for received object bodies and the store the relay's Have and Fetch
// read: every body its handler accepted, plus what hold put there.
type relayTestNode struct {
	node  *Node
	relay *Relay
	reg   *telemetry.Registry
	got   collector

	mu      sync.Mutex
	held    map[ObjectID][]byte
	fetched []ObjectID // ids Fetch was asked for, in order
}

func newRelayTestNode(t *testing.T, tr Transport, timeout time.Duration) *relayTestNode {
	t.Helper()
	reg := telemetry.NewRegistry()
	n, err := NewNode(tr, "", nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	rt := &relayTestNode{node: n, reg: reg, held: make(map[ObjectID][]byte)}
	r := NewRelay(n, RelayConfig{
		Have: func(_ string, id ObjectID) bool {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			_, ok := rt.held[id]
			return ok
		},
		Fetch: func(_ string, id ObjectID) ([]byte, bool) {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			rt.fetched = append(rt.fetched, id)
			body, ok := rt.held[id]
			return body, ok
		},
		RequestTimeout: timeout,
	})
	rt.relay = r
	HandleObject(r, "tx", raw, func(from string, payload []byte) (ObjectID, bool) {
		id := rt.hold(payload)
		rt.got.handler(from, payload)
		return id, true
	})
	t.Cleanup(func() {
		r.Close()
		n.Close()
	})
	return rt
}

// hold stores a body as the node's own and returns its id.
func (rt *relayTestNode) hold(payload []byte) ObjectID {
	id := sha256.Sum256(payload)
	rt.mu.Lock()
	rt.held[id] = payload
	rt.mu.Unlock()
	return id
}

// counterValue reads a registered series; zero when it does not exist.
func counterValue(reg *telemetry.Registry, name string, labels ...telemetry.Label) uint64 {
	return reg.Namespace("p2p").Counter(name, "", labels...).Value()
}

// TestRelayMeshFewerBytesThanFlood runs the same payload through the
// same sparse mesh twice — naive flood vs inventory relay — and
// requires the relay to converge with strictly fewer wire bytes.
func TestRelayMeshFewerBytesThanFlood(t *testing.T) {
	const nNodes = 8
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 7)
	}

	// connectMesh wires a ring with +2 chords: degree 4, redundant paths.
	connectMesh := func(t *testing.T, addrs []string, connect func(i int, addr string)) {
		for i := range addrs {
			connect(i, addrs[(i+1)%nNodes])
			connect(i, addrs[(i+2)%nNodes])
		}
	}

	// Flood baseline: every node forwards the body to each peer but the
	// sender the first time it sees it.
	floodBytes := func() uint64 {
		tr := NewMemTransport()
		regs := make([]*telemetry.Registry, nNodes)
		nodes := make([]*Node, nNodes)
		cols := make([]collector, nNodes)
		seen := make([]sync.Once, nNodes)
		addrs := make([]string, nNodes)
		forward := func(i int, from string, payload []byte) {
			for _, p := range nodes[i].Peers() {
				if p != from {
					nodes[i].SendTo(p, "tx", payload)
				}
			}
		}
		for i := range nodes {
			regs[i] = telemetry.NewRegistry()
			n, err := NewNode(tr, "", nil, regs[i])
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			nodes[i] = n
			addrs[i] = n.Addr()
			Handle(nodes[i], "tx", raw, func(from string, payload []byte) {
				seen[i].Do(func() {
					cols[i].handler(from, payload)
					forward(i, from, payload)
				})
			})
		}
		connectMesh(t, addrs, func(i int, addr string) {
			if err := nodes[i].Connect(addr); err != nil {
				t.Fatal(err)
			}
		})
		seen[0].Do(func() { forward(0, "", payload) })
		for i := 1; i < nNodes; i++ {
			cols[i].waitFor(t, 1)
		}
		// Let in-flight duplicate floods finish before counting.
		time.Sleep(100 * time.Millisecond)
		var total uint64
		for _, reg := range regs {
			total += counterValue(reg, "bytes_out_total")
		}
		return total
	}()

	// Inventory relay over the identical topology and payload.
	relayBytes := func() uint64 {
		tr := NewMemTransport()
		rts := make([]*relayTestNode, nNodes)
		addrs := make([]string, nNodes)
		for i := range rts {
			rts[i] = newRelayTestNode(t, tr, 0)
			addrs[i] = rts[i].node.Addr()
		}
		connectMesh(t, addrs, func(i int, addr string) {
			if err := rts[i].node.Connect(addr); err != nil {
				t.Fatal(err)
			}
		})
		rts[0].relay.Announce("tx", rts[0].hold(payload))
		for i := 1; i < nNodes; i++ {
			rts[i].got.waitFor(t, 1)
		}
		time.Sleep(100 * time.Millisecond)
		var total uint64
		for _, rt := range rts {
			total += counterValue(rt.reg, "bytes_out_total")
		}
		return total
	}()

	if relayBytes >= floodBytes {
		t.Fatalf("relay moved %d bytes, flood %d — relay must be strictly cheaper", relayBytes, floodBytes)
	}
	t.Logf("flood %d bytes, relay %d bytes (%.1fx reduction)",
		floodBytes, relayBytes, float64(floodBytes)/float64(relayBytes))
}

// TestRelayRerequestsFromSecondAnnouncer starves the first getdata: a
// silent peer announces first, an honest peer announces second, and the
// request timeout must move the fetch to the honest peer.
func TestRelayRerequestsFromSecondAnnouncer(t *testing.T) {
	tr := NewMemTransport()
	target := newRelayTestNode(t, tr, 50*time.Millisecond)

	payload := []byte("relayed-object-body")
	id := sha256.Sum256(payload)
	inv := EncodeInv("tx", id)

	// silent announces the object but never answers getdata.
	silent, err := NewNode(tr, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	Handle(silent, "getdata", raw, func(string, []byte) {})

	// honest serves the body on request.
	honest, err := NewNode(tr, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	Handle(honest, "getdata", decodeInv, func(from string, inv invMsg) {
		if inv.kind == "tx" && inv.ids[0] == id {
			honest.SendTo(from, "tx", payload)
		}
	})

	if err := silent.Connect(target.node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := honest.Connect(target.node.Addr()); err != nil {
		t.Fatal(err)
	}

	// The silent peer's inv must arrive (and be asked) first.
	silent.SendTo(target.node.Addr(), "inv", inv)
	deadline := time.Now().Add(5 * time.Second)
	for counterValue(target.reg, "relay_requests_total",
		telemetry.L("kind", "tx"), telemetry.L("dir", "out")) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("target never requested from the silent announcer")
		}
		time.Sleep(time.Millisecond)
	}
	honest.SendTo(target.node.Addr(), "inv", inv)

	target.got.waitFor(t, 1)
	if string(target.got.msgs[0].Payload) != string(payload) {
		t.Fatalf("payload = %q", target.got.msgs[0].Payload)
	}
	if v := counterValue(target.reg, "relay_rerequests_total"); v == 0 {
		t.Fatal("fetch succeeded without a re-request — timeout path untested")
	}
	if v := counterValue(target.reg, "relay_request_timeouts_total"); v == 0 {
		t.Fatal("timeout counter did not advance")
	}
}

// TestRelayNeverAnnouncesBack checks the per-peer known-inventory set:
// the node that taught us an object must not be told about it again.
func TestRelayNeverAnnouncesBack(t *testing.T) {
	tr := NewMemTransport()
	a := newRelayTestNode(t, tr, 0)
	b := newRelayTestNode(t, tr, 0)
	if err := a.node.Connect(b.node.Addr()); err != nil {
		t.Fatal(err)
	}

	id := a.hold([]byte("no-echo"))
	a.relay.Announce("tx", id)
	b.got.waitFor(t, 1)

	// b's handler relayed the object onward; its only peer is a, which is
	// known to hold it, so b must announce nothing.
	time.Sleep(100 * time.Millisecond)
	if v := counterValue(b.reg, "relay_announces_total",
		telemetry.L("kind", "tx"), telemetry.L("dir", "out")); v != 0 {
		t.Fatalf("b announced %d times back toward its teacher", v)
	}
	if v := counterValue(a.reg, "relay_announces_total",
		telemetry.L("kind", "tx"), telemetry.L("dir", "in")); v != 0 {
		t.Fatalf("a received %d echo announcements", v)
	}
	if !b.relay.Known(a.node.Addr(), "tx", id) {
		t.Fatal("b did not record a as knowing the object")
	}
}

// TestRelayDedupAcrossAnnouncers checks that two announcers cause one
// fetch: the second inv registers as a backup announcer, not a second
// getdata.
func TestRelayDedupAcrossAnnouncers(t *testing.T) {
	tr := NewMemTransport()
	target := newRelayTestNode(t, tr, time.Minute)

	payload := []byte("fetched-once")
	id := sha256.Sum256(payload)
	inv := EncodeInv("tx", id)

	mkServer := func() *Node {
		n, err := NewNode(tr, "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		Handle(n, "getdata", raw, func(from string, _ []byte) {
			n.SendTo(from, "tx", payload)
		})
		if err := n.Connect(target.node.Addr()); err != nil {
			t.Fatal(err)
		}
		return n
	}
	s1 := mkServer()
	s2 := mkServer()
	s1.SendTo(target.node.Addr(), "inv", inv)
	s2.SendTo(target.node.Addr(), "inv", inv)

	target.got.waitFor(t, 1)
	time.Sleep(100 * time.Millisecond)
	if got := target.got.count(); got != 1 {
		t.Fatalf("object delivered %d times, want 1", got)
	}
	out := counterValue(target.reg, "relay_requests_total",
		telemetry.L("kind", "tx"), telemetry.L("dir", "out"))
	if out != 1 {
		t.Fatalf("sent %d getdata, want exactly 1", out)
	}
}

// TestAnnounceBatchRepairsKnownInventory re-announces two objects to a
// peer whose known-inventory already lists both, as after a send the
// fault model dropped. The batch inv must still arrive; the peer fetches
// only the object it lacks, and the announcer answers that getdata
// through Fetch.
func TestAnnounceBatchRepairsKnownInventory(t *testing.T) {
	tr := NewMemTransport()
	held, lacked := []byte("held-by-peer"), []byte("lacked-by-peer")
	a := newRelayTestNode(t, tr, 0)
	b := newRelayTestNode(t, tr, 0)
	heldID, lackedID := a.hold(held), a.hold(lacked)
	b.hold(held)
	if err := a.node.Connect(b.node.Addr()); err != nil {
		t.Fatal(err)
	}
	a.relay.MarkKnown(b.node.Addr(), "tx", heldID)
	a.relay.MarkKnown(b.node.Addr(), "tx", lackedID)

	a.relay.AnnounceBatch("tx", []ObjectID{heldID, lackedID})
	b.got.waitFor(t, 1)
	time.Sleep(50 * time.Millisecond)
	if got := b.got.count(); got != 1 || !bytes.Equal(b.got.msgs[0].Payload, lacked) {
		t.Fatalf("b received %d bodies, want the lacked one alone", got)
	}
	if v := counterValue(b.reg, "relay_announces_total", telemetry.L("kind", "tx"), telemetry.L("dir", "in")); v != 2 {
		t.Fatalf("b heard %d announcements, want both ids", v)
	}
	if v := counterValue(b.reg, "relay_requests_total", telemetry.L("kind", "tx"), telemetry.L("dir", "out")); v != 1 {
		t.Fatalf("b requested %d objects, want 1", v)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !slices.Equal(a.fetched, []ObjectID{lackedID}) {
		t.Fatalf("a fetched %d bodies, want the lacked one alone", len(a.fetched))
	}
}

func TestInvEncodingRoundTrip(t *testing.T) {
	id1 := sha256.Sum256([]byte("a"))
	id2 := sha256.Sum256([]byte("b"))
	inv, err := decodeInv(EncodeInv("block", id1, id2))
	if err != nil || inv.kind != "block" || len(inv.ids) != 2 || inv.ids[0] != id1 || inv.ids[1] != id2 {
		t.Fatalf("round trip failed: %q %v %v", inv.kind, inv.ids, err)
	}
	for _, bad := range [][]byte{nil, {}, {5, 'a'}, EncodeInv("tx")[:3], append(EncodeInv("tx", id1), 1)} {
		if _, err := decodeInv(bad); err == nil {
			t.Fatalf("decodeInv accepted malformed frame %v", bad)
		}
	}
}

// FuzzRelayMsgDecode drives the decoders the relay and compact-block
// paths feed with peer bytes — inv/getdata framing, cmpctblock,
// getblocktxn, blocktxn and snapcommit bodies: none may panic, every
// accepted message must respect its documented bounds, and
// decode→encode→decode must agree.
func FuzzRelayMsgDecode(f *testing.F) {
	// compact.go caps every count and index it decodes at one million.
	const maxCompactEntries = 1_000_000
	genesis := chain.GenesisBlock(map[[20]byte]uint64{{1}: 50, {2}: 70})
	id := ObjectID(genesis.ID())
	commit := &chain.SnapshotCommitment{Version: 1, Height: 8, BlockID: genesis.ID(), UTXOSize: 99,
		MinerPubKey: []byte("miner-pub"), Signature: []byte("sig")}
	for _, valid := range [][]byte{
		EncodeInv("tx", id),
		EncodeInv("block", id, ObjectID{2}),
		EncodeInv(MsgTypeSnapCommit, id),
		chain.NewCompactBlock(genesis).Serialize(),
		chain.EncodeGetBlockTxn(genesis.ID(), []uint32{1, 2, 5}),
		chain.EncodeBlockTxn(genesis.ID(), []chain.PrefilledTx{{Index: 0, Tx: genesis.Txs[0]}}),
		commit.Serialize(),
	} {
		// Hostile-field seeds beside each valid encoding: a truncation,
		// trailing garbage, and a mid-message byte forced to 0xFF (a
		// lying interior count or length prefix).
		f.Add(valid)
		f.Add(valid[:len(valid)-1])
		f.Add(append(append([]byte(nil), valid...), 0xDE, 0xAD))
		lying := append([]byte(nil), valid...)
		lying[len(lying)/2] = 0xFF
		f.Add(lying)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		if inv, err := decodeInv(data); err == nil {
			if len(inv.ids) == 0 || len(data) != 1+len(inv.kind)+32*len(inv.ids) {
				t.Fatalf("inv accepted %d ids of kind %q from %d bytes", len(inv.ids), inv.kind, len(data))
			}
			if !bytes.Equal(EncodeInv(inv.kind, inv.ids...), data) {
				t.Fatal("inv round-trip mismatch")
			}
		}
		if cb, err := chain.DeserializeCompactBlock(data); err == nil {
			if len(cb.ShortIDs) > maxCompactEntries || len(cb.Prefilled) > maxCompactEntries {
				t.Fatalf("cmpctblock accepted %d short ids, %d prefilled", len(cb.ShortIDs), len(cb.Prefilled))
			}
			for _, p := range cb.Prefilled {
				if p.Index > maxCompactEntries || p.Tx == nil {
					t.Fatalf("cmpctblock accepted prefilled index %d", p.Index)
				}
			}
			enc := cb.Serialize()
			cb2, err := chain.DeserializeCompactBlock(enc)
			if err != nil {
				t.Fatalf("re-decode cmpctblock: %v", err)
			}
			if cb2.BlockID() != cb.BlockID() || cb2.TxCount() != cb.TxCount() || !bytes.Equal(cb2.Serialize(), enc) {
				t.Fatal("cmpctblock round-trip mismatch")
			}
		}
		if bid, idx, err := chain.DecodeGetBlockTxn(data); err == nil {
			if len(idx) > maxCompactEntries {
				t.Fatalf("getblocktxn accepted %d indexes", len(idx))
			}
			for _, i := range idx {
				if i > maxCompactEntries {
					t.Fatalf("getblocktxn accepted index %d", i)
				}
			}
			bid2, idx2, err := chain.DecodeGetBlockTxn(chain.EncodeGetBlockTxn(bid, idx))
			if err != nil || bid2 != bid || !slices.Equal(idx2, idx) {
				t.Fatalf("getblocktxn round-trip mismatch: %v", err)
			}
		}
		if bid, fills, err := chain.DecodeBlockTxn(data); err == nil {
			if len(fills) > maxCompactEntries {
				t.Fatalf("blocktxn accepted %d transactions", len(fills))
			}
			enc := chain.EncodeBlockTxn(bid, fills)
			bid2, fills2, err := chain.DecodeBlockTxn(enc)
			if err != nil || bid2 != bid || len(fills2) != len(fills) || !bytes.Equal(chain.EncodeBlockTxn(bid2, fills2), enc) {
				t.Fatalf("blocktxn round-trip mismatch: %v", err)
			}
		}
		if sc, err := chain.DeserializeSnapshotCommitment(data); err == nil {
			if sc.Version != 1 || len(sc.MinerPubKey) > 1024 || len(sc.Signature) > 1024 {
				t.Fatalf("snapcommit accepted version %d, %d-byte key, %d-byte signature",
					sc.Version, len(sc.MinerPubKey), len(sc.Signature))
			}
			sc2, err := chain.DeserializeSnapshotCommitment(sc.Serialize())
			if err != nil || sc2.ID() != sc.ID() {
				t.Fatalf("snapcommit round-trip mismatch: %v", err)
			}
		}
	})
}
