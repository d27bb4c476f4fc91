package chaos

import (
	"testing"

	"bcwan/internal/daemon"
	"bcwan/internal/p2p"
)

// Bootstrap scenarios: a late joiner enters a mesh that already has
// history and must come up through the headers-first sync machine
// (DESIGN.md §13) — via a verified snapshot when a peer serves an
// honest one, via the full-sync fallback when every snapshot source
// lies. Both paths must end converged with every safety invariant
// intact; the liar path must additionally never install the bad state.

// bootstrapTweak gives every node the scenario's snapshot cadence:
// boundaries every 8 blocks, bootstrap preferred once 4 behind.
func bootstrapTweak(cfg *daemon.NodeConfig) {
	cfg.SnapshotInterval = 8
	cfg.SnapshotMinGap = 4
	cfg.SnapshotChunkSize = 256
}

// lyingTransport wraps a node's link to the chaos network so it flips a
// byte of the first snapshot chunk on every link it serves — a lying
// peer whose download passes every cheap check and fails only the
// commitment hash over the assembled bytes.
type lyingTransport struct{ p2p.Transport }

func (t lyingTransport) Listen(addr string) (p2p.Listener, error) {
	l, err := t.Transport.Listen(addr)
	return lyingListener{l}, err
}

func (t lyingTransport) Dial(addr string) (p2p.Conn, error) {
	c, err := t.Transport.Dial(addr)
	return lyingConn{c}, err
}

type lyingListener struct{ p2p.Listener }

func (l lyingListener) Accept() (p2p.Conn, error) {
	c, err := l.Listener.Accept()
	return lyingConn{c}, err
}

type lyingConn struct{ p2p.Conn }

func (c lyingConn) Send(m p2p.Message) error {
	if m.Type == p2p.MsgTypeSnapshotChunk {
		if msg, err := p2p.DecodeSnapshotChunk(m.Payload); err == nil && msg.Chunk == 0 && len(msg.Payload) > 0 {
			msg.Payload = append([]byte(nil), msg.Payload...)
			msg.Payload[0] ^= 0xff
			m.Payload = msg.Encode()
		}
	}
	return c.Conn.Send(m)
}

func TestBootstrapSnapshotJoin(t *testing.T) {
	seed, src := effectiveSeed(1111)
	t.Logf("seed %d (%s)", seed, src)
	c, err := NewCluster(Options{
		Seed:       seed,
		Nodes:      4,
		Miners:     []int{0},
		Dir:        t.TempDir(),
		DeferStart: []int{3},
		NodeTweak:  func(_ int, cfg *daemon.NodeConfig) { bootstrapTweak(cfg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Build history well past several snapshot boundaries.
	if err := c.WaitFor(scenarioTimeout, []int{0}, func() bool {
		return allHeightsAtLeast(c, 26)
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Start(3); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitFor(scenarioTimeout, []int{0}, func() bool {
		return c.Peer(3).Node.SyncInfo().Phase == "live" && c.Converged()
	}); err != nil {
		t.Fatalf("joiner never converged: %v", err)
	}

	joiner := c.Node(3)
	si := joiner.SyncInfo()
	if si.FullSyncFallback {
		t.Error("joiner degraded to a full sync with an honest snapshot peer available")
	}
	base := joiner.Chain().PruneBase()
	if base < 8 || base%8 != 0 {
		t.Errorf("joiner prune base = %d, want a snapshot boundary ≥ 8", base)
	}
	if got := nodeCounter(c, 3, "bcwan_daemon_snapshot_installed_height"); int64(got) != base {
		t.Errorf("snapshot_installed_height = %v, want %d", got, base)
	}
	if b, ok := joiner.Chain().BlockAt(1); !ok || len(b.Txs) != 0 {
		t.Error("pre-horizon block should be a header-only stub on the joiner")
	}

	// The pruned joiner keeps up with live blocks after bootstrap.
	target := c.Node(0).Chain().Height() + 3
	if err := c.WaitFor(scenarioTimeout, []int{0}, func() bool {
		return allHeightsAtLeast(c, target)
	}); err != nil {
		t.Fatalf("joiner fell behind after bootstrap: %v", err)
	}
	if err := CheckInvariants(c, nil); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestBootstrapAllSnapshotPeersLie(t *testing.T) {
	seed, src := effectiveSeed(2222)
	t.Logf("seed %d (%s)", seed, src)
	c, err := NewCluster(Options{
		Seed:       seed,
		Nodes:      3,
		Miners:     []int{0},
		Dir:        t.TempDir(),
		DeferStart: []int{2},
		NodeTweak: func(_ int, cfg *daemon.NodeConfig) {
			bootstrapTweak(cfg)
			// Every node that could serve a snapshot serves corrupted
			// chunks; the joiner must reject them all and fall back.
			cfg.Transport = lyingTransport{cfg.Transport}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.WaitFor(scenarioTimeout, []int{0}, func() bool {
		return allHeightsAtLeast(c, 26)
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Start(2); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitFor(scenarioTimeout, []int{0}, func() bool {
		return c.Peer(2).Node.SyncInfo().Phase == "live" && c.Converged()
	}); err != nil {
		t.Fatalf("joiner never converged: %v", err)
	}

	joiner := c.Node(2)
	if !joiner.SyncInfo().FullSyncFallback {
		t.Error("joiner should have fallen back to a full sync")
	}
	if nodeCounter(c, 2, "bcwan_daemon_snapshot_rejected_total") == 0 {
		t.Error("tampered snapshot was never rejected")
	}
	if got := joiner.Chain().PruneBase(); got != 0 {
		t.Errorf("joiner prune base = %d after rejecting every snapshot, want 0", got)
	}
	if b, ok := joiner.Chain().BlockAt(1); !ok || len(b.Txs) == 0 {
		t.Error("full-sync fallback should restore complete bodies")
	}
	if err := CheckInvariants(c, nil); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestBootstrapRestartKeepsHorizon restarts a snapshot-bootstrapped
// joiner: the pruned store must bring it back at its horizon without a
// re-bootstrap, and it must rejoin the mesh and keep converging.
func TestBootstrapRestartKeepsHorizon(t *testing.T) {
	seed, src := effectiveSeed(3333)
	t.Logf("seed %d (%s)", seed, src)
	c, err := NewCluster(Options{
		Seed:       seed,
		Nodes:      3,
		Miners:     []int{0},
		Dir:        t.TempDir(),
		DeferStart: []int{2},
		NodeTweak:  func(_ int, cfg *daemon.NodeConfig) { bootstrapTweak(cfg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.WaitFor(scenarioTimeout, []int{0}, func() bool {
		return allHeightsAtLeast(c, 26)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Start(2); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitFor(scenarioTimeout, []int{0}, func() bool {
		return c.Peer(2).Node.SyncInfo().Phase == "live" && c.Converged()
	}); err != nil {
		t.Fatalf("joiner never converged: %v", err)
	}
	base := c.Node(2).Chain().PruneBase()
	if base == 0 {
		t.Fatal("joiner did not bootstrap from a snapshot")
	}

	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.PumpRound(0) // history the joiner misses while down
	}
	loaded, err := c.Restart(2)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == 0 {
		t.Error("restart recovered nothing from the pruned store")
	}
	if got := c.Node(2).Chain().PruneBase(); got < base {
		t.Errorf("restart prune base = %d, want ≥ %d", got, base)
	}
	if err := c.WaitFor(scenarioTimeout, []int{0}, func() bool {
		return c.Peer(2).Node.SyncInfo().Phase == "live" && c.Converged()
	}); err != nil {
		t.Fatalf("restarted joiner never reconverged: %v", err)
	}
	if err := CheckInvariants(c, nil); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}
