package chaos

import (
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/netsim"
	"bcwan/internal/p2p"
	"bcwan/internal/simtime"
	"bcwan/internal/telemetry"
)

// pipe wires a one-directional a → b link through the fault layer and
// returns the sender conn and a channel of delivered messages.
func pipe(t *testing.T, n *Net) (p2p.Conn, <-chan p2p.Message) {
	t.Helper()
	lis, err := n.TransportFor("b").Listen("b")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	accepted := make(chan p2p.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	sender, err := n.TransportFor("a").Dial("b")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn := <-accepted
	out := make(chan p2p.Message, 4096)
	go func() {
		defer close(out)
		for {
			m, err := conn.Receive()
			if err != nil {
				return
			}
			out <- m
		}
	}()
	return sender, out
}

func drain(out <-chan p2p.Message) int {
	n := 0
	for range out {
		n++
	}
	return n
}

// deliveredWithFaults runs count sends through a fresh Net with the
// given seed and faults and returns how many messages arrive.
func deliveredWithFaults(t *testing.T, seed int64, f Faults, count int) int {
	t.Helper()
	n := NewNet(seed)
	n.SetDefaultFaults(f)
	sender, out := pipe(t, n)
	for i := 0; i < count; i++ {
		if err := sender.Send(p2p.Message{Type: "t", From: "a", Payload: []byte{byte(i)}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	n.Wait()
	sender.Close()
	return drain(out)
}

func TestDropIsSeedDeterministic(t *testing.T) {
	f := Faults{Drop: 0.3}
	first := deliveredWithFaults(t, 42, f, 400)
	if first == 400 || first == 0 {
		t.Fatalf("drop rate 0.3 delivered %d/400, expected a strict subset", first)
	}
	if again := deliveredWithFaults(t, 42, f, 400); again != first {
		t.Fatalf("same seed delivered %d then %d messages", first, again)
	}
	if other := deliveredWithFaults(t, 43, f, 400); other == first {
		t.Logf("different seed coincidentally delivered the same count %d (allowed, just unlikely)", other)
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	got := deliveredWithFaults(t, 7, Faults{Duplicate: 1.0}, 50)
	if got != 100 {
		t.Fatalf("duplicate rate 1.0 delivered %d messages for 50 sends, want 100", got)
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	n := NewNet(1)
	reg := telemetry.NewRegistry()
	n.Instrument(reg)
	sender, out := pipe(t, n)

	n.Partition([]string{"a"}, []string{"b"})
	if err := sender.Send(p2p.Message{Type: "t", From: "a", Payload: []byte("lost")}); err != nil {
		t.Fatalf("send during partition: %v", err)
	}
	blocked := reg.Counter("bcwan_chaos_faults_injected_total",
		"Faults injected by kind.", telemetry.L("kind", "partition")).Value()
	if blocked != 1 {
		t.Fatalf("partition counter = %d, want 1", blocked)
	}

	n.Heal()
	if err := sender.Send(p2p.Message{Type: "t", From: "a", Payload: []byte("through")}); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	sender.Close()
	if got := drain(out); got != 1 {
		t.Fatalf("delivered %d messages, want only the post-heal one", got)
	}
}

func TestDelayHoldsUntilClockAdvances(t *testing.T) {
	n := NewNet(5)
	clock := simtime.NewSim(time.Unix(0, 0))
	n.SetClock(clock)
	// Sigma 0 makes the lognormal degenerate: every delay is exactly
	// the median.
	n.SetDefaultFaults(Faults{Delay: netsim.LinkDist{MedianMS: 50, Sigma: 0}})
	sender, out := pipe(t, n)

	if err := sender.Send(p2p.Message{Type: "t", From: "a", Payload: []byte("late")}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case <-out:
		t.Fatal("message delivered before the simulated delay elapsed")
	case <-time.After(20 * time.Millisecond):
	}
	// Wait for the delivery goroutine to park on the sim clock, then
	// release it.
	deadline := time.Now().Add(2 * time.Second)
	for clock.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delayed delivery never parked on the sim clock")
		}
		time.Sleep(time.Millisecond)
	}
	clock.Advance(time.Second)
	select {
	case m := <-out:
		if string(m.Payload) != "late" {
			t.Fatalf("unexpected payload %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message not delivered after advancing the clock")
	}
	sender.Close()
}

func TestPerLinkOverrides(t *testing.T) {
	n := NewNet(9)
	n.SetDefaultFaults(Faults{Drop: 1.0})
	n.SetLinkFaults("a", "b", Faults{}) // this link is clean
	sender, out := pipe(t, n)
	for i := 0; i < 10; i++ {
		if err := sender.Send(p2p.Message{Type: "t", From: "a", Payload: []byte{byte(i)}}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	sender.Close()
	if got := drain(out); got != 10 {
		t.Fatalf("clean override link delivered %d/10", got)
	}
}

func TestLinkSeedIsStable(t *testing.T) {
	if linkSeed(1, "a", "b") != linkSeed(1, "a", "b") {
		t.Fatal("linkSeed not deterministic")
	}
	distinct := map[int64]bool{}
	for _, pair := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "c"}} {
		distinct[linkSeed(1, pair[0], pair[1])] = true
	}
	if len(distinct) != 3 {
		t.Fatalf("directed links share RNG seeds: %v", distinct)
	}
}

// TestClusterRestartRecoversFromStore exercises the harness crash /
// restart path in isolation: blocks mined before the crash come back
// from the durable store, not from gossip.
func TestClusterRestartRecoversFromStore(t *testing.T) {
	c, err := NewCluster(Options{Seed: 11, Nodes: 2, Miners: []int{0}, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer c.Close()
	// Ten blocks at StoreCompactEvery 4: two checkpoints, then a tail of
	// two blocks that replays through full validation.
	for i := 0; i < 10; i++ {
		if _, err := c.Node(0).MineNow(); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
	before := chain.SnapshotHash(c.Node(0).Chain().UTXO().SerializeUTXO())
	if err := c.Crash(0); err != nil {
		t.Fatalf("crash: %v", err)
	}
	// Isolate the reborn node so the recovered blocks can only have
	// come from disk.
	if err := c.Crash(1); err != nil {
		t.Fatalf("crash n1: %v", err)
	}
	loaded, err := c.Restart(0)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if loaded != 10 {
		t.Fatalf("restart loaded %d blocks from store, want 10", loaded)
	}
	if h := c.Node(0).Chain().Height(); h != 10 {
		t.Fatalf("restarted height %d, want 10", h)
	}
	if after := chain.SnapshotHash(c.Node(0).Chain().UTXO().SerializeUTXO()); after != before {
		t.Fatal("restart restored a different UTXO set")
	}
}
