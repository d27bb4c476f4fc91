package chaos

import (
	"testing"
	"time"
)

// TestLiveSyncHealsPartition cuts n2 off while n0 mines a block and
// pools a transaction, then heals the partition and only watches: no
// pump round, no mining, no daemon call. The nodes' own sync ticks must
// carry n2 to n0's tip (a catch-up round) and into holding the
// transaction (a pool re-announce), as they would in bcwand, where
// nothing else repairs a lost announcement.
func TestLiveSyncHealsPartition(t *testing.T) {
	seed, src := effectiveSeed(4848)
	t.Logf("seed %d (%s); replay: CHAOS_SEED=%d go test -run 'TestLiveSyncHealsPartition' ./internal/chaos", seed, src, seed)
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("[replay: CHAOS_SEED=%d] "+format, append([]any{seed}, args...)...)
	}
	c, err := NewCluster(Options{Seed: seed, Nodes: 3, Miners: []int{0}, Dir: t.TempDir()})
	if err != nil {
		fatalf("cluster: %v", err)
	}
	defer c.Close()
	poll := func(what string, timeout time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for !cond() {
			if time.Now().After(deadline) {
				fatalf("%s not reached within %s", what, timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	poll("a live full mesh", scenarioTimeout, func() bool {
		for i := 0; i < 3; i++ {
			if len(c.Node(i).Gossip().Peers()) != 2 || c.Node(i).SyncInfo().Phase != "live" {
				return false
			}
		}
		return true
	})

	c.Net.Partition([]string{"n0", "n1"}, []string{"n2"})
	blk, err := c.Node(0).MineNow()
	if err != nil {
		fatalf("mine: %v", err)
	}
	led := c.Node(0).Ledger()
	tx, err := c.RecipientWallet.BuildPayment(led.UTXO(), c.GatewayWallet.PubKeyHash(), 1000, 1)
	if err != nil {
		fatalf("build payment: %v", err)
	}
	if err := led.Submit(tx); err != nil {
		fatalf("submit: %v", err)
	}
	poll("n1 holding the block and the transaction", scenarioTimeout, func() bool {
		_, pooled := c.Node(1).Ledger().PendingTx(tx.ID())
		return pooled && c.Node(1).Chain().Tip().ID() == blk.ID()
	})
	// Let every announcement toward n2 meet the partition before it heals.
	time.Sleep(100 * time.Millisecond)
	if _, pooled := c.Node(2).Ledger().PendingTx(tx.ID()); pooled || c.Node(2).Chain().Height() != 0 {
		fatalf("n2 heard of the block or the transaction across the partition")
	}
	c.Net.Heal()

	poll("n2 at n0's tip with the transaction pooled", 5*time.Second, func() bool {
		_, pooled := c.Node(2).Ledger().PendingTx(tx.ID())
		return pooled && c.Node(2).Chain().Tip().ID() == c.Node(0).Chain().Tip().ID()
	})
}
