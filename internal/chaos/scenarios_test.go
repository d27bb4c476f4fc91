package chaos

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/fairex"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/netsim"
	"bcwan/internal/recipient"
	"bcwan/internal/script"
	"bcwan/internal/telemetry"
)

// chaosSeed overrides every scenario's seed, replaying a failure:
//
//	CHAOS_SEED=12345 go test -run 'TestFaultScenarios/<name>' ./internal/chaos
var chaosSeed = flag.Int64("chaos.seed", 0, "override scenario RNG seeds (0 = per-scenario defaults; CHAOS_SEED env works too)")

// scenarioTimeout bounds each wait phase; generous because fault rates
// make progress probabilistic per round, never impossible.
const scenarioTimeout = 30 * time.Second

// effectiveSeed resolves the scenario seed from flag, environment or
// the table default.
func effectiveSeed(def int64) (int64, string) {
	if *chaosSeed != 0 {
		return *chaosSeed, "flag -chaos.seed"
	}
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v != 0 {
			return v, "env CHAOS_SEED"
		}
	}
	return def, "scenario default"
}

// scenarioEnv is the per-run state hooks can inspect and mutate.
type scenarioEnv struct {
	c           *Cluster
	gw          *gateway.Gateway
	rcpt        *recipient.Recipient
	sensor      *Sensor
	delivery    *fairex.Delivery
	ex          *Exchange
	paymentID   chain.Hash
	offerHeight int64
	// miners is the set pumped while waiting; hooks reshape it (e.g. a
	// crash removes the only miner until restart).
	miners []int
	// restartLoaded records how many blocks the last Restart recovered
	// from the on-disk store.
	restartLoaded int
}

type scenario struct {
	name          string
	seed          int64
	nodes         int
	miners        []int
	gatewayNode   int
	recipientNode int
	faults        Faults
	// refund runs the gateway-death arm: no claim, the recipient
	// reclaims the payment through the Listing 1 OP_ELSE path.
	refund bool
	// midExchange fires after the payment is visible on every live
	// node, before the gateway claims.
	midExchange func(t *testing.T, env *scenarioEnv)
	// beforeSettle fires after the claim is submitted, before the
	// recipient settles (partitions heal, crashed nodes restart here).
	beforeSettle func(t *testing.T, env *scenarioEnv)
	// check runs scenario-specific assertions after the invariants.
	check func(t *testing.T, env *scenarioEnv)
}

// injectedFaults reads the chaos fault counter for one kind.
func injectedFaults(c *Cluster, kind string) uint64 {
	return c.Reg.Counter("bcwan_chaos_faults_injected_total",
		"Faults injected by kind.", telemetry.L("kind", kind)).Value()
}

// nodeCounter reads a counter from one node's own registry by name.
func nodeCounter(c *Cluster, node int, name string) float64 {
	for _, m := range c.Node(node).Telemetry().Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

func allHeightsAtLeast(c *Cluster, h int64) bool {
	for i := 0; i < c.Opts.Nodes; i++ {
		p := c.Peer(i)
		if p.Alive && p.Node.Chain().Height() < h {
			return false
		}
	}
	return true
}

// paymentEverywhere reports whether every live node sees the payment
// (pooled or confirmed).
func paymentEverywhere(c *Cluster, id chain.Hash) bool {
	for i := 0; i < c.Opts.Nodes; i++ {
		p := c.Peer(i)
		if !p.Alive {
			continue
		}
		led := p.Node.Ledger()
		if _, pooled := led.PendingTx(id); pooled {
			continue
		}
		if _, _, confirmed := led.FindTx(id); !confirmed {
			return false
		}
	}
	return true
}

func TestFaultScenarios(t *testing.T) {
	scenarios := []scenario{
		{
			name: "baseline", seed: 101, nodes: 3, miners: []int{0},
		},
		{
			name: "drop", seed: 202, nodes: 3, miners: []int{0},
			faults: Faults{Drop: 0.15},
			check: func(t *testing.T, env *scenarioEnv) {
				if injectedFaults(env.c, "drop") == 0 {
					t.Error("drop scenario injected no drops")
				}
			},
		},
		{
			name: "delay", seed: 303, nodes: 3, miners: []int{0},
			faults: Faults{Delay: netsim.LinkDist{MedianMS: 8, Sigma: 0.5}},
			check: func(t *testing.T, env *scenarioEnv) {
				if injectedFaults(env.c, "delay") == 0 {
					t.Error("delay scenario injected no delays")
				}
			},
		},
		{
			name: "reorder", seed: 404, nodes: 3, miners: []int{0},
			faults: Faults{Reorder: 0.3, ReorderDelay: 25 * time.Millisecond},
			check: func(t *testing.T, env *scenarioEnv) {
				if injectedFaults(env.c, "reorder") == 0 {
					t.Error("reorder scenario injected no reorders")
				}
			},
		},
		{
			name: "duplicate", seed: 505, nodes: 3, miners: []int{0},
			faults: Faults{Duplicate: 0.4},
			check: func(t *testing.T, env *scenarioEnv) {
				if injectedFaults(env.c, "duplicate") == 0 {
					t.Error("duplicate scenario injected no duplicates")
				}
			},
		},
		{
			// Sides A = {n0 miner, n1 gateway} and B = {n2 recipient,
			// n3 miner} both confirm the shared payment on their own
			// branch; after heal only A mines, so B reorganizes onto
			// A's branch carrying the claim.
			name: "partition-heal", seed: 606, nodes: 4, miners: []int{0, 3},
			midExchange: func(t *testing.T, env *scenarioEnv) {
				env.c.Net.Partition([]string{"n0", "n1"}, []string{"n2", "n3"})
				for i := 0; i < 3; i++ {
					env.c.PumpRound(0, 3)
				}
			},
			beforeSettle: func(t *testing.T, env *scenarioEnv) {
				env.c.Net.Heal()
			},
			check: func(t *testing.T, env *scenarioEnv) {
				if injectedFaults(env.c, "partition") == 0 {
					t.Error("partition scenario blocked no messages")
				}
				reorgs := nodeCounter(env.c, 2, "bcwan_chain_reorgs_total") +
					nodeCounter(env.c, 3, "bcwan_chain_reorgs_total")
				if reorgs == 0 {
					t.Error("partition heal caused no reorg on the losing side")
				}
			},
		},
		{
			// The only miner dies mid-exchange with the payment pooled,
			// then restarts from its durable store and finishes the
			// exchange (zero-conf claim already happened while it was
			// down).
			name: "crash-restart", seed: 707, nodes: 3, miners: []int{0},
			midExchange: func(t *testing.T, env *scenarioEnv) {
				if err := env.c.Crash(0); err != nil {
					t.Fatalf("crash n0: %v", err)
				}
				env.miners = nil
			},
			beforeSettle: func(t *testing.T, env *scenarioEnv) {
				loaded, err := env.c.Restart(0)
				if err != nil {
					t.Fatalf("restart n0: %v", err)
				}
				env.restartLoaded = loaded
				env.miners = []int{0}
			},
			check: func(t *testing.T, env *scenarioEnv) {
				if env.restartLoaded < 1 {
					t.Errorf("restart recovered %d blocks from the store, want ≥ 1", env.restartLoaded)
				}
			},
		},
		{
			// The gateway node dies after the payment and never claims;
			// the recipient reclaims through the OP_ELSE refund path
			// once the lock height passes.
			name: "gateway-death-refund", seed: 808, nodes: 3, miners: []int{0},
			refund: true,
			midExchange: func(t *testing.T, env *scenarioEnv) {
				if err := env.c.Crash(1); err != nil {
					t.Fatalf("crash n1: %v", err)
				}
			},
		},
		{
			// n3 is cut off while the claim gossips, then the block
			// carrying it is mined immediately after heal: n3's compact
			// reconstruction is missing the claim tx and must climb to the
			// getblocktxn round trip (DESIGN.md §12 fallback ladder).
			name: "compact-missing-tx", seed: 1010, nodes: 4, miners: []int{0},
			midExchange: func(t *testing.T, env *scenarioEnv) {
				env.c.Net.Partition([]string{"n0", "n1", "n2"}, []string{"n3"})
				// No mining while split: the claim must stay pooled so the
				// post-heal block is the first n3 hears of it.
				env.miners = nil
			},
			beforeSettle: func(t *testing.T, env *scenarioEnv) {
				// The claim's inv/getdata round trip from the gateway node
				// is still in flight when the claim call returns; the mined
				// block must carry it, so wait for n0's pool first.
				deadline := time.Now().Add(scenarioTimeout)
				for env.c.Node(0).Ledger().Pool.Len() < 2 {
					if time.Now().After(deadline) {
						t.Fatalf("claim never reached the miner's pool")
					}
					time.Sleep(2 * time.Millisecond)
				}
				// Heal n0 → n3 before n1 → n3 and n2 → n3. Those two may
				// still be admitting the claim and announcing it, and an
				// announcement reaching n3 ahead of the sketch would pool
				// the claim there first. Whatever n0 queued for n3 — its
				// own claim inv, or headers a stalled catch-up round asked
				// for — travels ahead of its sketch on one link, so n3 can
				// ask for the claim or the body but not have it in time.
				for _, from := range []string{"n1", "n2"} {
					env.c.Net.SetLinkFaults(from, "n3", Faults{Drop: 1})
				}
				env.c.Net.Heal()
				// Mine before any pump round can re-announce pending txs,
				// so the sketch reaches n3 with the claim still unknown.
				blk, err := env.c.Node(0).MineNow()
				if err != nil {
					t.Fatalf("mine after heal: %v", err)
				}
				// Wait for n3 to adopt it without pumping: a pump round
				// would force-rebroadcast the claim, racing it into n3's
				// pool before the sketch and voiding the round trip.
				deadline = time.Now().Add(scenarioTimeout)
				for env.c.Node(3).Chain().Tip().ID() != blk.ID() {
					if time.Now().After(deadline) {
						t.Fatalf("n3 never adopted the post-heal block")
					}
					time.Sleep(2 * time.Millisecond)
				}
				for _, from := range []string{"n1", "n2"} {
					env.c.Net.SetLinkFaults(from, "n3", Faults{})
				}
				env.miners = []int{0}
			},
			check: func(t *testing.T, env *scenarioEnv) {
				if got := nodeCounter(env.c, 3, "bcwan_daemon_cmpct_txn_requests_total"); got < 1 {
					t.Errorf("n3 issued %v getblocktxn round trips, want ≥ 1", got)
				}
				if got := nodeCounter(env.c, 3, "bcwan_daemon_cmpct_received_total"); got < 1 {
					t.Errorf("n3 received %v compact sketches, want ≥ 1", got)
				}
			},
		},
		{
			name: "churn", seed: 909, nodes: 4, miners: []int{0},
			faults: Faults{
				Drop:      0.1,
				Duplicate: 0.2,
				Reorder:   0.15,
				Delay:     netsim.LinkDist{MedianMS: 3, Sigma: 0.5},
			},
		},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) { runScenario(t, sc) })
	}
}

func runScenario(t *testing.T, sc scenario) {
	seed, src := effectiveSeed(sc.seed)
	t.Logf("scenario %q seed %d (%s); replay: CHAOS_SEED=%d go test -run 'TestFaultScenarios/%s' ./internal/chaos",
		sc.name, seed, src, seed, sc.name)
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("[replay: CHAOS_SEED=%d] scenario %q: %s", seed, sc.name, fmt.Sprintf(format, args...))
	}
	if sc.gatewayNode == 0 {
		sc.gatewayNode = 1
	}
	if sc.recipientNode == 0 {
		sc.recipientNode = 2
	}

	c, err := NewCluster(Options{
		Seed:   seed,
		Nodes:  sc.nodes,
		Miners: sc.miners,
		Dir:    t.TempDir(),
	})
	if err != nil {
		fatalf("cluster: %v", err)
	}
	defer c.Close()
	if sc.faults.Any() {
		c.Net.SetDefaultFaults(sc.faults)
	}

	env := &scenarioEnv{c: c, miners: sc.miners[:1]}
	env.gw = c.Gateway(sc.gatewayNode, gateway.Config{
		Price: 100, RefundWindow: 5, WaitConfirmations: 0, ClaimFee: 1,
	})
	env.rcpt = c.Recipient(sc.recipientNode, recipient.Config{
		MaxPrice: 100, RefundWindow: 5,
	})
	env.sensor, err = c.NewSensor(lora.DevEUI{0xB0, 1, 2, 3, 4, 5, 6, 7}, env.rcpt)
	if err != nil {
		fatalf("sensor: %v", err)
	}

	// Mature the genesis allocation so the recipient's coins spend.
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		return allHeightsAtLeast(c, 1)
	}); err != nil {
		fatalf("maturing genesis: %v", err)
	}

	// Publish and confirm the @R → IP binding (§4.3) so the gateway's
	// directory can resolve the recipient.
	if _, err := c.PublishBinding(sc.recipientNode, "recipient.chaos:0"); err != nil {
		fatalf("binding: %v", err)
	}
	rcptHash := c.RecipientWallet.PubKeyHash()
	dir := c.Node(sc.gatewayNode).Directory()
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		_, err := dir.Lookup(rcptHash)
		return err == nil
	}); err != nil {
		fatalf("binding propagation: %v", err)
	}
	// Quiesce so every node agrees on the height the offer is made at.
	if err := c.WaitFor(scenarioTimeout, nil, func() bool { return c.Converged() }); err != nil {
		fatalf("pre-exchange convergence: %v", err)
	}

	// Fig. 3: key request → data frame → delivery → payment.
	resp, err := env.gw.HandleKeyRequest(env.sensor.Dev.KeyRequestFrame())
	if err != nil {
		fatalf("key request: %v", err)
	}
	// Canonical frames carry at most 15 plaintext bytes (Fig. 4).
	plaintext := []byte(fmt.Sprintf("t=21.5C s=%04x", uint16(seed)))
	frame, err := env.sensor.Dev.DataFrame(plaintext, resp.Payload, resp.Counter)
	if err != nil {
		fatalf("data frame: %v", err)
	}
	env.offerHeight = c.Node(sc.gatewayNode).Chain().Height()
	env.delivery, _, err = env.gw.HandleData(frame)
	if err != nil {
		fatalf("handle data: %v", err)
	}
	payment, err := env.rcpt.HandleDelivery(env.delivery)
	if err != nil {
		fatalf("handle delivery: %v", err)
	}
	env.paymentID = payment.ID()
	env.ex = &Exchange{
		Delivery:        env.delivery,
		Payment:         payment,
		SharedKey:       env.sensor.SharedKey,
		Plaintext:       plaintext,
		BuyerPubKeyHash: rcptHash,
	}

	// The payment must be visible cluster-wide before faults like
	// partitions bite, so both sides of a split confirm the same coins.
	if err := c.WaitFor(scenarioTimeout, nil, func() bool {
		return paymentEverywhere(c, env.paymentID)
	}); err != nil {
		fatalf("payment propagation: %v", err)
	}

	if sc.midExchange != nil {
		sc.midExchange(t, env)
	}

	if !sc.refund {
		// Fig. 3 step 10: the gateway claims by revealing eSk.
		if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
			_, err := env.gw.VerifyAndClaim(env.delivery.DevEUI, env.delivery.Exchange, env.paymentID, env.offerHeight)
			return err == nil
		}); err != nil {
			fatalf("claim: %v", err)
		}
	}

	if sc.beforeSettle != nil {
		sc.beforeSettle(t, env)
	}

	if sc.refund {
		runRefund(t, fatalf, env)
	} else {
		var msg *recipient.Message
		if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
			m, err := env.rcpt.SettleClaim(env.paymentID)
			if err != nil {
				return false
			}
			msg = m
			return true
		}); err != nil {
			fatalf("settle: %v", err)
		}
		if !bytes.Equal(msg.Plaintext, plaintext) {
			fatalf("settled plaintext %q, want %q", msg.Plaintext, plaintext)
		}
	}

	// Let the cluster quiesce on one branch, then check every safety
	// property.
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool { return c.Converged() }); err != nil {
		fatalf("final convergence: %v", err)
	}
	if err := CheckInvariants(c, []*Exchange{env.ex}); err != nil {
		fatalf("invariants violated: %v", err)
	}
	if sc.check != nil {
		sc.check(t, env)
	}
}

// runRefund drives the OP_ELSE arm: wait out the lock window, reclaim,
// and confirm the refund.
func runRefund(t *testing.T, fatalf func(string, ...any), env *scenarioEnv) {
	t.Helper()
	c := env.c
	params, err := script.ParseKeyRelease(env.ex.Payment.Outputs[0].Lock)
	if err != nil {
		fatalf("parse payment lock: %v", err)
	}
	rcptChain := c.Node(2).Chain()
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		return rcptChain.Height() >= params.RefundHeight
	}); err != nil {
		fatalf("waiting out refund window: %v", err)
	}
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		_, err := env.rcpt.Refund(env.paymentID)
		return err == nil
	}); err != nil {
		fatalf("refund: %v", err)
	}
	op := chain.OutPoint{TxID: env.paymentID, Index: 0}
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		_, _, ok := rcptChain.FindSpender(op)
		return ok
	}); err != nil {
		fatalf("refund confirmation: %v", err)
	}
}
