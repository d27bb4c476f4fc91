package chaos

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"path/filepath"
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/channel"
	"bcwan/internal/daemon"
	"bcwan/internal/fairex"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/recipient"
	"bcwan/internal/registry"
	"bcwan/internal/reputation"
	"bcwan/internal/script"
)

// The Byzantine chaos campaign: adversarial gateways play every
// profitable deviation — withholding keys on-chain and off-chain,
// double-selling old deliveries, eclipsing a victim's peer slots,
// mining a withheld private branch, hijacking a directory binding —
// against the reputation-weighted admission defense. Every scenario
// checks the two adversarial invariants (bounded loss per victim,
// eventual ejection) on top of the chain safety invariants.

// byzPrice is the per-delivery price every Byzantine scenario uses.
const byzPrice = 100

// byzK bounds how many exchanges an adversary may keep earning after
// its first proven loss before the victim refuses it.
const byzK = 3

// byzEnv is the shared per-scenario state.
type byzEnv struct {
	c      *Cluster
	rep    *reputation.System
	rcpt   *recipient.Recipient
	sensor *Sensor
	byz    *Byzantine
	log    *ByzantineLog
	miners []int
	fatalf func(string, ...any)
	// advID is the adversary gateway's reputation identity.
	advID string
}

// nodeCounterSum sums every series of one metric name on one node
// (labeled counters surface one snapshot row per label set).
func nodeCounterSum(c *Cluster, node int, name string) float64 {
	total := 0.0
	for _, m := range c.Node(node).Telemetry().Snapshot() {
		if m.Name == name {
			total += m.Value
		}
	}
	return total
}

// newByzEnv builds a cluster with a reputation-armed recipient on
// recipientNode and a Byzantine gateway on byzNode, matures the genesis
// allocation and publishes + confirms the recipient's binding.
func newByzEnv(t *testing.T, name string, seed int64, opts Options, byzNode, recipientNode int) *byzEnv {
	t.Helper()
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("[replay: CHAOS_SEED=%d] scenario %q: %s", seed, name, fmt.Sprintf(format, args...))
	}
	opts.Seed = seed
	opts.Dir = t.TempDir()
	c, err := NewCluster(opts)
	if err != nil {
		fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Close)

	env := &byzEnv{
		c:      c,
		rep:    reputation.New(),
		log:    &ByzantineLog{},
		miners: opts.Miners[:1],
		fatalf: fatalf,
	}
	env.rep.Instrument(c.Reg)
	env.rcpt = c.Recipient(recipientNode, recipient.Config{
		MaxPrice: byzPrice, RefundWindow: 5,
	})
	env.rcpt.UseReputation(env.rep)
	env.byz = c.Byzantine(byzNode, gateway.Config{
		Price: byzPrice, RefundWindow: 5, WaitConfirmations: 0, ClaimFee: 1,
	})
	env.advID = reputation.IDFromHash(c.AdversaryWallet.PubKeyHash())
	env.sensor, err = c.NewSensor(lora.DevEUI{0xBE, 1, 2, 3, 4, 5, 6, 7}, env.rcpt)
	if err != nil {
		fatalf("sensor: %v", err)
	}

	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		return allHeightsAtLeast(c, 1)
	}); err != nil {
		fatalf("maturing genesis: %v", err)
	}
	if _, err := c.PublishBinding(recipientNode, "recipient.byz:0"); err != nil {
		fatalf("binding: %v", err)
	}
	rcptHash := c.RecipientWallet.PubKeyHash()
	dir := c.Node(byzNode).Directory()
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		_, err := dir.Lookup(rcptHash)
		return err == nil
	}); err != nil {
		fatalf("binding propagation: %v", err)
	}
	if err := c.WaitFor(scenarioTimeout, nil, func() bool { return c.Converged() }); err != nil {
		fatalf("pre-attack convergence: %v", err)
	}
	return env
}

// byzDelivery plays the sensor-facing half of one exchange through the
// adversary and returns its (honestly signed) delivery offer.
func (env *byzEnv) byzDelivery(t *testing.T, plaintext []byte) (*fairex.Delivery, int64) {
	t.Helper()
	resp, err := env.byz.HandleKeyRequest(env.sensor.Dev.KeyRequestFrame())
	if err != nil {
		env.fatalf("key request: %v", err)
	}
	frame, err := env.sensor.Dev.DataFrame(plaintext, resp.Payload, resp.Counter)
	if err != nil {
		env.fatalf("data frame: %v", err)
	}
	offerHeight := env.c.Node(env.byz.node).Chain().Height()
	d, _, err := env.byz.HandleData(frame)
	if err != nil {
		env.fatalf("handle data: %v", err)
	}
	return d, offerHeight
}

// checkByz runs the adversarial invariants plus the chain safety
// invariants, as every Byzantine scenario must.
func (env *byzEnv) checkByz(t *testing.T, maxLoss uint64, exchanges []*Exchange) {
	t.Helper()
	if err := CheckByzantineInvariants(env.log, env.rep, maxLoss, byzK); err != nil {
		env.fatalf("byzantine invariants violated: %v", err)
	}
	if err := env.c.WaitFor(scenarioTimeout, env.miners, func() bool { return env.c.Converged() }); err != nil {
		env.fatalf("final convergence: %v", err)
	}
	if err := CheckInvariants(env.c, exchanges); err != nil {
		env.fatalf("invariants violated: %v", err)
	}
}

func TestByzantineScenarios(t *testing.T) {
	scenarios := []struct {
		name string
		seed int64
		run  func(t *testing.T, name string, seed int64)
	}{
		{"withhold-key-onchain", 7001, byzWithholdOnChain},
		{"withhold-key-channel", 7002, byzWithholdChannel},
		{"replay-double-deliver", 7003, byzReplay},
		{"eclipse-ban-recover", 7004, byzEclipse},
		{"private-mine-release", 7005, byzPrivateMine},
		{"equivocator-campaign", 7006, byzEquivocatorCampaign},
		{"forged-binding-hijack", 7007, byzForgedBinding},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			seed, src := effectiveSeed(sc.seed)
			t.Logf("scenario %q seed %d (%s); replay: CHAOS_SEED=%d go test -run 'TestByzantineScenarios/%s' ./internal/chaos",
				sc.name, seed, src, seed, sc.name)
			sc.run(t, sc.name, seed)
		})
	}
}

// byzWithholdOnChain: the adversary sells a delivery, takes the on-chain
// payment hostage and never discloses the key. The Listing 1 OP_ELSE
// refund makes the victim whole (lost = 0), the non-disclosure report
// ejects the adversary, and its next delivery is refused up front.
func byzWithholdOnChain(t *testing.T, name string, seed int64) {
	env := newByzEnv(t, name, seed,
		Options{Nodes: 3, Miners: []int{0}}, 1, 2)
	c := env.c

	d1, _ := env.byzDelivery(t, []byte("reading-1"))
	payment, err := env.rcpt.HandleDelivery(d1)
	if err != nil {
		env.fatalf("victim pays a still-trusted adversary: %v", err)
	}
	env.byz.WithholdClaim()
	env.log.Record(ExchangeAttempt{Gateway: env.advID, Paid: byzPrice, Lost: 0})
	ex := &Exchange{
		Delivery: d1, Payment: payment, SharedKey: env.sensor.SharedKey,
		Plaintext: []byte("reading-1"), BuyerPubKeyHash: c.RecipientWallet.PubKeyHash(),
	}
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		return paymentEverywhere(c, payment.ID())
	}); err != nil {
		env.fatalf("payment propagation: %v", err)
	}

	// The key never comes; once the CLTV window passes the victim
	// reclaims and the refund reports the withholding.
	params, err := script.ParseKeyRelease(payment.Outputs[0].Lock)
	if err != nil {
		env.fatalf("parse payment lock: %v", err)
	}
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		return c.Node(2).Chain().Height() >= params.RefundHeight
	}); err != nil {
		env.fatalf("waiting out refund window: %v", err)
	}
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		_, err := env.rcpt.Refund(payment.ID())
		return err == nil
	}); err != nil {
		env.fatalf("refund: %v", err)
	}
	op := chain.OutPoint{TxID: payment.ID(), Index: 0}
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		_, _, ok := c.Node(2).Chain().FindSpender(op)
		return ok
	}); err != nil {
		env.fatalf("refund confirmation: %v", err)
	}

	if env.rep.Trusted(env.advID) {
		env.fatalf("adversary still trusted after withholding (score %.2f)", env.rep.Score(env.advID))
	}
	// The second sale attempt dies at admission: no payment is built.
	d2, _ := env.byzDelivery(t, []byte("reading-2"))
	if _, err := env.rcpt.HandleDelivery(d2); !errors.Is(err, recipient.ErrUntrustedGateway) {
		env.fatalf("second delivery: err = %v, want ErrUntrustedGateway", err)
	}
	env.log.Record(ExchangeAttempt{Gateway: env.advID, Refused: true})

	if got := ByzantineAttacks(c, "withhold-key"); got != 1 {
		env.fatalf("withhold-key attacks = %d, want 1", got)
	}
	if got := env.rcpt.Stats.RefusedUntrusted; got != 1 {
		env.fatalf("RefusedUntrusted = %d, want 1", got)
	}
	env.checkByz(t, 0, []*Exchange{ex})
}

// byzWithholdChannel: the adversary countersigns a channel update (so
// the delta is irrevocably committed) and discloses junk instead of the
// key. There is no refund script off-chain: the victim loses exactly
// one delta, reports the non-disclosure, and refuses the adversary
// thereafter — the bounded-loss invariant at its tightest.
func byzWithholdChannel(t *testing.T, name string, seed int64) {
	env := newByzEnv(t, name, seed,
		Options{Nodes: 3, Miners: []int{0}}, 1, 2)
	c := env.c

	dir := t.TempDir()
	payerStore, err := channel.OpenStore(filepath.Join(dir, "payer"))
	if err != nil {
		env.fatalf("payer store: %v", err)
	}
	payeeStore, err := channel.OpenStore(filepath.Join(dir, "payee"))
	if err != nil {
		env.fatalf("payee store: %v", err)
	}
	payer, funding, err := channel.OpenPayer(c.RecipientWallet, c.Node(2).Ledger(), payerStore,
		c.AdversaryWallet.PublicBytes(), 10_000, 1, 1, 50, "")
	if err != nil {
		env.fatalf("open payer: %v", err)
	}
	if err := c.WaitFor(scenarioTimeout, nil, func() bool {
		return paymentEverywhere(c, funding.ID())
	}); err != nil {
		env.fatalf("funding propagation: %v", err)
	}
	payee, err := channel.AcceptPayee(c.AdversaryWallet, c.Node(1).Ledger(), payeeStore,
		funding, payer.State().Params, "")
	if err != nil {
		env.fatalf("accept payee: %v", err)
	}
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		_, _, ok := c.Node(1).Chain().FindTx(funding.ID())
		return ok
	}); err != nil {
		env.fatalf("funding confirmation: %v", err)
	}

	d1, _ := env.byzDelivery(t, []byte("reading-1"))
	x1, err := env.rcpt.Admit(d1)
	if err != nil {
		env.fatalf("admit: %v", err)
	}
	u, err := payer.SignUpdate(byzPrice)
	if err != nil {
		env.fatalf("sign update: %v", err)
	}
	if _, err := payee.ApplyUpdate(u); err != nil {
		env.fatalf("adversary countersign: %v", err)
	}
	// The adversary holds the countersigned delta; the disclosed key is
	// junk, so settlement fails and the victim does NOT ack.
	if _, err := fairex.VerifyDisclosedKey(d1, env.byz.BadChannelKey()); !errors.Is(err, fairex.ErrBadDisclosedKey) {
		env.fatalf("verify junk key: err = %v, want ErrBadDisclosedKey", err)
	}
	env.rcpt.ReportNonDisclosure(x1, byzPrice)
	env.log.Record(ExchangeAttempt{Gateway: env.advID, Paid: byzPrice, Lost: byzPrice})

	// The one in-flight delta is the whole exposure.
	if err := CheckChannelLossBound(payer.State(), payee.State(), byzPrice); err != nil {
		env.fatalf("channel loss bound: %v", err)
	}
	if env.rep.Trusted(env.advID) {
		env.fatalf("adversary still trusted after channel non-disclosure")
	}
	d2, _ := env.byzDelivery(t, []byte("reading-2"))
	if _, err := env.rcpt.Admit(d2); !errors.Is(err, recipient.ErrUntrustedGateway) {
		env.fatalf("second off-chain delivery: err = %v, want ErrUntrustedGateway", err)
	}
	env.log.Record(ExchangeAttempt{Gateway: env.advID, Refused: true})

	if got := ByzantineAttacks(c, "bad-channel-key"); got != 1 {
		env.fatalf("bad-channel-key attacks = %d, want 1", got)
	}
	if got := env.rep.Snapshot().PaymentsLost; got != byzPrice {
		env.fatalf("PaymentsLost = %d, want exactly one delta %d", got, byzPrice)
	}
	env.checkByz(t, byzPrice, nil)
}

// byzReplay: the adversary sells one delivery twice before its claim —
// a copy of an exchange in flight, refused without a second payment and
// without a charge, since a duplicating link sends the same — then
// completes it honestly (banking the capped credit) and tries to sell
// it again. The victim's replay memory catches the settled copy before
// any payment is built, the report ejects the adversary, and fresh
// deliveries are refused too.
func byzReplay(t *testing.T, name string, seed int64) {
	env := newByzEnv(t, name, seed,
		Options{Nodes: 3, Miners: []int{0}}, 1, 2)
	c := env.c

	plaintext := []byte("reading-1")
	d1, offerHeight := env.byzDelivery(t, plaintext)
	payment, err := env.rcpt.HandleDelivery(d1)
	if err != nil {
		env.fatalf("first delivery: %v", err)
	}
	score := env.rep.Score(env.advID)
	if _, err := env.rcpt.HandleDelivery(env.byz.ReplayDelivery(d1)); !errors.Is(err, recipient.ErrDeliveryInFlight) {
		env.fatalf("in-flight copy: err = %v, want ErrDeliveryInFlight", err)
	}
	if s := env.rcpt.Stats; s.Payments != 1 || s.ReplaysDetected != 0 {
		env.fatalf("after the in-flight copy: stats = %+v, want 1 payment and no replay", s)
	}
	if got := env.rep.Score(env.advID); got != score {
		env.fatalf("in-flight copy moved the adversary's score %.2f → %.2f", score, got)
	}
	if err := c.WaitFor(scenarioTimeout, nil, func() bool {
		return paymentEverywhere(c, payment.ID())
	}); err != nil {
		env.fatalf("payment propagation: %v", err)
	}
	// The adversary claims honestly this once — valid offers and claims
	// are exactly what lets it build credit to burn later.
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		_, err := env.byz.Gateway.VerifyAndClaim(d1.DevEUI, d1.Exchange, payment.ID(), offerHeight)
		return err == nil
	}); err != nil {
		env.fatalf("claim: %v", err)
	}
	var msg *recipient.Message
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		m, err := env.rcpt.SettleClaim(payment.ID())
		if err != nil {
			return false
		}
		msg = m
		return true
	}); err != nil {
		env.fatalf("settle: %v", err)
	}
	if !bytes.Equal(msg.Plaintext, plaintext) {
		env.fatalf("settled plaintext %q, want %q", msg.Plaintext, plaintext)
	}
	env.log.Record(ExchangeAttempt{Gateway: env.advID, Paid: byzPrice, Delivered: true})
	ex := &Exchange{
		Delivery: d1, Payment: payment, SharedKey: env.sensor.SharedKey,
		Plaintext: plaintext, BuyerPubKeyHash: c.RecipientWallet.PubKeyHash(),
	}
	if !env.rep.Trusted(env.advID) {
		env.fatalf("adversary lost trust on an honest exchange")
	}

	// Double-sell: same ciphertext, same (still valid) signature.
	replayed := env.byz.ReplayDelivery(d1)
	if _, err := env.rcpt.HandleDelivery(replayed); !errors.Is(err, recipient.ErrReplayedDelivery) {
		env.fatalf("replay: err = %v, want ErrReplayedDelivery", err)
	}
	env.log.Record(ExchangeAttempt{Gateway: env.advID, Refused: true})
	// One replay from the capped credit crosses the threshold: the
	// credit cap is what keeps banked honesty from financing fraud.
	if env.rep.Trusted(env.advID) {
		env.fatalf("adversary still trusted after replay (score %.2f)", env.rep.Score(env.advID))
	}
	d3, _ := env.byzDelivery(t, []byte("reading-3"))
	if _, err := env.rcpt.HandleDelivery(d3); !errors.Is(err, recipient.ErrUntrustedGateway) {
		env.fatalf("post-replay delivery: err = %v, want ErrUntrustedGateway", err)
	}
	env.log.Record(ExchangeAttempt{Gateway: env.advID, Refused: true})

	if env.rcpt.Stats.ReplaysDetected != 1 || env.rcpt.Stats.RefusedUntrusted != 1 {
		env.fatalf("stats = %+v, want 1 replay + 1 untrusted refusal", env.rcpt.Stats)
	}
	if got := env.rep.Snapshot().Replays; got != 1 {
		env.fatalf("reputation replays = %d, want 1", got)
	}
	// Two copies offered: the in-flight one and the settled one.
	if got := ByzantineAttacks(c, "replay"); got != 2 {
		env.fatalf("replay attacks = %d, want 2", got)
	}
	env.checkByz(t, 0, []*Exchange{ex})
}

// byzEclipse: the victim node has two peer slots and no auto-dial; the
// adversary occupies both with filtering identities, starving it of
// blocks. Misbehavior scoring bans the squatters (their spam is
// undecodable), freeing the slots, and the victim resyncs with honest
// peers. This attack is purely p2p-level, so the environment is just a
// cluster and the adversary — no exchange actors.
func byzEclipse(t *testing.T, name string, seed int64) {
	const victim = 2
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("[replay: CHAOS_SEED=%d] scenario %q: %s", seed, name, fmt.Sprintf(format, args...))
	}
	c, err := NewCluster(Options{
		Seed: seed, Dir: t.TempDir(),
		Nodes: 3, Miners: []int{0},
		NoDial: []int{victim},
		NodeTweak: func(i int, cfg *daemon.NodeConfig) {
			if i == victim {
				cfg.MaxPeers = 2
			}
		},
	})
	if err != nil {
		fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Close)
	env := &byzEnv{c: c, rep: reputation.New(),
		log: &ByzantineLog{}, miners: []int{0}, fatalf: fatalf}
	env.byz = c.Byzantine(1, gateway.Config{Price: byzPrice, RefundWindow: 5, ClaimFee: 1})
	// The honest partition (n0 ↔ n1) makes progress; the victim cannot
	// see it yet.
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		return c.Node(0).Chain().Height() >= 1 && c.Node(1).Chain().Height() >= 1
	}); err != nil {
		fatalf("maturing genesis: %v", err)
	}

	connA, err := env.byz.Occupy(nodeName(victim), "byz-a")
	if err != nil {
		env.fatalf("occupy slot a: %v", err)
	}
	connB, err := env.byz.Occupy(nodeName(victim), "byz-b")
	if err != nil {
		env.fatalf("occupy slot b: %v", err)
	}
	gossip := c.Node(victim).Gossip()
	deadline := time.Now().Add(scenarioTimeout)
	for len(gossip.Peers()) < 2 {
		if time.Now().After(deadline) {
			env.fatalf("adversary never filled the victim's slots: peers %v", gossip.Peers())
		}
		time.Sleep(time.Millisecond)
	}

	// An honest node dialing in is refused — the slots are taken.
	if err := c.Node(0).Connect(nodeName(victim)); err != nil {
		env.fatalf("honest dial: %v", err)
	}
	eclipsedAt := c.Node(victim).Chain().Height()
	for i := 0; i < 5; i++ {
		c.PumpRound(0)
	}
	if got := c.Node(victim).Chain().Height(); got != eclipsedAt {
		env.fatalf("eclipsed victim still advanced %d → %d", eclipsedAt, got)
	}
	if c.Node(0).Chain().Height() <= eclipsedAt {
		env.fatalf("honest chain did not outgrow the eclipsed victim")
	}

	// The squatters overplay their hand: undecodable traffic charges
	// misbehavior points until both are banned and disconnected.
	env.byz.Spam(connA, "byz-a", "tx", 12)
	env.byz.Spam(connB, "byz-b", "tx", 12)
	deadline = time.Now().Add(scenarioTimeout)
	for !(gossip.Banned("byz-a") && gossip.Banned("byz-b")) {
		if time.Now().After(deadline) {
			env.fatalf("squatters never banned: scores a=%d b=%d",
				gossip.BanScore("byz-a"), gossip.BanScore("byz-b"))
		}
		time.Sleep(time.Millisecond)
	}
	// A banned identity cannot re-occupy the freed slot.
	if _, err := env.byz.Occupy(nodeName(victim), "byz-a"); err == nil {
		deadline = time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			for _, p := range gossip.Peers() {
				if p == "byz-a" {
					env.fatalf("banned identity re-registered")
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Recovery: the freed slots go to honest peers and the victim
	// catches up.
	if err := c.Node(victim).Connect(nodeName(0)); err != nil {
		env.fatalf("reconnect n0: %v", err)
	}
	if err := c.Node(victim).Connect(nodeName(1)); err != nil {
		env.fatalf("reconnect n1: %v", err)
	}
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool { return c.Converged() }); err != nil {
		env.fatalf("post-recovery convergence: %v", err)
	}
	if got := nodeCounterSum(c, victim, "bcwan_p2p_bans_total"); got < 2 {
		env.fatalf("victim bans = %v, want ≥ 2", got)
	}
	if got := nodeCounterSum(c, victim, "bcwan_p2p_connections_refused_total"); got < 1 {
		env.fatalf("victim refused %v connections, want ≥ 1", got)
	}
	if got := ByzantineAttacks(c, "eclipse-occupy"); got < 2 {
		env.fatalf("eclipse-occupy attacks = %d, want ≥ 2", got)
	}
	env.checkByz(t, 0, nil)
}

// byzPrivateMine: an honest exchange settles, then the adversary's
// miner node partitions itself off, mines a longer private branch and
// springs it on the cluster. The honest side reorganizes — but the
// settled exchange sits below the fork point, so the claim survives on
// both branches and every safety invariant holds through the release.
func byzPrivateMine(t *testing.T, name string, seed int64) {
	const advNode = 3
	env := newByzEnv(t, name, seed,
		Options{Nodes: 4, Miners: []int{0, advNode}}, advNode, 2)
	c := env.c

	// A fully honest exchange through an honest gateway, settled and
	// converged BEFORE the attack: the fork point is above it.
	gw := c.Gateway(1, gateway.Config{Price: byzPrice, RefundWindow: 5, WaitConfirmations: 0, ClaimFee: 1})
	resp, err := gw.HandleKeyRequest(env.sensor.Dev.KeyRequestFrame())
	if err != nil {
		env.fatalf("key request: %v", err)
	}
	plaintext := []byte("reading-1")
	frame, err := env.sensor.Dev.DataFrame(plaintext, resp.Payload, resp.Counter)
	if err != nil {
		env.fatalf("data frame: %v", err)
	}
	offerHeight := c.Node(1).Chain().Height()
	d, _, err := gw.HandleData(frame)
	if err != nil {
		env.fatalf("handle data: %v", err)
	}
	payment, err := env.rcpt.HandleDelivery(d)
	if err != nil {
		env.fatalf("handle delivery: %v", err)
	}
	if err := c.WaitFor(scenarioTimeout, nil, func() bool {
		return paymentEverywhere(c, payment.ID())
	}); err != nil {
		env.fatalf("payment propagation: %v", err)
	}
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		_, err := gw.VerifyAndClaim(d.DevEUI, d.Exchange, payment.ID(), offerHeight)
		return err == nil
	}); err != nil {
		env.fatalf("claim: %v", err)
	}
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		_, err := env.rcpt.SettleClaim(payment.ID())
		return err == nil
	}); err != nil {
		env.fatalf("settle: %v", err)
	}
	ex := &Exchange{
		Delivery: d, Payment: payment, SharedKey: env.sensor.SharedKey,
		Plaintext: plaintext, BuyerPubKeyHash: c.RecipientWallet.PubKeyHash(),
	}
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool { return c.Converged() }); err != nil {
		env.fatalf("pre-attack convergence: %v", err)
	}
	forkHeight := c.Node(0).Chain().Height()

	// Selfish mining: three withheld blocks against one honest block.
	env.byz.StartPrivateMine()
	for i := 0; i < 3; i++ {
		c.PumpRound(advNode)
	}
	c.PumpRound(0)
	if got := c.Node(advNode).Chain().Height(); got != forkHeight+3 {
		env.fatalf("private branch at %d, want %d", got, forkHeight+3)
	}
	if got := c.Node(0).Chain().Height(); got != forkHeight+1 {
		env.fatalf("honest branch at %d, want %d", got, forkHeight+1)
	}
	env.byz.ReleasePrivateChain()
	if err := c.WaitFor(scenarioTimeout, nil, func() bool {
		return c.Converged() && c.Node(0).Chain().Height() >= forkHeight+3
	}); err != nil {
		env.fatalf("post-release convergence: %v", err)
	}

	reorgs := nodeCounterSum(c, 0, "bcwan_chain_reorgs_total") +
		nodeCounterSum(c, 1, "bcwan_chain_reorgs_total") +
		nodeCounterSum(c, 2, "bcwan_chain_reorgs_total")
	if reorgs == 0 {
		env.fatalf("released private chain caused no reorg on the honest side")
	}
	if _, _, ok := c.Node(0).Chain().FindTx(payment.ID()); !ok {
		env.fatalf("settled payment lost in the reorg")
	}
	if got := ByzantineAttacks(c, "private-mine"); got != 1 {
		env.fatalf("private-mine attacks = %d, want 1", got)
	}
	env.checkByz(t, 0, []*Exchange{ex})
}

// byzEquivocatorCampaign: the pay-first (§4.4) model under a seeded
// campaign. The adversary banks maximal credit with honest deliveries,
// then turns permanently malicious; the credit cap guarantees its FIRST
// cheat ejects it, so the victim loses exactly one payment and all
// subsequent demand routes to the honest gateway.
func byzEquivocatorCampaign(t *testing.T, name string, seed int64) {
	rng := mrand.New(mrand.NewSource(seed))
	rep := reputation.New()
	log := &ByzantineLog{}
	const rounds = 20
	adv, honest := "gw-byz", "gw-honest"
	onset := 3 + rng.Intn(3) // the adversary turns malicious here

	advEarned, honestEarned := uint64(0), uint64(0)
	victimLost := uint64(0)
	for k := 0; k < rounds; k++ {
		if !rep.Trusted(adv) {
			rep.ReportRefused(adv)
			log.Record(ExchangeAttempt{Gateway: adv, Refused: true})
			// Demand reroutes to the honest gateway.
			rep.ReportDelivered(honest)
			honestEarned += byzPrice
			log.Record(ExchangeAttempt{Gateway: honest, Paid: byzPrice, Delivered: true})
			continue
		}
		if k < onset {
			rep.ReportDelivered(adv)
			advEarned += byzPrice
			log.Record(ExchangeAttempt{Gateway: adv, Paid: byzPrice, Delivered: true})
			continue
		}
		// Pay-first: the payment is gone before the cheat is known.
		rep.ReportWithheld(adv, byzPrice)
		advEarned += byzPrice
		victimLost += byzPrice
		log.Record(ExchangeAttempt{Gateway: adv, Paid: byzPrice, Lost: byzPrice})
	}

	if err := CheckByzantineInvariants(log, rep, byzPrice, byzK); err != nil {
		t.Fatalf("[replay: CHAOS_SEED=%d] scenario %q: byzantine invariants violated: %v", seed, name, err)
	}
	if victimLost != byzPrice {
		t.Fatalf("victim lost %d, want exactly one payment %d", victimLost, byzPrice)
	}
	if want := uint64(onset+1) * byzPrice; advEarned != want {
		t.Fatalf("adversary earned %d, want %d (stops earning at its first cheat)", advEarned, want)
	}
	if want := uint64(rounds-onset-1) * byzPrice; honestEarned != want {
		t.Fatalf("honest gateway earned %d, want %d (all post-ejection demand)", honestEarned, want)
	}
	if rep.Trusted(adv) || !rep.Trusted(honest) {
		t.Fatalf("trust inverted: adv %.2f honest %.2f", rep.Score(adv), rep.Score(honest))
	}
	if got := rep.Snapshot().Refused; got == 0 {
		t.Fatal("no refusal ever recorded")
	}
}

// byzForgedBinding: a funded adversary publishes a directory record
// claiming the victim's @R. The carrying transaction cannot prove
// control of @R, so every node's directory drops it and the victim's
// true binding keeps resolving. The adversary's own (legitimate)
// binding is then ignored once its reputation ejects it.
func byzForgedBinding(t *testing.T, name string, seed int64) {
	env := newByzEnv(t, name, seed,
		Options{Nodes: 3, Miners: []int{0}, FundAdversary: 10_000}, 1, 2)
	c := env.c
	victimHash := c.RecipientWallet.PubKeyHash()

	forged, err := env.byz.ForgeBinding(victimHash, "evil.adv:0", 1)
	if err != nil {
		env.fatalf("forge binding: %v", err)
	}
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		for i := 0; i < c.Opts.Nodes; i++ {
			if _, _, ok := c.Node(i).Chain().FindTx(forged.ID()); !ok {
				return false
			}
		}
		return true
	}); err != nil {
		env.fatalf("forged binding confirmation: %v", err)
	}
	for i := 0; i < c.Opts.Nodes; i++ {
		dir := c.Node(i).Directory()
		b, err := dir.Lookup(victimHash)
		if err != nil || b.NetAddr != "recipient.byz:0" {
			env.fatalf("n%d: victim binding = %+v (%v), hijack got through", i, b, err)
		}
		if dir.ForgedRejected() == 0 {
			env.fatalf("n%d: forged binding was not counted as rejected", i)
		}
	}

	// The adversary CAN bind its own address — until its reputation
	// crosses the threshold, at which point its binding is ignored too.
	led := c.Node(1).Ledger()
	own, err := registry.BuildPublish(c.AdversaryWallet, led.UTXO(), "adv.gw:0", 1)
	if err != nil {
		env.fatalf("build own binding: %v", err)
	}
	if err := led.Submit(own); err != nil {
		env.fatalf("submit own binding: %v", err)
	}
	advHash := c.AdversaryWallet.PubKeyHash()
	dir := c.Node(2).Directory()
	if err := c.WaitFor(scenarioTimeout, env.miners, func() bool {
		_, err := dir.Lookup(advHash)
		return err == nil
	}); err != nil {
		env.fatalf("own binding propagation: %v", err)
	}
	before := dir.Len()
	env.rep.ReportWithheld(env.advID, 0) // one proven cheat…
	if env.rep.Trusted(env.advID) {
		env.fatalf("adversary still trusted")
	}
	dir.Eject(advHash) // …and the recipient stops honoring its binding
	if _, err := dir.Lookup(advHash); !errors.Is(err, registry.ErrUntrusted) {
		env.fatalf("ejected lookup err = %v, want ErrUntrusted", err)
	}
	if got := dir.Len(); got != before-1 {
		env.fatalf("Len after ejection = %d, want %d", got, before-1)
	}
	env.log.Record(ExchangeAttempt{Gateway: env.advID, Refused: true})

	if got := ByzantineAttacks(c, "forge-binding"); got != 1 {
		env.fatalf("forge-binding attacks = %d, want 1", got)
	}
	env.checkByz(t, 0, nil)
}
