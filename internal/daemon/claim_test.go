package daemon

import (
	"crypto/rand"
	"errors"
	"sort"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/device"
	"bcwan/internal/fairex"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/p2p"
	"bcwan/internal/registry"
	"bcwan/internal/script"
)

// fakeRecipient binds the recipient wallet's @R to a bare overlay node
// with one delivery handler in place of the recipient daemon, so a test
// chooses what each ack names and when its payment exists. answer runs
// off the test goroutine.
func (c *cluster) fakeRecipient(answer func(*fairex.Delivery) fairex.Ack) {
	t := c.t
	t.Helper()
	fake, err := p2p.NewNode(p2p.TCPTransport{}, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fake.Close() })
	p2p.Handle(fake, msgTypeDelivery, decodeDelivery, func(from string, d *fairex.Delivery) {
		a := &deliveryAck{DevEUI: d.DevEUI, Exchange: d.Exchange, Ack: answer(d)}
		if !fake.SendTo(from, msgTypeDeliveryAck, a.encode()) {
			t.Error("deliveryack not sent")
		}
	})
	c.fundRecipient(100_000)
	w := c.rcptd.Recipient.Wallet()
	bind, err := registry.BuildPublish(w, c.rcptd.Node.Ledger().Spendable(w.PubKeyHash()), fake.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.rcptd.Node.Ledger().Submit(bind); err != nil {
		t.Fatal(err)
	}
	c.waitPooled(c.master, bind.ID())
	c.mine()
}

// payFor builds, without submitting, the recipient wallet's key-release
// payment for d with the given refund height.
func (c *cluster) payFor(d *fairex.Delivery, refundHeight int64) (*chain.Tx, error) {
	w := c.rcptd.Recipient.Wallet()
	return w.BuildKeyReleasePayment(c.rcptd.Node.Ledger().Spendable(w.PubKeyHash()), script.KeyReleaseParams{
		RSAPubKey:         d.EPk,
		GatewayPubKeyHash: d.GatewayPubKeyHash,
		RefundHeight:      refundHeight,
		BuyerPubKeyHash:   w.PubKeyHash(),
	}, d.Price, 1)
}

// TestClaimFailsFastOnBadPayment: a payment that fails CheckPayment is a
// permanent verdict. The gateway gives up on it at once, counting one
// failed claim, instead of re-checking it until deliveryTimeout.
func TestClaimFailsFastOnBadPayment(t *testing.T) {
	c := newCluster(t)
	c.fakeRecipient(func(d *fairex.Delivery) fairex.Ack {
		// One block short of the window the gateway offered at.
		pay, err := c.payFor(d, c.gwd.Node.Chain().Height()+d.RefundWindow-1)
		if err == nil {
			err = c.rcptd.Node.Ledger().Submit(pay)
		}
		if err != nil {
			t.Error(err)
			return fairex.Ack{Reason: err.Error()}
		}
		return fairex.Ack{Accepted: true, PaymentTxID: pay.ID()}
	})
	frame := c.dataFrame(t, c.provisionSensor(t, lora.DevEUI{0xd0, 1}), []byte("short"))

	start := time.Now()
	_, err := c.gwd.HandleUplink(frame)
	took := time.Since(start)
	if !errors.Is(err, fairex.ErrBadPayment) {
		t.Fatalf("HandleUplink = %v, want ErrBadPayment", err)
	}
	if took > 2*time.Second {
		t.Fatalf("gateway took %s to give up on a permanent verdict", took)
	}
	if got := c.gwd.Gateway.Stats.FailedClaims; got != 1 {
		t.Fatalf("FailedClaims = %d, want 1", got)
	}
}

// TestOnChainClaimWakesOnArrival pins the claim's two wake sources: pool
// admission (the paper's zero-confirmation PoC) and block connect (a
// confirmation policy).
func TestOnChainClaimWakesOnArrival(t *testing.T) {
	t.Run("pooled", func(t *testing.T) {
		c := newCluster(t)
		c.publishBinding(t)
		dev := c.provisionSensor(t, lora.DevEUI{0xd1, 1})
		const deliveries = 10
		took := make([]time.Duration, 0, deliveries)
		for i := 0; i < deliveries; i++ {
			frame := c.dataFrame(t, dev, []byte("reading"))
			start := time.Now()
			if _, err := c.gwd.HandleUplink(frame); err != nil {
				t.Fatal(err)
			}
			took = append(took, time.Since(start))
			// Payment and claim at the miner, then one block for both.
			pool := c.master.Ledger().Pool
			waitCond(t, "payment and claim at the miner", func() bool { return pool.Len() >= 2 })
			c.mine()
		}
		waitCond(t, "every reading in the inbox", func() bool { return len(c.rcptd.Inbox()) == deliveries })
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		median := took[deliveries/2]
		t.Logf("data uplink: median %s, min %s, max %s", median, took[0], took[deliveries-1])
		if median >= 10*time.Millisecond {
			t.Fatalf("median data uplink %s, want < 10ms", median)
		}
	})

	t.Run("confirmed", func(t *testing.T) {
		cfg := gateway.DefaultConfig()
		cfg.WaitConfirmations = 1
		c := newGatewayCluster(t, cfg)
		c.publishBinding(t)
		frame := c.dataFrame(t, c.provisionSensor(t, lora.DevEUI{0xd1, 2}), []byte("reading"))
		done := make(chan error, 1)
		go func() {
			_, err := c.gwd.HandleUplink(frame)
			done <- err
		}()

		var paymentID chain.Hash
		waitCond(t, "the recipient's payment", func() bool {
			ids := c.rcptd.Recipient.PendingPayments()
			if len(ids) == 0 {
				return false
			}
			paymentID = ids[0]
			return true
		})
		c.waitPooled(c.gwd.Node, paymentID)
		c.waitPooled(c.master, paymentID)
		select {
		case err := <-done:
			t.Fatalf("uplink returned before the payment confirmed: %v", err)
		default:
		}
		c.mine()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("uplink still waiting 2s after the payment's block connected")
		}
	})
}

// TestClaimMetricsMoveOnOneDelivery: one on-chain delivery whose payment
// arrives only after some unrelated blocks records one claim wait and
// counts the wake-ups that did not find it.
func TestClaimMetricsMoveOnOneDelivery(t *testing.T) {
	c := newCluster(t)
	payments := make(chan *chain.Tx, 1)
	c.fakeRecipient(func(d *fairex.Delivery) fairex.Ack {
		pay, err := c.payFor(d, c.gwd.Node.Chain().Height()+d.RefundWindow)
		if err != nil {
			t.Error(err)
			return fairex.Ack{Reason: err.Error()}
		}
		payments <- pay // acked now, submitted by the test later
		return fairex.Ack{Accepted: true, PaymentTxID: pay.ID()}
	})
	frame := c.dataFrame(t, c.provisionSensor(t, lora.DevEUI{0xd2, 1}), []byte("late"))
	done := make(chan error, 1)
	go func() {
		_, err := c.gwd.HandleUplink(frame)
		done <- err
	}()
	pay := <-payments

	// Empty blocks wake the waiting gateway without the payment.
	waitCond(t, "a claim recheck", func() bool {
		c.mine()
		return daemonCounter(c.gwd.Node, "claim_rechecks_total") > 0
	})
	if err := c.rcptd.Node.Ledger().Submit(pay); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var waits uint64
	for _, m := range c.gwd.Node.Telemetry().Snapshot() {
		if m.Name == "bcwan_daemon_claim_wait_seconds" && m.Histogram != nil {
			waits = m.Histogram.Count
		}
	}
	if waits != 1 {
		t.Fatalf("claim_wait_seconds holds %d observations, want 1", waits)
	}
}

// TestOnChainAckNamesPooledPayment: the on-chain ack is backed by state
// already committed — the payment it names is in the recipient node's
// mempool the moment the ack is read.
func TestOnChainAckNamesPooledPayment(t *testing.T) {
	c := newCluster(t)
	c.fundRecipient(100_000)
	dev := c.provisionSensor(t, lora.DevEUI{0xd3, 1})

	// A hand-rolled offer on the gateway node's wire: its own ephemeral
	// pair, no directory, no claim.
	eKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ePk := bccrypto.MarshalRSA512PublicKey(eKey.Public())
	frame, err := dev.DataFrame([]byte("acked"), ePk, 7)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := device.DecodeDataPayload(frame.Payload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gateway.DefaultConfig()
	ack, err := c.gwd.deliver(c.rcptd.Node.P2PAddr(), &fairex.Delivery{
		DevEUI:            frame.DevEUI,
		Exchange:          frame.Counter,
		Em:                payload.Em,
		EPk:               ePk,
		Sig:               payload.Sig,
		GatewayPubKeyHash: [20]byte{0xd3},
		Price:             cfg.Price,
		RefundWindow:      cfg.RefundWindow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Accepted {
		t.Fatalf("delivery refused: %s", ack.Reason)
	}
	id := ack.PaymentTxID
	if _, ok := c.rcptd.Node.Ledger().PendingTx(id); !ok {
		t.Fatalf("ack names payment %s, which the recipient's mempool does not hold", id)
	}
}
