package daemon

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/fairex"
	"bcwan/internal/lora"
	"bcwan/internal/script"
)

// TestRecipientShedsDeliveriesBeyondItsSlots offers four times as many
// concurrent deliveries as the recipient has settle slots, with every
// settle held. The excess is refused at once, the goroutine count stays
// within the slots, and once the settles go on every accepted delivery
// reaches the inbox.
func TestRecipientShedsDeliveriesBeyondItsSlots(t *testing.T) {
	const offered = 4 * maxDeliveriesInFlight
	c := newCluster(t)
	_, rcptMgr := c.enableChannels(t)
	c.publishBinding(t)
	dev := c.provisionSensor(t, lora.DevEUI{0xe0, 1})
	deliveries := make([]*fairex.Delivery, offered)
	for i := range deliveries {
		d, _, err := c.gwd.Gateway.HandleData(c.dataFrame(t, dev, []byte(fmt.Sprintf("reading-%d", i))))
		if err != nil {
			t.Fatal(err)
		}
		d.GatewayPubKey = c.gwd.Gateway.Wallet().PublicBytes()
		deliveries[i] = d
	}

	// Hold every settle: each admitted delivery parks on the payer's
	// round lock, holding its slot.
	rcptMgr.settleMu.Lock()
	held := true
	defer func() {
		if held {
			rcptMgr.settleMu.Unlock()
		}
	}()
	base := runtime.NumGoroutine()
	addr := c.rcptd.Node.P2PAddr()
	acks := make([]<-chan *fairex.Ack, offered)
	for i, d := range deliveries {
		ch, cancel := c.gwd.acks.wait(ackKey{addr, d.DevEUI, d.Exchange})
		defer cancel()
		acks[i] = ch
		if !c.gwd.Node.send(addr, msgTypeDelivery, encodeDelivery(d)) {
			t.Fatalf("delivery %d not sent", i)
		}
	}
	// One connection carries them in order: the first deliveries take
	// the slots, and the rest are refused while those are still held.
	for i := maxDeliveriesInFlight; i < offered; i++ {
		select {
		case ack := <-acks[i]:
			if ack.Accepted || ack.Reason != "recipient busy" {
				t.Fatalf("delivery %d beyond the slots: %+v, want a busy refusal", i, ack)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery %d beyond the slots: no refusal while the slots are held", i)
		}
	}
	grew := runtime.NumGoroutine() - base
	t.Logf("goroutines grew by %d", grew)
	if grew > 2*maxDeliveriesInFlight {
		t.Fatalf("%d goroutines more for %d offered deliveries, want at most %d", grew, offered, 2*maxDeliveriesInFlight)
	}
	if got := len(c.rcptd.Inbox()); got != 0 {
		t.Fatalf("inbox = %d while every settle is held", got)
	}

	rcptMgr.settleMu.Unlock()
	held = false
	for i := 0; i < maxDeliveriesInFlight; i++ {
		select {
		case ack := <-acks[i]:
			if !ack.Accepted || ack.ChannelID == (chain.Hash{}) {
				t.Fatalf("delivery %d in a slot: %+v, want settled through the channel", i, ack)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("delivery %d in a slot: never acked", i)
		}
	}
	if got := len(c.rcptd.Inbox()); got != maxDeliveriesInFlight {
		t.Fatalf("inbox = %d, want every one of the %d accepted deliveries", got, maxDeliveriesInFlight)
	}
}

// TestDuplicatedDeliveryIsPaidAndAckedOnce delivers one delivery message
// twice, as a duplicating link would. The recipient pays once and sends
// one deliveryack, the acceptance; the copy gets no answer that could
// overtake it.
func TestDuplicatedDeliveryIsPaidAndAckedOnce(t *testing.T) {
	c := newCluster(t)
	c.publishBinding(t)
	dev := c.provisionSensor(t, lora.DevEUI{0xe1, 1})
	d, _, err := c.gwd.Gateway.HandleData(c.dataFrame(t, dev, []byte("twice")))
	if err != nil {
		t.Fatal(err)
	}
	payload := encodeDelivery(d)
	peer, acks := c.bareGateway(t)
	addr := c.rcptd.Node.P2PAddr()
	var answers []deliveryAck
	// send offers payloads in order, then a delivery from an unknown
	// sensor behind them, and collects the acks until that one's: the
	// read loop hands each delivery to its slot in order, and the acks
	// share one send queue.
	send := func(barrier lora.DevEUI, payloads ...[]byte) {
		t.Helper()
		last := encodeDelivery(&fairex.Delivery{DevEUI: barrier})
		for _, p := range append(payloads, last) {
			if !peer.SendTo(addr, msgTypeDelivery, p) {
				t.Fatal("delivery not sent")
			}
		}
		for {
			select {
			case a := <-acks:
				if a.DevEUI == d.DevEUI {
					answers = append(answers, a)
				}
				if a.DevEUI == barrier {
					return
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("no ack for the delivery from %s", barrier)
			}
		}
	}
	send(lora.DevEUI{0xff}, payload, payload)
	// Close waits for every settle in flight; an ack either copy sent is
	// then queued ahead of the refusal the next delivery gets.
	if err := c.rcptd.Close(); err != nil {
		t.Fatal(err)
	}
	send(lora.DevEUI{0xfe})
	if len(answers) != 1 || !answers[0].Accepted || answers[0].PaymentTxID == (chain.Hash{}) {
		t.Fatalf("deliveryacks for the delivery = %+v, want one acceptance naming its payment", answers)
	}
	if got := c.rcptd.Recipient.Stats.Payments; got != 1 {
		t.Fatalf("%d payments for one delivery sent twice", got)
	}
	if ids := c.rcptd.Recipient.PendingPayments(); len(ids) != 1 || ids[0] != answers[0].PaymentTxID {
		t.Fatalf("pending payments %v, want the acked %s alone", ids, answers[0].PaymentTxID)
	}
}

// TestUnclaimedPaymentIsRefunded pays for a delivery whose gateway
// never claims. Below the payment's refund height the recipient daemon
// leaves it pending; at that height it refunds it on its own, and the
// refund confirms as the payment's spender.
func TestUnclaimedPaymentIsRefunded(t *testing.T) {
	c := newCluster(t)
	c.publishBinding(t)
	dev := c.provisionSensor(t, lora.DevEUI{0xe2, 1})
	d, _, err := c.gwd.Gateway.HandleData(c.dataFrame(t, dev, []byte("never claimed")))
	if err != nil {
		t.Fatal(err)
	}
	payload := encodeDelivery(d)
	// A bare overlay node stands in for the gateway: it never claims.
	peer, acks := c.bareGateway(t)
	if !peer.SendTo(c.rcptd.Node.P2PAddr(), msgTypeDelivery, payload) {
		t.Fatal("delivery not sent")
	}
	var ack deliveryAck
	select {
	case ack = <-acks:
	case <-time.After(10 * time.Second):
		t.Fatal("no deliveryack")
	}
	paymentID := ack.PaymentTxID
	if !ack.Accepted || paymentID == (chain.Hash{}) {
		t.Fatalf("ack %+v: want an acceptance naming its payment", ack)
	}
	c.waitPooled(c.master, paymentID)
	payment, _ := c.master.Ledger().PendingTx(paymentID)
	lock, err := script.ParseKeyRelease(payment.Outputs[0].Lock)
	if err != nil {
		t.Fatal(err)
	}

	for c.master.Chain().Height() < lock.RefundHeight-1 {
		c.mine()
	}
	// A refund that went out would have forgotten the payment.
	c.rcptd.settlePending()
	if got := len(c.rcptd.Recipient.PendingPayments()); got != 1 {
		t.Fatalf("one block before the refund height: %d pending, want the payment still pending", got)
	}

	c.mine()
	waitCond(t, "the refund", func() bool { return len(c.rcptd.Recipient.PendingPayments()) == 0 })
	if got := c.rcptd.Recipient.Stats.Refunds; got != 1 {
		t.Fatalf("%d refunds, want 1", got)
	}
	waitCond(t, "the refund at the miner", func() bool { return c.master.Ledger().Pool.Len() == 1 })
	c.mine()
	spender, _, ok := c.rcptd.Node.Chain().FindSpender(chain.OutPoint{TxID: paymentID})
	if !ok || spender.LockTime != lock.RefundHeight {
		t.Fatalf("payment output spent by %+v (found %v), want the refund locked to height %d", spender, ok, lock.RefundHeight)
	}
}

func TestDeliveryDecodeRefusesOversize(t *testing.T) {
	d := &fairex.Delivery{DevEUI: lora.DevEUI{1}, Exchange: 2, Em: bytes.Repeat([]byte{1}, maxDeliveryField)}
	if _, err := decodeDelivery(encodeDelivery(d)); err != nil {
		t.Fatal(err)
	}
	d.Em = append(d.Em, 1)
	if _, err := decodeDelivery(encodeDelivery(d)); err == nil {
		t.Fatalf("accepted a %d-byte field", len(d.Em))
	}
}

// FuzzDeliveryMsgDecode drives the recipient's delivery decode, and the
// gateway's deliveryack decode, with hostile payloads: neither may
// panic or accept a field over its bound, and what they accept must
// encode to the very bytes they decoded.
func FuzzDeliveryMsgDecode(f *testing.F) {
	delivery := encodeDelivery(&fairex.Delivery{
		DevEUI:        lora.DevEUI{0xaa, 1},
		Exchange:      7,
		Em:            bytes.Repeat([]byte{1}, 64),
		EPk:           bytes.Repeat([]byte{2}, 70),
		Sig:           bytes.Repeat([]byte{3}, 64),
		Price:         100,
		RefundWindow:  100,
		GatewayPubKey: bytes.Repeat([]byte{4}, 65),
	})
	ack := (&deliveryAck{DevEUI: lora.DevEUI{1}, Exchange: 3, Ack: fairex.Ack{Accepted: true, PaymentTxID: chain.Hash{5}, Reason: "r"}}).encode()
	f.Add(delivery)
	f.Add(ack)
	f.Add([]byte{})
	f.Add(append([]byte{0xfe}, delivery[1:]...))          // a version this build does not speak
	f.Add(delivery[:len(delivery)-1])                     // truncated
	f.Add(append(append([]byte(nil), delivery...), 0xde)) // trailing garbage
	lying := append([]byte(nil), delivery...)
	lying[1+8+4] = 0xff // the Em length prefix claims 4 GiB
	f.Add(lying)
	badBool := append([]byte(nil), ack...)
	badBool[1+8+4] = 2
	f.Add(badBool)
	f.Add(ack[:1+8+4+1])
	f.Add(append(append([]byte(nil), ack...), bytes.Repeat([]byte(" "), maxDeliveryField)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := decodeDelivery(data); err == nil {
			for _, b := range [][]byte{d.Em, d.EPk, d.Sig, d.GatewayPubKey} {
				if len(b) > maxDeliveryField {
					t.Fatalf("accepted a %d-byte field", len(b))
				}
			}
			if enc := encodeDelivery(d); !bytes.Equal(enc, data) {
				t.Fatalf("delivery re-encodes to %x, decoded from %x", enc, data)
			}
		}
		if a, err := decodeDeliveryAck(data); err == nil {
			if len(a.Reason) > maxDeliveryField {
				t.Fatalf("accepted a %d-byte reason", len(a.Reason))
			}
			if enc := a.encode(); !bytes.Equal(enc, data) {
				t.Fatalf("deliveryack re-encodes to %x, decoded from %x", enc, data)
			}
		}
	})
}
