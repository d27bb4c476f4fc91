package p2p

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestChannelOpenRoundTrip(t *testing.T) {
	m := &MsgChannelOpen{RecipientPub: []byte("rc-pub"), Capacity: 10_000, RefundWindow: 144}
	got, err := DecodeChannelOpen(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.RecipientPub, m.RecipientPub) || got.Capacity != 10_000 || got.RefundWindow != 144 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestChannelAcceptRoundTrip(t *testing.T) {
	m := &MsgChannelAccept{RecipientPub: []byte("rc"), GatewayPub: []byte("gw"), OK: ChannelAckOK}
	got, err := DecodeChannelAccept(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.GatewayPub, m.GatewayPub) || got.OK != ChannelAckOK || got.Reason != "" {
		t.Fatalf("round trip = %+v", got)
	}
	rej := &MsgChannelAccept{RecipientPub: []byte("rc"), OK: 1, Reason: "channels disabled"}
	got, err = DecodeChannelAccept(rej.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "channels disabled" {
		t.Fatalf("reason = %q", got.Reason)
	}
}

func TestChannelFundRoundTrip(t *testing.T) {
	m := &MsgChannelFund{ChannelID: [32]byte{9, 9}, RefundHeight: 512, CloseFee: 5, FundingTx: bytes.Repeat([]byte{0xfe}, 300)}
	got, err := DecodeChannelFund(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ChannelID != m.ChannelID || got.RefundHeight != 512 || got.CloseFee != 5 || !bytes.Equal(got.FundingTx, m.FundingTx) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestChannelUpdateRoundTrip(t *testing.T) {
	m := &MsgChannelUpdate{
		ChannelID: [32]byte{1}, ChanVersion: 42, Paid: 4200,
		DevEUI: [8]byte{0xde, 0xca}, Exchange: 7, RecipientSig: []byte("sig"),
	}
	got, err := DecodeChannelUpdate(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ChanVersion != 42 || got.Paid != 4200 || got.DevEUI != m.DevEUI ||
		got.Exchange != 7 || !bytes.Equal(got.RecipientSig, m.RecipientSig) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestChannelUpdateAckRoundTrip(t *testing.T) {
	m := &MsgChannelUpdateAck{
		ChannelID: [32]byte{2}, ChanVersion: 42, DevEUI: [8]byte{1},
		Exchange: 7, Status: ChannelAckOK, Key: bytes.Repeat([]byte{3}, 136), GatewaySig: []byte("gwsig"),
	}
	got, err := DecodeChannelUpdateAck(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ChanVersion != 42 || got.Status != ChannelAckOK ||
		!bytes.Equal(got.Key, m.Key) || !bytes.Equal(got.GatewaySig, m.GatewaySig) {
		t.Fatalf("round trip = %+v", got)
	}
	rej := &MsgChannelUpdateAck{Status: ChannelAckRejected, Reason: "stale version"}
	got, err = DecodeChannelUpdateAck(rej.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != ChannelAckRejected || got.Reason != "stale version" || len(got.Key) != 0 {
		t.Fatalf("rejection round trip = %+v", got)
	}
}

func TestChannelCloseRoundTrip(t *testing.T) {
	m := &MsgChannelClose{ChannelID: [32]byte{0xaa}, Kind: ChannelCloseUnilateral}
	got, err := DecodeChannelClose(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ChannelID != m.ChannelID || got.Kind != ChannelCloseUnilateral {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestChannelMsgRejectsBadInput(t *testing.T) {
	// Unknown version byte.
	enc := (&MsgChannelClose{ChannelID: [32]byte{1}}).Encode()
	enc[0] = 99
	if _, err := DecodeChannelClose(enc); !errors.Is(err, errMalformed) {
		t.Fatalf("future version: %v", err)
	}
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := DecodeChannelOpen(b); return err },
		func(b []byte) error { _, err := DecodeChannelAccept(b); return err },
		func(b []byte) error { _, err := DecodeChannelFund(b); return err },
		func(b []byte) error { _, err := DecodeChannelUpdate(b); return err },
		func(b []byte) error { _, err := DecodeChannelUpdateAck(b); return err },
		func(b []byte) error { _, err := DecodeChannelClose(b); return err },
	}
	for i, decode := range decoders {
		if err := decode(nil); !errors.Is(err, errMalformed) {
			t.Fatalf("decoder %d empty payload: %v", i, err)
		}
		if err := decode([]byte{1, 0}); !errors.Is(err, errMalformed) {
			t.Fatalf("decoder %d truncated payload: %v", i, err)
		}
	}
	// A field length lying beyond its bound must be rejected, not
	// allocated.
	lying := []byte{1, 0xff, 0xff, 0xff, 0xff}
	if _, err := DecodeChannelOpen(lying); !errors.Is(err, errMalformed) {
		t.Fatalf("lying length: %v", err)
	}
	// Trailing garbage after a well-formed message.
	trailing := append((&MsgChannelUpdate{RecipientSig: []byte("s")}).Encode(), 0xcc)
	if _, err := DecodeChannelUpdate(trailing); !errors.Is(err, errMalformed) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

// TestChannelUnknownTypeTolerated proves channel-speaking and channel-less
// nodes coexist: a node with no channel handlers ignores every channel
// message type and keeps serving the types it knows.
func TestChannelUnknownTypeTolerated(t *testing.T) {
	tr := NewMemTransport()
	oldNode, err := NewNode(tr, "old", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer oldNode.Close()
	newNode, err := NewNode(tr, "new", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer newNode.Close()

	known := make(chan []byte, 4)
	Handle(oldNode, "block", raw, func(from string, payload []byte) { known <- payload })
	if err := newNode.Connect("old"); err != nil {
		t.Fatal(err)
	}

	newNode.SendTo("old", MsgTypeChannelOpen, (&MsgChannelOpen{RecipientPub: []byte("rc")}).Encode())
	newNode.SendTo("old", MsgTypeChannelUpdate, (&MsgChannelUpdate{ChanVersion: 1}).Encode())
	newNode.SendTo("old", MsgTypeChannelClose, (&MsgChannelClose{}).Encode())
	newNode.SendTo("old", "block", []byte("payload"))

	select {
	case payload := <-known:
		if string(payload) != "payload" {
			t.Fatalf("known message payload = %q", payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("known message never delivered after channel ones")
	}
}

// FuzzChannelMsgDecode drives every channel decoder with arbitrary bytes:
// none may panic, and every successful decode must re-encode to bytes the
// decoder accepts again (decode/encode/decode agreement).
func FuzzChannelMsgDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add((&MsgChannelOpen{RecipientPub: []byte("rc"), Capacity: 1, RefundWindow: 2}).Encode())
	f.Add((&MsgChannelAccept{RecipientPub: []byte("rc"), GatewayPub: []byte("gw"), Reason: "r"}).Encode())
	f.Add((&MsgChannelFund{ChannelID: [32]byte{1}, FundingTx: []byte{1, 2, 3}}).Encode())
	f.Add((&MsgChannelUpdate{ChanVersion: 3, RecipientSig: []byte("sig")}).Encode())
	f.Add((&MsgChannelUpdateAck{Key: []byte("key"), GatewaySig: []byte("sig")}).Encode())
	f.Add((&MsgChannelClose{Kind: ChannelCloseUnilateral}).Encode())
	// Hostile-field seeds: for every valid encoding also seed a version
	// flip, a mid-message length byte forced to 0xFF (lying interior
	// length prefixes), a truncation, and trailing garbage — adversarial
	// values the random mutator takes much longer to reach.
	for _, valid := range [][]byte{
		(&MsgChannelOpen{RecipientPub: []byte("rc"), Capacity: 1, RefundWindow: 2}).Encode(),
		(&MsgChannelAccept{RecipientPub: []byte("rc"), GatewayPub: []byte("gw"), Reason: "r"}).Encode(),
		(&MsgChannelFund{ChannelID: [32]byte{1}, FundingTx: []byte{1, 2, 3}}).Encode(),
		(&MsgChannelUpdate{ChanVersion: 3, RecipientSig: []byte("sig")}).Encode(),
		(&MsgChannelUpdateAck{Key: []byte("key"), GatewaySig: []byte("sig")}).Encode(),
		(&MsgChannelClose{Kind: ChannelCloseUnilateral}).Encode(),
	} {
		verFlip := append([]byte(nil), valid...)
		verFlip[0] ^= 0xFF
		f.Add(verFlip)
		lying := append([]byte(nil), valid...)
		lying[len(lying)/2] = 0xFF
		f.Add(lying)
		f.Add(valid[:len(valid)-1])
		f.Add(append(append([]byte(nil), valid...), 0xDE, 0xAD, 0xBE, 0xEF))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeChannelOpen(data); err == nil {
			if _, err := DecodeChannelOpen(m.Encode()); err != nil {
				t.Fatalf("re-decode open: %v", err)
			}
		}
		if m, err := DecodeChannelAccept(data); err == nil {
			if _, err := DecodeChannelAccept(m.Encode()); err != nil {
				t.Fatalf("re-decode accept: %v", err)
			}
		}
		if m, err := DecodeChannelFund(data); err == nil {
			if _, err := DecodeChannelFund(m.Encode()); err != nil {
				t.Fatalf("re-decode fund: %v", err)
			}
		}
		if m, err := DecodeChannelUpdate(data); err == nil {
			if _, err := DecodeChannelUpdate(m.Encode()); err != nil {
				t.Fatalf("re-decode update: %v", err)
			}
		}
		if m, err := DecodeChannelUpdateAck(data); err == nil {
			if _, err := DecodeChannelUpdateAck(m.Encode()); err != nil {
				t.Fatalf("re-decode updateack: %v", err)
			}
		}
		if m, err := DecodeChannelClose(data); err == nil {
			if _, err := DecodeChannelClose(m.Encode()); err != nil {
				t.Fatalf("re-decode close: %v", err)
			}
		}
	})
}
