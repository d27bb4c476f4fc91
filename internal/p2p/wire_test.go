package p2p

import (
	"encoding/hex"
	"testing"
)

// TestWireEncodingsPinned holds one instance of each sync and channel
// message to the bytes its encoder wrote before the shared Writer
// existed, and decodes each back to the same bytes: those encodings must
// not drift, or nodes of different builds stop understanding each other.
func TestWireEncodingsPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		enc    []byte
		decode func([]byte) ([]byte, error)
		hex    string
	}{
		{"getheaders", (&MsgGetHeaders{Locator: [][32]byte{{1, 2}, {0xff}}, Max: 2000}).Encode(),
			reencode(DecodeGetHeaders),
			"0100020102000000000000000000000000000000000000000000000000000000000000ff00000000000000000000000000000000000000000000000000000000000000000007d0"},
		{"headers", (&MsgHeaders{Headers: [][]byte{{0xaa, 0xbb}, {}, {0xcc}}}).Encode(),
			reencode(DecodeHeaders),
			"010000000300000002aabb0000000000000001cc"},
		{"getsnapshot", (&MsgGetSnapshot{Height: 1024, Chunk: -1}).Encode(),
			reencode(DecodeGetSnapshot),
			"010000000000000400ffffffff"},
		{"snapshotchunk", (&MsgSnapshotChunk{Height: -1, Chunk: 3, Total: 17, Manifest: []byte("mf"), Payload: []byte("data")}).Encode(),
			reencode(DecodeSnapshotChunk),
			"01ffffffffffffffff0000000300000011000000026d660000000464617461"},
		{"chanopen", (&MsgChannelOpen{RecipientPub: []byte("rc-pub"), Capacity: 10_000, RefundWindow: -144}).Encode(),
			reencode(DecodeChannelOpen),
			"010000000672632d7075620000000000002710ffffffffffffff70"},
		{"chanaccept", (&MsgChannelAccept{RecipientPub: []byte("rc"), GatewayPub: []byte("gw"), OK: ChannelAckRejected, Reason: "no"}).Encode(),
			reencode(DecodeChannelAccept),
			"0100000002726300000002677701000000026e6f"},
		{"chanfund", (&MsgChannelFund{ChannelID: [32]byte{9, 9}, RefundHeight: 512, CloseFee: 5, FundingTx: []byte{0xfe, 0xed}}).Encode(),
			reencode(DecodeChannelFund),
			"0109090000000000000000000000000000000000000000000000000000000000000000000000000200000000000000000500000002feed"},
		{"chanupdate", (&MsgChannelUpdate{ChannelID: [32]byte{1}, ChanVersion: 42, Paid: 4200, DevEUI: [8]byte{0xde, 0xca}, Exchange: 7, RecipientSig: []byte("sig")}).Encode(),
			reencode(DecodeChannelUpdate),
			"010100000000000000000000000000000000000000000000000000000000000000000000000000002a0000000000001068deca0000000000000000000700000003736967"},
		{"chanupdateack", (&MsgChannelUpdateAck{ChannelID: [32]byte{2}, ChanVersion: 42, DevEUI: [8]byte{1}, Exchange: 7, Status: ChannelAckOK, Reason: "r", Key: []byte("key"), GatewaySig: []byte("gwsig")}).Encode(),
			reencode(DecodeChannelUpdateAck),
			"010200000000000000000000000000000000000000000000000000000000000000000000000000002a010000000000000000000007000000000172000000036b6579000000056777736967"},
		{"chanclose", (&MsgChannelClose{ChannelID: [32]byte{0xaa}, Kind: ChannelCloseUnilateral}).Encode(),
			reencode(DecodeChannelClose),
			"01aa0000000000000000000000000000000000000000000000000000000000000001"},
	} {
		if got := hex.EncodeToString(c.enc); got != c.hex {
			t.Errorf("%s encodes to %s, want %s", c.name, got, c.hex)
			continue
		}
		again, err := c.decode(c.enc)
		if err != nil || hex.EncodeToString(again) != c.hex {
			t.Errorf("%s decodes and re-encodes to %x (%v), want %s", c.name, again, err, c.hex)
		}
	}
}

// reencode turns a decoder into one that re-encodes what it decoded.
func reencode[M interface{ Encode() []byte }](decode func([]byte) (M, error)) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) {
		m, err := decode(b)
		if err != nil {
			return nil, err
		}
		return m.Encode(), nil
	}
}
