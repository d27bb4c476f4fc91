package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Typed payment-channel messages. The channel control plane (open /
// accept / fund / update / ack / close) rides the p2p overlay as
// point-to-point direct messages, following the sync-message conventions:
// a version byte leads every encoding, decoders reject unknown versions
// and bound every variable-length field, and unknown message *types* are
// simply ignored by nodes without a handler — channel-speaking and
// channel-less nodes coexist on one mesh.

// Channel message type names, registered with Node.Handle.
const (
	MsgTypeChannelOpen      = "chanopen"
	MsgTypeChannelAccept    = "chanaccept"
	MsgTypeChannelFund      = "chanfund"
	MsgTypeChannelUpdate    = "chanupdate"
	MsgTypeChannelUpdateAck = "chanupdateack"
	MsgTypeChannelClose     = "chanclose"
)

// channelMsgVersion is the encoding version this build speaks.
const channelMsgVersion = 1

// Bounds on untrusted decode inputs.
const (
	maxChanPubKeyBytes  = 256
	maxChanSigBytes     = 256
	maxChanKeyBytes     = 1024
	maxChanReasonBytes  = 256
	maxChanFundingBytes = 1 << 20
)

// ErrBadChannelMsg reports an undecodable or unsupported channel message.
var ErrBadChannelMsg = errors.New("p2p: malformed channel message")

// Channel close kinds, carried by MsgChannelClose.
const (
	ChannelCloseCooperative uint8 = iota
	ChannelCloseUnilateral
)

// Channel update ack statuses.
const (
	ChannelAckOK uint8 = iota
	ChannelAckRejected
)

// MsgChannelOpen is the payer's opening request: its public key plus the
// capacity and refund window it proposes.
type MsgChannelOpen struct {
	Version      uint8
	RecipientPub []byte
	Capacity     uint64
	RefundWindow int64
}

// MsgChannelAccept is the payee's answer, echoing the payer key and
// naming the gateway public key the funding script must pay.
type MsgChannelAccept struct {
	Version      uint8
	RecipientPub []byte
	GatewayPub   []byte
	OK           uint8
	Reason       string
}

// MsgChannelFund delivers the funding transaction and the channel terms
// the payer committed to.
type MsgChannelFund struct {
	Version      uint8
	ChannelID    [32]byte
	RefundHeight int64
	CloseFee     uint64
	FundingTx    []byte
}

// MsgChannelUpdate is one off-chain payment: the payer's signature over
// commitment (ChanVersion, Paid), tagged with the exchange it settles.
type MsgChannelUpdate struct {
	Version      uint8
	ChannelID    [32]byte
	ChanVersion  uint64
	Paid         uint64
	DevEUI       [8]byte
	Exchange     uint32
	RecipientSig []byte
}

// MsgChannelUpdateAck carries the payee's countersignature and — the
// point of the whole exchange — the disclosed ephemeral RSA private key.
type MsgChannelUpdateAck struct {
	Version     uint8
	ChannelID   [32]byte
	ChanVersion uint64
	DevEUI      [8]byte
	Exchange    uint32
	Status      uint8
	Reason      string
	Key         []byte
	GatewaySig  []byte
}

// MsgChannelClose asks the remote endpoint to settle the channel on-chain.
type MsgChannelClose struct {
	Version   uint8
	ChannelID [32]byte
	Kind      uint8
}

func appendChanBytes(out, b []byte) []byte {
	out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
	return append(out, b...)
}

func readChanBytes(rest []byte, bound int, what string) ([]byte, []byte, error) {
	if len(rest) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated %s length", ErrBadChannelMsg, what)
	}
	n := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if n > bound || len(rest) < n {
		return nil, nil, fmt.Errorf("%w: %s of %d bytes", ErrBadChannelMsg, what, n)
	}
	return rest[:n:n], rest[n:], nil
}

func checkChannelVersion(payload []byte) error {
	if len(payload) < 1 {
		return fmt.Errorf("%w: empty", ErrBadChannelMsg)
	}
	if payload[0] != channelMsgVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadChannelMsg, payload[0])
	}
	return nil
}

func (m *MsgChannelOpen) Encode() []byte {
	out := make([]byte, 0, 1+4+len(m.RecipientPub)+8+8)
	out = append(out, channelMsgVersion)
	out = appendChanBytes(out, m.RecipientPub)
	out = binary.BigEndian.AppendUint64(out, m.Capacity)
	return binary.BigEndian.AppendUint64(out, uint64(m.RefundWindow))
}

func DecodeChannelOpen(payload []byte) (*MsgChannelOpen, error) {
	if err := checkChannelVersion(payload); err != nil {
		return nil, err
	}
	m := &MsgChannelOpen{Version: payload[0]}
	pub, rest, err := readChanBytes(payload[1:], maxChanPubKeyBytes, "pubkey")
	if err != nil {
		return nil, err
	}
	m.RecipientPub = pub
	if len(rest) != 16 {
		return nil, fmt.Errorf("%w: chanopen tail %d bytes", ErrBadChannelMsg, len(rest))
	}
	m.Capacity = binary.BigEndian.Uint64(rest)
	m.RefundWindow = int64(binary.BigEndian.Uint64(rest[8:]))
	return m, nil
}

func (m *MsgChannelAccept) Encode() []byte {
	out := make([]byte, 0, 1+4+len(m.RecipientPub)+4+len(m.GatewayPub)+1+4+len(m.Reason))
	out = append(out, channelMsgVersion)
	out = appendChanBytes(out, m.RecipientPub)
	out = appendChanBytes(out, m.GatewayPub)
	out = append(out, m.OK)
	return appendChanBytes(out, []byte(m.Reason))
}

func DecodeChannelAccept(payload []byte) (*MsgChannelAccept, error) {
	if err := checkChannelVersion(payload); err != nil {
		return nil, err
	}
	m := &MsgChannelAccept{Version: payload[0]}
	rcPub, rest, err := readChanBytes(payload[1:], maxChanPubKeyBytes, "recipient pubkey")
	if err != nil {
		return nil, err
	}
	gwPub, rest, err := readChanBytes(rest, maxChanPubKeyBytes, "gateway pubkey")
	if err != nil {
		return nil, err
	}
	if len(rest) < 1 {
		return nil, fmt.Errorf("%w: truncated chanaccept status", ErrBadChannelMsg)
	}
	m.RecipientPub, m.GatewayPub, m.OK = rcPub, gwPub, rest[0]
	reason, rest, err := readChanBytes(rest[1:], maxChanReasonBytes, "reason")
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadChannelMsg, len(rest))
	}
	m.Reason = string(reason)
	return m, nil
}

func (m *MsgChannelFund) Encode() []byte {
	out := make([]byte, 0, 1+32+8+8+4+len(m.FundingTx))
	out = append(out, channelMsgVersion)
	out = append(out, m.ChannelID[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(m.RefundHeight))
	out = binary.BigEndian.AppendUint64(out, m.CloseFee)
	return appendChanBytes(out, m.FundingTx)
}

func DecodeChannelFund(payload []byte) (*MsgChannelFund, error) {
	if err := checkChannelVersion(payload); err != nil {
		return nil, err
	}
	rest := payload[1:]
	if len(rest) < 32+8+8 {
		return nil, fmt.Errorf("%w: truncated chanfund", ErrBadChannelMsg)
	}
	m := &MsgChannelFund{Version: payload[0]}
	copy(m.ChannelID[:], rest)
	m.RefundHeight = int64(binary.BigEndian.Uint64(rest[32:]))
	m.CloseFee = binary.BigEndian.Uint64(rest[40:])
	tx, rest, err := readChanBytes(rest[48:], maxChanFundingBytes, "funding tx")
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadChannelMsg, len(rest))
	}
	m.FundingTx = tx
	return m, nil
}

func (m *MsgChannelUpdate) Encode() []byte {
	out := make([]byte, 0, 1+32+8+8+8+4+4+len(m.RecipientSig))
	out = append(out, channelMsgVersion)
	out = append(out, m.ChannelID[:]...)
	out = binary.BigEndian.AppendUint64(out, m.ChanVersion)
	out = binary.BigEndian.AppendUint64(out, m.Paid)
	out = append(out, m.DevEUI[:]...)
	out = binary.BigEndian.AppendUint32(out, m.Exchange)
	return appendChanBytes(out, m.RecipientSig)
}

func DecodeChannelUpdate(payload []byte) (*MsgChannelUpdate, error) {
	if err := checkChannelVersion(payload); err != nil {
		return nil, err
	}
	rest := payload[1:]
	if len(rest) < 32+8+8+8+4 {
		return nil, fmt.Errorf("%w: truncated chanupdate", ErrBadChannelMsg)
	}
	m := &MsgChannelUpdate{Version: payload[0]}
	copy(m.ChannelID[:], rest)
	m.ChanVersion = binary.BigEndian.Uint64(rest[32:])
	m.Paid = binary.BigEndian.Uint64(rest[40:])
	copy(m.DevEUI[:], rest[48:])
	m.Exchange = binary.BigEndian.Uint32(rest[56:])
	sig, rest, err := readChanBytes(rest[60:], maxChanSigBytes, "signature")
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadChannelMsg, len(rest))
	}
	m.RecipientSig = sig
	return m, nil
}

func (m *MsgChannelUpdateAck) Encode() []byte {
	out := make([]byte, 0, 1+32+8+8+4+1+4+len(m.Reason)+4+len(m.Key)+4+len(m.GatewaySig))
	out = append(out, channelMsgVersion)
	out = append(out, m.ChannelID[:]...)
	out = binary.BigEndian.AppendUint64(out, m.ChanVersion)
	out = append(out, m.DevEUI[:]...)
	out = binary.BigEndian.AppendUint32(out, m.Exchange)
	out = append(out, m.Status)
	out = appendChanBytes(out, []byte(m.Reason))
	out = appendChanBytes(out, m.Key)
	return appendChanBytes(out, m.GatewaySig)
}

func DecodeChannelUpdateAck(payload []byte) (*MsgChannelUpdateAck, error) {
	if err := checkChannelVersion(payload); err != nil {
		return nil, err
	}
	rest := payload[1:]
	if len(rest) < 32+8+8+4+1 {
		return nil, fmt.Errorf("%w: truncated chanupdateack", ErrBadChannelMsg)
	}
	m := &MsgChannelUpdateAck{Version: payload[0]}
	copy(m.ChannelID[:], rest)
	m.ChanVersion = binary.BigEndian.Uint64(rest[32:])
	copy(m.DevEUI[:], rest[40:])
	m.Exchange = binary.BigEndian.Uint32(rest[48:])
	m.Status = rest[52]
	reason, rest, err := readChanBytes(rest[53:], maxChanReasonBytes, "reason")
	if err != nil {
		return nil, err
	}
	key, rest, err := readChanBytes(rest, maxChanKeyBytes, "key")
	if err != nil {
		return nil, err
	}
	sig, rest, err := readChanBytes(rest, maxChanSigBytes, "signature")
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadChannelMsg, len(rest))
	}
	m.Reason, m.Key, m.GatewaySig = string(reason), key, sig
	return m, nil
}

func (m *MsgChannelClose) Encode() []byte {
	out := make([]byte, 0, 1+32+1)
	out = append(out, channelMsgVersion)
	out = append(out, m.ChannelID[:]...)
	return append(out, m.Kind)
}

func DecodeChannelClose(payload []byte) (*MsgChannelClose, error) {
	if err := checkChannelVersion(payload); err != nil {
		return nil, err
	}
	if len(payload) != 1+32+1 {
		return nil, fmt.Errorf("%w: chanclose length %d", ErrBadChannelMsg, len(payload))
	}
	m := &MsgChannelClose{Version: payload[0]}
	copy(m.ChannelID[:], payload[1:])
	m.Kind = payload[33]
	return m, nil
}
