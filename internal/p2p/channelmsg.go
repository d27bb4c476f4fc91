package p2p

// Typed payment-channel messages. The channel control plane (open /
// accept / fund / update / ack / close) rides the p2p overlay as
// point-to-point direct messages in the shared wire format (wire.go),
// and unknown message *types* are simply ignored by nodes without a
// handler — channel-speaking and channel-less nodes coexist on one mesh.

// Channel message type names, registered with Handle.
const (
	MsgTypeChannelOpen      = "chanopen"
	MsgTypeChannelAccept    = "chanaccept"
	MsgTypeChannelFund      = "chanfund"
	MsgTypeChannelUpdate    = "chanupdate"
	MsgTypeChannelUpdateAck = "chanupdateack"
	MsgTypeChannelClose     = "chanclose"
)

// Bounds on untrusted decode inputs.
const (
	maxChanPubKeyBytes  = 256
	maxChanSigBytes     = 256
	maxChanKeyBytes     = 1024
	maxChanReasonBytes  = 256
	maxChanFundingBytes = 1 << 20
)

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
	RecipientPub []byte
	Capacity     uint64
	RefundWindow int64
}

// MsgChannelAccept is the payee's answer, echoing the payer key and
// naming the gateway public key the funding script must pay.
type MsgChannelAccept struct {
	RecipientPub []byte
	GatewayPub   []byte
	OK           uint8
	Reason       string
}

// MsgChannelFund delivers the funding transaction and the channel terms
// the payer committed to.
type MsgChannelFund struct {
	ChannelID    [32]byte
	RefundHeight int64
	CloseFee     uint64
	FundingTx    []byte
}

// MsgChannelUpdate is one off-chain payment: the payer's signature over
// commitment (ChanVersion, Paid), tagged with the exchange it settles.
type MsgChannelUpdate struct {
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
	ChannelID [32]byte
	Kind      uint8
}

func (m *MsgChannelOpen) Encode() []byte {
	w := NewWriter(1 + 4 + len(m.RecipientPub) + 8 + 8)
	w.Bytes(m.RecipientPub)
	w.Uint64(m.Capacity)
	w.Uint64(uint64(m.RefundWindow))
	return w.Payload()
}

func DecodeChannelOpen(payload []byte) (*MsgChannelOpen, error) {
	r := NewReader(payload)
	m := &MsgChannelOpen{RecipientPub: r.Bytes(maxChanPubKeyBytes), Capacity: r.Uint64(), RefundWindow: int64(r.Uint64())}
	return m, r.Done()
}

func (m *MsgChannelAccept) Encode() []byte {
	w := NewWriter(1 + 4 + len(m.RecipientPub) + 4 + len(m.GatewayPub) + 1 + 4 + len(m.Reason))
	w.Bytes(m.RecipientPub)
	w.Bytes(m.GatewayPub)
	w.Byte(m.OK)
	w.Bytes([]byte(m.Reason))
	return w.Payload()
}

func DecodeChannelAccept(payload []byte) (*MsgChannelAccept, error) {
	r := NewReader(payload)
	m := &MsgChannelAccept{RecipientPub: r.Bytes(maxChanPubKeyBytes), GatewayPub: r.Bytes(maxChanPubKeyBytes), OK: r.Byte()}
	m.Reason = string(r.Bytes(maxChanReasonBytes))
	return m, r.Done()
}

func (m *MsgChannelFund) Encode() []byte {
	w := NewWriter(1 + 32 + 8 + 8 + 4 + len(m.FundingTx))
	w.Fixed(m.ChannelID[:])
	w.Uint64(uint64(m.RefundHeight))
	w.Uint64(m.CloseFee)
	w.Bytes(m.FundingTx)
	return w.Payload()
}

func DecodeChannelFund(payload []byte) (*MsgChannelFund, error) {
	r := NewReader(payload)
	m := new(MsgChannelFund)
	r.Fixed(m.ChannelID[:])
	m.RefundHeight = int64(r.Uint64())
	m.CloseFee = r.Uint64()
	m.FundingTx = r.Bytes(maxChanFundingBytes)
	return m, r.Done()
}

func (m *MsgChannelUpdate) Encode() []byte {
	w := NewWriter(1 + 32 + 8 + 8 + 8 + 4 + 4 + len(m.RecipientSig))
	w.Fixed(m.ChannelID[:])
	w.Uint64(m.ChanVersion)
	w.Uint64(m.Paid)
	w.Fixed(m.DevEUI[:])
	w.Uint32(m.Exchange)
	w.Bytes(m.RecipientSig)
	return w.Payload()
}

func DecodeChannelUpdate(payload []byte) (*MsgChannelUpdate, error) {
	r := NewReader(payload)
	m := new(MsgChannelUpdate)
	r.Fixed(m.ChannelID[:])
	m.ChanVersion = r.Uint64()
	m.Paid = r.Uint64()
	r.Fixed(m.DevEUI[:])
	m.Exchange = r.Uint32()
	m.RecipientSig = r.Bytes(maxChanSigBytes)
	return m, r.Done()
}

func (m *MsgChannelUpdateAck) Encode() []byte {
	w := NewWriter(1 + 32 + 8 + 8 + 4 + 1 + 4 + len(m.Reason) + 4 + len(m.Key) + 4 + len(m.GatewaySig))
	w.Fixed(m.ChannelID[:])
	w.Uint64(m.ChanVersion)
	w.Fixed(m.DevEUI[:])
	w.Uint32(m.Exchange)
	w.Byte(m.Status)
	w.Bytes([]byte(m.Reason))
	w.Bytes(m.Key)
	w.Bytes(m.GatewaySig)
	return w.Payload()
}

func DecodeChannelUpdateAck(payload []byte) (*MsgChannelUpdateAck, error) {
	r := NewReader(payload)
	m := new(MsgChannelUpdateAck)
	r.Fixed(m.ChannelID[:])
	m.ChanVersion = r.Uint64()
	r.Fixed(m.DevEUI[:])
	m.Exchange = r.Uint32()
	m.Status = r.Byte()
	m.Reason = string(r.Bytes(maxChanReasonBytes))
	m.Key = r.Bytes(maxChanKeyBytes)
	m.GatewaySig = r.Bytes(maxChanSigBytes)
	return m, r.Done()
}

func (m *MsgChannelClose) Encode() []byte {
	w := NewWriter(1 + 32 + 1)
	w.Fixed(m.ChannelID[:])
	w.Byte(m.Kind)
	return w.Payload()
}

func DecodeChannelClose(payload []byte) (*MsgChannelClose, error) {
	r := NewReader(payload)
	m := new(MsgChannelClose)
	r.Fixed(m.ChannelID[:])
	m.Kind = r.Byte()
	return m, r.Done()
}
