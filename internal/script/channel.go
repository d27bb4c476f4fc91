package script

// Payment-channel locking script. A recipient (the funder) locks channel
// capacity into an output that is spendable either

//   - cooperatively/by commitment: with signatures from BOTH the gateway
//     and the recipient (the 2-of-2 path used by commitment and close
//     transactions), or
//   - by refund: with the funder's signature alone once the spending
//     transaction's lock time reaches the refund height (CLTV path),
//     reclaiming an abandoned channel.
//
// The engine has no OP_CHECKMULTISIG, so the 2-of-2 is spelled out with
// OP_CHECKSIGVERIFY + OP_CHECKSIG inside the OP_IF branch; the unlocking
// script selects the branch with a trailing OP_TRUE/OP_FALSE push.

// ChannelParams carries the fields of the channel funding script.
type ChannelParams struct {
	// GatewayPubKey is the payee's EC public key (serialized with
	// bccrypto ECKey.PublicBytes).
	GatewayPubKey []byte
	// RecipientPubKey is the funder/payer's EC public key.
	RecipientPubKey []byte
	// RefundHeight is the absolute block height at which the funder may
	// unilaterally reclaim the capacity. A spending transaction with
	// LockTime >= RefundHeight satisfies the CLTV check.
	RefundHeight int64
	// FunderPubKeyHash is the refund destination (the recipient).
	FunderPubKeyHash [HashLen]byte
}

// Channel builds the channel funding locking script:
//
//	OP_IF
//	    <gatewayPubKey> OP_CHECKSIGVERIFY <recipientPubKey> OP_CHECKSIG
//	OP_ELSE
//	    <refundHeight> OP_CHECKLOCKTIMEVERIFY OP_VERIFY
//	    OP_DUP OP_HASH160 <funderPubKeyHash> OP_EQUALVERIFY OP_CHECKSIG
//	OP_ENDIF
func Channel(p ChannelParams) Script {
	return NewBuilder().
		AddOp(OpIf).
		AddData(p.GatewayPubKey).
		AddOp(OpCheckSigVerify).
		AddData(p.RecipientPubKey).
		AddOp(OpCheckSig).
		AddOp(OpElse).
		AddInt64(p.RefundHeight).
		AddOp(OpCheckLockTime).
		AddOp(OpVerify).
		AddOp(OpDup).
		AddOp(OpHash160).
		AddData(p.FunderPubKeyHash[:]).
		AddOp(OpEqualVerify).
		AddOp(OpCheckSig).
		AddOp(OpEndIf).
		Script()
}

// UnlockChannelClose builds the 2-of-2 unlocking script for commitment and
// cooperative-close transactions: <recipientSig> <gatewaySig> OP_TRUE. Both
// signatures commit to the same digest (the spending transaction signed
// against the funding script).
func UnlockChannelClose(recipientSig, gatewaySig []byte) Script {
	return NewBuilder().
		AddData(recipientSig).
		AddData(gatewaySig).
		AddOp(OpTrue).
		Script()
}

// channelOps is the channel script's opcode sequence; 0 marks a data
// push slot.
var channelOps = [...]Opcode{
	OpIf, 0, OpCheckSigVerify, 0, OpCheckSig,
	OpElse, 0, OpCheckLockTime, OpVerify,
	OpDup, OpHash160, 0, OpEqualVerify, OpCheckSig, OpEndIf,
}

func isChannel(instrs []Instruction) bool {
	if len(instrs) != len(channelOps) {
		return false
	}
	for i, want := range channelOps {
		if want == 0 {
			continue // data push slot
		}
		if instrs[i].Op != want {
			return false
		}
	}
	return len(instrs[11].Data) == HashLen &&
		len(instrs[1].Data) > 0 && len(instrs[3].Data) > 0
}

// ParseChannel extracts the parameters of a channel funding script.
func ParseChannel(s Script) (ChannelParams, error) {
	var buf [len(channelOps)]Instruction
	instrs, err := decode(buf[:0], s, len(buf))
	if err != nil {
		return ChannelParams{}, err
	}
	if !isChannel(instrs) {
		return ChannelParams{}, ErrNotTemplate
	}
	var p ChannelParams
	p.GatewayPubKey = append([]byte(nil), instrs[1].Data...)
	p.RecipientPubKey = append([]byte(nil), instrs[3].Data...)
	copy(p.FunderPubKeyHash[:], instrs[11].Data)
	height, err := instructionNum(instrs[6])
	if err != nil {
		return ChannelParams{}, err
	}
	p.RefundHeight = height
	return p, nil
}
