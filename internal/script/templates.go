package script

import (
	"bytes"
	"errors"

	"bcwan/internal/bccrypto"
)

// Standard script templates used by the BcWAN blockchain, plus the paper's
// Listing 1 "Ephemeral Private Key Release Script".

// HashLen is the length of a HASH160 digest used in pay-to-pubkey-hash
// outputs.
const HashLen = bccrypto.Ripemd160Size

// ErrNotTemplate reports a script that does not match the queried
// template.
var ErrNotTemplate = errors.New("script: does not match template")

// Class identifies a recognized locking-script template.
type Class int

// Recognized locking script classes.
const (
	ClassUnknown Class = iota
	ClassP2PKH
	ClassOpReturn
	ClassKeyRelease
	ClassChannel
)

// String names the class for logs.
func (c Class) String() string {
	switch c {
	case ClassP2PKH:
		return "p2pkh"
	case ClassOpReturn:
		return "nulldata"
	case ClassKeyRelease:
		return "keyrelease"
	case ClassChannel:
		return "channel"
	default:
		return "unknown"
	}
}

// PayToPubKeyHash builds the standard locking script
// OP_DUP OP_HASH160 <pubKeyHash> OP_EQUALVERIFY OP_CHECKSIG.
func PayToPubKeyHash(pubKeyHash [HashLen]byte) Script {
	return NewBuilder().
		AddOp(OpDup).
		AddOp(OpHash160).
		AddData(pubKeyHash[:]).
		AddOp(OpEqualVerify).
		AddOp(OpCheckSig).
		Script()
}

// UnlockP2PKH builds the unlocking script <sig> <pubKey> for a P2PKH
// output.
func UnlockP2PKH(sig, pubKey []byte) Script {
	return NewBuilder().AddData(sig).AddData(pubKey).Script()
}

// NullData builds an unspendable OP_RETURN data-carrier output. BcWAN uses
// it to publish gateway IP bindings on-chain (§4.3/§5.1).
func NullData(data []byte) Script {
	return NewBuilder().AddOp(OpReturn).AddData(data).Script()
}

// ExtractNullData returns the payload of an OP_RETURN output.
func ExtractNullData(s Script) ([]byte, error) {
	instrs, err := Parse(s)
	if err != nil {
		return nil, err
	}
	if len(instrs) != 2 || instrs[0].Op != OpReturn {
		return nil, ErrNotTemplate
	}
	return instrs[1].Data, nil
}

// KeyReleaseParams carries the fields of the Listing 1 script.
type KeyReleaseParams struct {
	// RSAPubKey is the gateway's ephemeral RSA-512 public key (ePk),
	// serialized with bccrypto.MarshalRSA512PublicKey.
	RSAPubKey []byte
	// GatewayPubKeyHash receives the payment when the matching private
	// key is revealed (<pubKeyHash> in Listing 1).
	GatewayPubKeyHash [HashLen]byte
	// RefundHeight is the absolute block height after which the buyer
	// may reclaim the funds (<block_height+100> in Listing 1).
	RefundHeight int64
	// BuyerPubKeyHash is the refund destination (<buyerPubkeyHash>).
	BuyerPubKeyHash [HashLen]byte
}

// KeyRelease builds the paper's Listing 1 locking script:
//
//	<rsaPubKey>
//	OP_CHECKRSA512PAIR
//	OP_IF
//	    OP_DUP OP_HASH160 <pubKeyHash> OP_EQUALVERIFY
//	OP_ELSE
//	    <block_height+100> OP_CHECKLOCKTIMEVERIFY OP_VERIFY
//	    OP_DUP OP_HASH160 <buyerPubkeyHash> OP_EQUALVERIFY
//	OP_ENDIF
//	OP_CHECKSIG
//
// The output is spendable either by the gateway — by revealing the
// ephemeral private key eSk matching ePk — or by the buyer after the
// refund height, solving the fair exchange of §4.4.
func KeyRelease(p KeyReleaseParams) Script {
	return NewBuilder().
		AddData(p.RSAPubKey).
		AddOp(OpCheckRSA512Pair).
		AddOp(OpIf).
		AddOp(OpDup).
		AddOp(OpHash160).
		AddData(p.GatewayPubKeyHash[:]).
		AddOp(OpEqualVerify).
		AddOp(OpElse).
		AddInt64(p.RefundHeight).
		AddOp(OpCheckLockTime).
		AddOp(OpVerify).
		AddOp(OpDup).
		AddOp(OpHash160).
		AddData(p.BuyerPubKeyHash[:]).
		AddOp(OpEqualVerify).
		AddOp(OpEndIf).
		AddOp(OpCheckSig).
		Script()
}

// UnlockKeyReleaseClaim builds the gateway's unlocking script for the
// claim path: <sig> <pubKey> <rsaPrivKey>. Publishing this transaction
// reveals eSk on-chain — the disclosure the recipient pays for (Fig. 3
// step 10).
func UnlockKeyReleaseClaim(sig, pubKey, rsaPrivKey []byte) Script {
	return NewBuilder().AddData(sig).AddData(pubKey).AddData(rsaPrivKey).Script()
}

// UnlockKeyReleaseRefund builds the unlocking script for the refund path
// of a key-release or channel output after its lock time: <sig> <pubKey>
// OP_FALSE. The OP_FALSE fails the pair check (or selects the channel
// lock's OP_ELSE), steering evaluation into the refund branch.
func UnlockKeyReleaseRefund(sig, pubKey []byte) Script {
	return NewBuilder().AddData(sig).AddData(pubKey).AddOp(OpFalse).Script()
}

// Classify recognizes the locking-script template, if any.
func Classify(s Script) Class {
	if isCanonicalP2PKH(s) {
		return ClassP2PKH
	}
	instrs, err := Parse(s)
	if err != nil {
		return ClassUnknown
	}
	switch {
	case isP2PKH(instrs):
		return ClassP2PKH
	case len(instrs) == 2 && instrs[0].Op == OpReturn:
		return ClassOpReturn
	case isKeyRelease(instrs):
		return ClassKeyRelease
	case isChannel(instrs):
		return ClassChannel
	default:
		return ClassUnknown
	}
}

// isCanonicalP2PKH recognises, byte for byte and without parsing, the
// encoding PayToPubKeyHash emits: the UTXO set classifies every output
// it creates and spends, and nearly all of them are this. Any other
// spelling of the template takes the parser and isP2PKH.
func isCanonicalP2PKH(s Script) bool {
	return len(s) == 5+HashLen && s[0] == byte(OpDup) && s[1] == byte(OpHash160) && s[2] == HashLen &&
		s[3+HashLen] == byte(OpEqualVerify) && s[4+HashLen] == byte(OpCheckSig)
}

func isP2PKH(instrs []Instruction) bool {
	return len(instrs) == 5 &&
		instrs[0].Op == OpDup &&
		instrs[1].Op == OpHash160 &&
		len(instrs[2].Data) == HashLen &&
		instrs[3].Op == OpEqualVerify &&
		instrs[4].Op == OpCheckSig
}

func isKeyRelease(instrs []Instruction) bool {
	if len(instrs) != 17 {
		return false
	}
	ops := []Opcode{
		0, OpCheckRSA512Pair, OpIf, OpDup, OpHash160, 0, OpEqualVerify,
		OpElse, 0, OpCheckLockTime, OpVerify, OpDup, OpHash160, 0,
		OpEqualVerify, OpEndIf, OpCheckSig,
	}
	for i, want := range ops {
		if want == 0 {
			continue // data push slot
		}
		if instrs[i].Op != want {
			return false
		}
	}
	return len(instrs[5].Data) == HashLen && len(instrs[13].Data) == HashLen
}

// ParseKeyRelease extracts the parameters of a Listing 1 script.
func ParseKeyRelease(s Script) (KeyReleaseParams, error) {
	instrs, err := Parse(s)
	if err != nil {
		return KeyReleaseParams{}, err
	}
	if !isKeyRelease(instrs) {
		return KeyReleaseParams{}, ErrNotTemplate
	}
	var p KeyReleaseParams
	p.RSAPubKey = append([]byte(nil), instrs[0].Data...)
	copy(p.GatewayPubKeyHash[:], instrs[5].Data)
	copy(p.BuyerPubKeyHash[:], instrs[13].Data)
	height, err := instructionNum(instrs[8])
	if err != nil {
		return KeyReleaseParams{}, err
	}
	p.RefundHeight = height
	return p, nil
}

// ExtractClaimedRSAKey returns the RSA private key bytes revealed by a
// claim-path unlocking script. This is how the recipient learns eSk once
// the gateway's claim transaction appears in the chain.
func ExtractClaimedRSAKey(unlock Script) ([]byte, error) {
	instrs, err := Parse(unlock)
	if err != nil {
		return nil, err
	}
	if len(instrs) != 3 {
		return nil, ErrNotTemplate
	}
	key := instrs[2].Data
	if len(key) != 8+2*bccrypto.RSA512ModulusLen {
		return nil, ErrNotTemplate
	}
	return append([]byte(nil), key...), nil
}

// ExtractP2PKHHash returns the public key hash of a P2PKH locking script.
func ExtractP2PKHHash(s Script) ([HashLen]byte, error) {
	var out [HashLen]byte
	if isCanonicalP2PKH(s) {
		copy(out[:], s[3:])
		return out, nil
	}
	instrs, err := Parse(s)
	if err != nil {
		return out, err
	}
	if !isP2PKH(instrs) {
		return out, ErrNotTemplate
	}
	copy(out[:], instrs[2].Data)
	return out, nil
}

// instructionNum decodes a number from either a small-int opcode or a data
// push.
func instructionNum(in Instruction) (int64, error) {
	if v, ok := in.Op.smallIntValue(); ok {
		return v, nil
	}
	return decodeNum(in.Data, maxNumLen)
}

// Equal reports whether two scripts are byte-identical.
func Equal(a, b Script) bool { return bytes.Equal(a, b) }
