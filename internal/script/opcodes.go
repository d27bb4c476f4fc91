// Package script implements the blockchain's non-Turing-complete,
// stack-based transaction scripting language (§2 of the paper), modeled on
// Bitcoin script as shipped in Multichain. It provides the operators used
// by BcWAN — including the paper's custom OP_CHECKRSA512PAIR, which pays a
// gateway for disclosing the ephemeral RSA-512 private key matching the
// public key embedded in the payment transaction (Listing 1).
package script

import (
	"fmt"
	"strconv"
)

// Opcode is a single script instruction byte.
type Opcode byte

// Push opcodes. Byte values 0x01–0x4b push that many following bytes.
const (
	// OpFalse pushes the empty array (false).
	OpFalse Opcode = 0x00
	// OpPushData1: the next byte is the length of data to push.
	OpPushData1 Opcode = 0x4c
	// OpPushData2: the next two bytes (little-endian) are the length.
	OpPushData2 Opcode = 0x4d
	// Op1Negate pushes -1.
	Op1Negate Opcode = 0x4f
	// OpTrue (a.k.a. OP_1) pushes 1. Op2..Op16 push 2..16.
	OpTrue Opcode = 0x51
	Op16   Opcode = 0x60

	maxDirectPush = 0x4b
)

// Flow control.
const (
	OpNop    Opcode = 0x61
	OpIf     Opcode = 0x63
	OpNotIf  Opcode = 0x64
	OpElse   Opcode = 0x67
	OpEndIf  Opcode = 0x68
	OpVerify Opcode = 0x69
	OpReturn Opcode = 0x6a
)

// Stack manipulation.
const (
	OpDrop  Opcode = 0x75
	OpDup   Opcode = 0x76
	OpNip   Opcode = 0x77
	OpOver  Opcode = 0x78
	OpSwap  Opcode = 0x7c
	OpSize  Opcode = 0x82
	OpDepth Opcode = 0x74
)

// Comparison and logic.
const (
	OpEqual       Opcode = 0x87
	OpEqualVerify Opcode = 0x88
	OpNot         Opcode = 0x91
	OpBoolAnd     Opcode = 0x9a
	OpBoolOr      Opcode = 0x9b
)

// Arithmetic (script numbers, see num.go).
const (
	OpAdd                Opcode = 0x93
	OpSub                Opcode = 0x94
	OpLessThan           Opcode = 0x9f
	OpGreaterThan        Opcode = 0xa0
	OpLessThanOrEqual    Opcode = 0xa1
	OpGreaterThanOrEqual Opcode = 0xa2
	OpMin                Opcode = 0xa3
	OpMax                Opcode = 0xa4
)

// Crypto.
const (
	OpSHA256         Opcode = 0xa8
	OpHash160        Opcode = 0xa9
	OpHash256        Opcode = 0xaa
	OpCheckSig       Opcode = 0xac
	OpCheckSigVerify Opcode = 0xad
	OpCheckLockTime  Opcode = 0xb1 // OP_CHECKLOCKTIMEVERIFY (BIP-65)
	// OpCheckRSA512Pair is the paper's custom operator: pops an RSA-512
	// public key then a candidate private key and pushes whether
	// bccrypto.MatchesPublic accepts them — the same N and e, and one
	// probe, 2^(e·D) ≡ 2 (mod N). Multichain implements it with
	// OpenSSL's RSA_PrivKey::VerifyPubKey. The probe does not prove that
	// D decrypts under N when the discloser made the key (ROADMAP item
	// 22).
	OpCheckRSA512Pair Opcode = 0xc0
)

var opcodeNames = map[Opcode]string{
	OpFalse:              "OP_0",
	OpPushData1:          "OP_PUSHDATA1",
	OpPushData2:          "OP_PUSHDATA2",
	Op1Negate:            "OP_1NEGATE",
	OpNop:                "OP_NOP",
	OpIf:                 "OP_IF",
	OpNotIf:              "OP_NOTIF",
	OpElse:               "OP_ELSE",
	OpEndIf:              "OP_ENDIF",
	OpVerify:             "OP_VERIFY",
	OpReturn:             "OP_RETURN",
	OpDrop:               "OP_DROP",
	OpDup:                "OP_DUP",
	OpNip:                "OP_NIP",
	OpOver:               "OP_OVER",
	OpSwap:               "OP_SWAP",
	OpSize:               "OP_SIZE",
	OpDepth:              "OP_DEPTH",
	OpEqual:              "OP_EQUAL",
	OpEqualVerify:        "OP_EQUALVERIFY",
	OpNot:                "OP_NOT",
	OpBoolAnd:            "OP_BOOLAND",
	OpBoolOr:             "OP_BOOLOR",
	OpAdd:                "OP_ADD",
	OpSub:                "OP_SUB",
	OpLessThan:           "OP_LESSTHAN",
	OpGreaterThan:        "OP_GREATERTHAN",
	OpLessThanOrEqual:    "OP_LESSTHANOREQUAL",
	OpGreaterThanOrEqual: "OP_GREATERTHANOREQUAL",
	OpMin:                "OP_MIN",
	OpMax:                "OP_MAX",
	OpSHA256:             "OP_SHA256",
	OpHash160:            "OP_HASH160",
	OpHash256:            "OP_HASH256",
	OpCheckSig:           "OP_CHECKSIG",
	OpCheckSigVerify:     "OP_CHECKSIGVERIFY",
	OpCheckLockTime:      "OP_CHECKLOCKTIMEVERIFY",
	OpCheckRSA512Pair:    "OP_CHECKRSA512PAIR",
}

// String returns the canonical OP_* name.
func (op Opcode) String() string {
	if name, ok := opcodeNames[op]; ok {
		return name
	}
	if op >= OpTrue && op <= Op16 {
		return "OP_" + strconv.Itoa(int(op-OpTrue)+1)
	}
	if op >= 0x01 && op <= maxDirectPush {
		return fmt.Sprintf("OP_PUSHBYTES_%d", int(op))
	}
	return fmt.Sprintf("OP_UNKNOWN_0x%02x", byte(op))
}

// IsPush reports whether the opcode only pushes data (including the small
// integer opcodes). Unlocking scripts must consist solely of push opcodes.
func (op Opcode) IsPush() bool {
	switch {
	case op == OpFalse, op == Op1Negate:
		return true
	case op >= 0x01 && op <= maxDirectPush:
		return true
	case op == OpPushData1 || op == OpPushData2:
		return true
	case op >= OpTrue && op <= Op16:
		return true
	}
	return false
}

// smallIntValue returns the value pushed by OP_0/OP_1..OP_16/OP_1NEGATE.
func (op Opcode) smallIntValue() (int64, bool) {
	switch {
	case op == OpFalse:
		return 0, true
	case op == Op1Negate:
		return -1, true
	case op >= OpTrue && op <= Op16:
		return int64(op-OpTrue) + 1, true
	}
	return 0, false
}
