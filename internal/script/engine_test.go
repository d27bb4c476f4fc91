package script

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"sync"
	"testing"

	"bcwan/internal/bccrypto"
)

// fakeContext is a test Context with scriptable behaviour.
type fakeContext struct {
	sigOK    func(sig, pubKey []byte) bool
	lockTime int64
}

func (c fakeContext) CheckSig(sig, pubKey []byte) bool {
	if c.sigOK == nil {
		return false
	}
	return c.sigOK(sig, pubKey)
}

func (c fakeContext) LockTime() int64 { return c.lockTime }

// alwaysValidSig accepts any (sig, pubKey) pair.
var alwaysValidSig = fakeContext{sigOK: func(_, _ []byte) bool { return true }}

func mustRun(t *testing.T, unlock, lock Script, ctx Context) {
	t.Helper()
	if err := Verify(unlock, lock, ctx); err != nil {
		t.Fatalf("Verify(%s | %s) = %v, want nil", unlock, lock, err)
	}
}

func mustFail(t *testing.T, unlock, lock Script, ctx Context, want error) {
	t.Helper()
	err := Verify(unlock, lock, ctx)
	if err == nil {
		t.Fatalf("Verify(%s | %s) succeeded, want error", unlock, lock)
	}
	if want != nil && !errors.Is(err, want) {
		t.Fatalf("Verify error = %v, want %v", err, want)
	}
}

func TestVerifySimpleTruthy(t *testing.T) {
	mustRun(t,
		NewBuilder().AddInt64(2).Script(),
		NewBuilder().AddInt64(2).AddOp(OpEqual).Script(),
		nil)
}

func TestVerifyFalseResult(t *testing.T) {
	mustFail(t,
		NewBuilder().AddInt64(2).Script(),
		NewBuilder().AddInt64(3).AddOp(OpEqual).Script(),
		nil, ErrScriptFalse)
}

func TestVerifyEmptyStackFails(t *testing.T) {
	mustFail(t, Script{}, Script{}, nil, ErrScriptFalse)
}

func TestVerifyRejectsNonPushOnlyUnlock(t *testing.T) {
	mustFail(t,
		NewBuilder().AddOp(OpDup).Script(),
		NewBuilder().AddInt64(1).Script(),
		nil, ErrUnlockNotPushOnly)
}

func TestStackOps(t *testing.T) {
	tests := []struct {
		name string
		lock *Builder
		ok   bool
	}{
		{"dup", NewBuilder().AddInt64(5).AddOp(OpDup).AddOp(OpEqual), true},
		{"drop", NewBuilder().AddInt64(1).AddInt64(0).AddOp(OpDrop), true},
		{"swap", NewBuilder().AddInt64(0).AddInt64(1).AddOp(OpSwap).AddOp(OpDrop), true},
		{"nip", NewBuilder().AddInt64(0).AddInt64(1).AddOp(OpNip), true},
		{"over", NewBuilder().AddInt64(1).AddInt64(0).AddOp(OpOver), true},
		{"size", NewBuilder().AddData([]byte("abcd")).AddOp(OpSize).AddInt64(4).AddOp(OpEqual).AddOp(OpNip), true},
		{"depth", NewBuilder().AddInt64(7).AddInt64(7).AddOp(OpDepth).AddInt64(2).AddOp(OpEqual), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Verify(nil, tt.lock.Script(), nil)
			if tt.ok && err != nil {
				t.Fatalf("err = %v, want nil", err)
			}
			if !tt.ok && err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestStackUnderflow(t *testing.T) {
	for _, op := range []Opcode{OpDup, OpDrop, OpSwap, OpEqual, OpVerify, OpHash160, OpCheckSig, OpNot, OpAdd} {
		lock := NewBuilder().AddOp(op).Script()
		mustFail(t, nil, lock, nil, ErrStackUnderflow)
	}
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		name string
		lock Script
	}{
		{"add", NewBuilder().AddInt64(40).AddInt64(2).AddOp(OpAdd).AddInt64(42).AddOp(OpEqual).Script()},
		{"sub", NewBuilder().AddInt64(44).AddInt64(2).AddOp(OpSub).AddInt64(42).AddOp(OpEqual).Script()},
		{"lt", NewBuilder().AddInt64(1).AddInt64(2).AddOp(OpLessThan).Script()},
		{"gt", NewBuilder().AddInt64(2).AddInt64(1).AddOp(OpGreaterThan).Script()},
		{"le", NewBuilder().AddInt64(2).AddInt64(2).AddOp(OpLessThanOrEqual).Script()},
		{"ge", NewBuilder().AddInt64(2).AddInt64(2).AddOp(OpGreaterThanOrEqual).Script()},
		{"min", NewBuilder().AddInt64(9).AddInt64(3).AddOp(OpMin).AddInt64(3).AddOp(OpEqual).Script()},
		{"max", NewBuilder().AddInt64(9).AddInt64(3).AddOp(OpMax).AddInt64(9).AddOp(OpEqual).Script()},
		{"not-zero", NewBuilder().AddInt64(0).AddOp(OpNot).Script()},
		{"booland", NewBuilder().AddInt64(1).AddInt64(2).AddOp(OpBoolAnd).Script()},
		{"boolor", NewBuilder().AddInt64(0).AddInt64(2).AddOp(OpBoolOr).Script()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mustRun(t, nil, tt.lock, nil)
		})
	}
}

func TestNegativeNumbers(t *testing.T) {
	mustRun(t, nil, NewBuilder().AddInt64(-5).AddInt64(7).AddOp(OpAdd).AddInt64(2).AddOp(OpEqual).Script(), nil)
	mustRun(t, nil, NewBuilder().AddInt64(2).AddInt64(5).AddOp(OpSub).AddInt64(-3).AddOp(OpEqual).Script(), nil)
}

func TestConditionals(t *testing.T) {
	tests := []struct {
		name   string
		unlock Script
		lock   Script
		ok     bool
	}{
		{
			"if-true",
			NewBuilder().AddInt64(1).Script(),
			NewBuilder().AddOp(OpIf).AddInt64(10).AddOp(OpElse).AddInt64(20).AddOp(OpEndIf).AddInt64(10).AddOp(OpEqual).Script(),
			true,
		},
		{
			"if-false",
			NewBuilder().AddInt64(0).Script(),
			NewBuilder().AddOp(OpIf).AddInt64(10).AddOp(OpElse).AddInt64(20).AddOp(OpEndIf).AddInt64(20).AddOp(OpEqual).Script(),
			true,
		},
		{
			"notif",
			NewBuilder().AddInt64(0).Script(),
			NewBuilder().AddOp(OpNotIf).AddInt64(1).AddOp(OpEndIf).Script(),
			true,
		},
		{
			"nested",
			NewBuilder().AddInt64(1).AddInt64(1).Script(),
			NewBuilder().
				AddOp(OpIf).
				AddOp(OpIf).AddInt64(42).AddOp(OpElse).AddInt64(1).AddOp(OpEndIf).
				AddOp(OpElse).AddInt64(2).
				AddOp(OpEndIf).
				AddInt64(42).AddOp(OpEqual).Script(),
			true,
		},
		{
			"skipped-inner-else",
			NewBuilder().AddInt64(0).Script(),
			NewBuilder().
				AddOp(OpIf).
				AddOp(OpIf).AddInt64(1).AddOp(OpElse).AddInt64(2).AddOp(OpEndIf).
				AddOp(OpElse).AddInt64(3).
				AddOp(OpEndIf).
				AddInt64(3).AddOp(OpEqual).Script(),
			true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Verify(tt.unlock, tt.lock, nil)
			if tt.ok && err != nil {
				t.Fatalf("err = %v", err)
			}
			if !tt.ok && err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestUnbalancedConditionals(t *testing.T) {
	mustFail(t, nil, NewBuilder().AddInt64(1).AddOp(OpIf).Script(), nil, ErrUnbalancedIf)
	mustFail(t, nil, NewBuilder().AddOp(OpEndIf).Script(), nil, ErrUnbalancedIf)
	mustFail(t, nil, NewBuilder().AddOp(OpElse).Script(), nil, ErrUnbalancedIf)
}

func TestOpReturnAborts(t *testing.T) {
	mustFail(t, nil, NullData([]byte("ip=10.0.0.1")), nil, ErrEarlyReturn)
}

func TestOpVerify(t *testing.T) {
	mustRun(t, nil, NewBuilder().AddInt64(1).AddOp(OpVerify).AddInt64(1).Script(), nil)
	mustFail(t, nil, NewBuilder().AddInt64(0).AddOp(OpVerify).AddInt64(1).Script(), nil, ErrVerifyFailed)
}

func TestHashOpcodes(t *testing.T) {
	data := []byte("bcwan")
	h160 := bccrypto.Hash160(data)
	mustRun(t, nil, NewBuilder().AddData(data).AddOp(OpHash160).AddData(h160[:]).AddOp(OpEqual).Script(), nil)

	h256 := bccrypto.DoubleSHA256(data)
	mustRun(t, nil, NewBuilder().AddData(data).AddOp(OpHash256).AddData(h256[:]).AddOp(OpEqual).Script(), nil)
}

func TestCheckSigDelegatesToContext(t *testing.T) {
	var gotSig, gotPub []byte
	ctx := fakeContext{sigOK: func(sig, pub []byte) bool {
		gotSig, gotPub = sig, pub
		return true
	}}
	unlock := UnlockP2PKH([]byte("SIG"), []byte("PUB"))
	lock := NewBuilder().AddOp(OpCheckSig).Script()
	mustRun(t, unlock, lock, ctx)
	if string(gotSig) != "SIG" || string(gotPub) != "PUB" {
		t.Fatalf("CheckSig got (%q, %q), want (SIG, PUB)", gotSig, gotPub)
	}
}

func TestCheckSigVerifyFails(t *testing.T) {
	unlock := UnlockP2PKH([]byte("SIG"), []byte("PUB"))
	lock := NewBuilder().AddOp(OpCheckSigVerify).AddInt64(1).Script()
	mustFail(t, unlock, lock, fakeContext{}, ErrCheckSigFailed)
}

func TestCheckLockTime(t *testing.T) {
	lock := NewBuilder().AddInt64(100).AddOp(OpCheckLockTime).AddOp(OpVerify).AddInt64(1).Script()
	mustRun(t, nil, lock, fakeContext{lockTime: 100})
	mustRun(t, nil, lock, fakeContext{lockTime: 150})
	mustFail(t, nil, lock, fakeContext{lockTime: 99}, ErrLockTimeNotReached)
}

func TestP2PKHEndToEnd(t *testing.T) {
	pub := []byte("serialized-ecdsa-public-key")
	hash := bccrypto.Hash160(pub)
	lock := PayToPubKeyHash(hash)

	if got := Classify(lock); got != ClassP2PKH {
		t.Fatalf("Classify = %v, want p2pkh", got)
	}
	gotHash, err := ExtractP2PKHHash(lock)
	if err != nil || gotHash != hash {
		t.Fatalf("ExtractP2PKHHash = %x, %v", gotHash, err)
	}

	mustRun(t, UnlockP2PKH([]byte("sig"), pub), lock, alwaysValidSig)
	// Wrong public key fails at OP_EQUALVERIFY.
	mustFail(t, UnlockP2PKH([]byte("sig"), []byte("other")), lock, alwaysValidSig, ErrEqualVerifyFailed)
	// Bad signature fails at OP_CHECKSIG (script evaluates to false).
	mustFail(t, UnlockP2PKH([]byte("sig"), pub), lock, fakeContext{}, ErrScriptFalse)
}

// rsaTestKeys caches RSA keypairs for the fair-exchange script tests.
var (
	rsaOnce sync.Once
	rsaKeyA *bccrypto.RSA512PrivateKey
	rsaKeyB *bccrypto.RSA512PrivateKey
)

func rsaKeys(t testing.TB) (*bccrypto.RSA512PrivateKey, *bccrypto.RSA512PrivateKey) {
	t.Helper()
	rsaOnce.Do(func() {
		var err error
		if rsaKeyA, err = bccrypto.GenerateRSA512(rand.Reader); err != nil {
			panic(err)
		}
		if rsaKeyB, err = bccrypto.GenerateRSA512(rand.Reader); err != nil {
			panic(err)
		}
	})
	return rsaKeyA, rsaKeyB
}

func keyReleaseFixture(t testing.TB) (KeyReleaseParams, *bccrypto.RSA512PrivateKey, []byte, []byte) {
	t.Helper()
	eKey, _ := rsaKeys(t)
	gatewayPub := []byte("gateway-ecdsa-pub")
	buyerPub := []byte("buyer-ecdsa-pub")
	params := KeyReleaseParams{
		RSAPubKey:         bccrypto.MarshalRSA512PublicKey(eKey.Public()),
		GatewayPubKeyHash: bccrypto.Hash160(gatewayPub),
		RefundHeight:      1100,
		BuyerPubKeyHash:   bccrypto.Hash160(buyerPub),
	}
	return params, eKey, gatewayPub, buyerPub
}

func TestKeyReleaseClaimPath(t *testing.T) {
	params, eKey, gatewayPub, _ := keyReleaseFixture(t)
	lock := KeyRelease(params)

	unlock := UnlockKeyReleaseClaim(
		[]byte("sig"), gatewayPub, bccrypto.MarshalRSA512PrivateKey(eKey))
	mustRun(t, unlock, lock, alwaysValidSig)
}

func TestKeyReleaseClaimWrongRSAKeyFails(t *testing.T) {
	params, _, gatewayPub, _ := keyReleaseFixture(t)
	_, otherKey := rsaKeys(t)
	lock := KeyRelease(params)

	// A different RSA key fails the pair check, falls into the refund
	// branch, and then fails CLTV (lock time 0 < 1100).
	unlock := UnlockKeyReleaseClaim(
		[]byte("sig"), gatewayPub, bccrypto.MarshalRSA512PrivateKey(otherKey))
	mustFail(t, unlock, lock, alwaysValidSig, ErrLockTimeNotReached)
}

func TestKeyReleaseClaimWrongGatewayKeyFails(t *testing.T) {
	params, eKey, _, _ := keyReleaseFixture(t)
	lock := KeyRelease(params)

	// Correct RSA pair but a thief's ECDSA key: OP_EQUALVERIFY on the
	// gateway pubkey hash fails — only the gateway can be paid.
	unlock := UnlockKeyReleaseClaim(
		[]byte("sig"), []byte("thief"), bccrypto.MarshalRSA512PrivateKey(eKey))
	mustFail(t, unlock, lock, alwaysValidSig, ErrEqualVerifyFailed)
}

func TestKeyReleaseRefundPath(t *testing.T) {
	params, _, _, buyerPub := keyReleaseFixture(t)
	lock := KeyRelease(params)
	unlock := UnlockKeyReleaseRefund([]byte("sig"), buyerPub)

	// Before the refund height: CLTV rejects.
	mustFail(t, unlock, lock, fakeContext{sigOK: func(_, _ []byte) bool { return true }, lockTime: 1000}, ErrLockTimeNotReached)
	// At/after the refund height: refund succeeds.
	mustRun(t, unlock, lock, fakeContext{sigOK: func(_, _ []byte) bool { return true }, lockTime: 1100})
}

func TestKeyReleaseRefundWrongBuyerFails(t *testing.T) {
	params, _, _, _ := keyReleaseFixture(t)
	lock := KeyRelease(params)
	unlock := UnlockKeyReleaseRefund([]byte("sig"), []byte("mallory"))
	mustFail(t, unlock, lock,
		fakeContext{sigOK: func(_, _ []byte) bool { return true }, lockTime: 2000},
		ErrEqualVerifyFailed)
}

func TestKeyReleaseGatewayCannotTakeRefundPath(t *testing.T) {
	params, _, _, _ := keyReleaseFixture(t)
	lock := KeyRelease(params)
	// Gateway tries the refund path with its own key after expiry.
	unlock := UnlockKeyReleaseRefund([]byte("sig"), []byte("gateway-ecdsa-pub"))
	mustFail(t, unlock, lock,
		fakeContext{sigOK: func(_, _ []byte) bool { return true }, lockTime: 2000},
		ErrEqualVerifyFailed)
}

func TestKeyReleaseParseRoundTrip(t *testing.T) {
	params, _, _, _ := keyReleaseFixture(t)
	lock := KeyRelease(params)

	if got := Classify(lock); got != ClassKeyRelease {
		t.Fatalf("Classify = %v, want keyrelease", got)
	}
	back, err := ParseKeyRelease(lock)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.RSAPubKey, params.RSAPubKey) {
		t.Error("RSAPubKey mismatch")
	}
	if back.GatewayPubKeyHash != params.GatewayPubKeyHash {
		t.Error("GatewayPubKeyHash mismatch")
	}
	if back.BuyerPubKeyHash != params.BuyerPubKeyHash {
		t.Error("BuyerPubKeyHash mismatch")
	}
	if back.RefundHeight != params.RefundHeight {
		t.Errorf("RefundHeight = %d, want %d", back.RefundHeight, params.RefundHeight)
	}
}

func TestExtractClaimedRSAKey(t *testing.T) {
	params, eKey, gatewayPub, _ := keyReleaseFixture(t)
	_ = params
	privBytes := bccrypto.MarshalRSA512PrivateKey(eKey)
	unlock := UnlockKeyReleaseClaim([]byte("sig"), gatewayPub, privBytes)

	got, err := ExtractClaimedRSAKey(unlock)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, privBytes) {
		t.Fatal("extracted key mismatch")
	}

	if _, err := ExtractClaimedRSAKey(UnlockP2PKH([]byte("s"), []byte("p"))); !errors.Is(err, ErrNotTemplate) {
		t.Fatalf("err = %v, want ErrNotTemplate", err)
	}
}

func TestOpCheckRSA512PairGarbageInputs(t *testing.T) {
	// Garbage key material must push false (reachable ELSE), not abort.
	lock := NewBuilder().
		AddData([]byte("not-a-public-key")).
		AddOp(OpCheckRSA512Pair).
		AddOp(OpNotIf).AddInt64(1).AddOp(OpEndIf).
		Script()
	unlock := NewBuilder().AddData([]byte("not-a-private-key")).Script()
	mustRun(t, unlock, lock, nil)
}

func TestOpsLimit(t *testing.T) {
	b := NewBuilder().AddInt64(1)
	for i := 0; i < maxOpsPerEval+1; i++ {
		b.AddOp(OpDup).AddOp(OpDrop)
	}
	mustFail(t, nil, b.Script(), nil, ErrTooManyOps)
}

func TestStackSizeLimit(t *testing.T) {
	// A single push repeated beyond the stack limit must fail. Build the
	// script manually to avoid the ops limit (pushes are not ops).
	b := NewBuilder()
	for i := 0; i < maxStackSize+1; i++ {
		b.AddData([]byte{1})
	}
	mustFail(t, nil, b.Script(), nil, ErrStackOverflow)
}

func TestDisabledOpcode(t *testing.T) {
	mustFail(t, nil, Script{0xfe}, nil, ErrDisabledOpcode)
}

func TestNullDataRoundTrip(t *testing.T) {
	payload := []byte("R=1abc;ip=192.0.2.10:7000")
	s := NullData(payload)
	if got := Classify(s); got != ClassOpReturn {
		t.Fatalf("Classify = %v, want nulldata", got)
	}
	got, err := ExtractNullData(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	if _, err := ExtractNullData(PayToPubKeyHash([20]byte{})); !errors.Is(err, ErrNotTemplate) {
		t.Fatalf("err = %v, want ErrNotTemplate", err)
	}
}

func BenchmarkVerifyP2PKH(b *testing.B) {
	pub := []byte("serialized-ecdsa-public-key")
	lock := PayToPubKeyHash(bccrypto.Hash160(pub))
	unlock := UnlockP2PKH([]byte("sig"), pub)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Verify(unlock, lock, alwaysValidSig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyKeyReleaseClaim(b *testing.B) {
	params, eKey, gatewayPub, _ := keyReleaseFixture(b)
	lock := KeyRelease(params)
	unlock := UnlockKeyReleaseClaim([]byte("sig"), gatewayPub, bccrypto.MarshalRSA512PrivateKey(eKey))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Verify(unlock, lock, alwaysValidSig); err != nil {
			b.Fatal(err)
		}
	}
}

// Allocation gates for one Verify through a stub Context, each the
// measured count. Parsing both scripts and copying every push cost 16,
// 32 and 27.
const (
	maxAllocsVerifyP2PKH  = 2  // the stack and OP_HASH160's digest
	maxAllocsVerifyClaim  = 11 // those, and the pair check's key decoding
	maxAllocsVerifyRefund = 7  // the same, the pair check failing early
)

// TestVerifyAllocs is the tripwire for the engine building an
// instruction slice or copying pushes again: every federation member
// runs it for each input of each transaction it pools.
func TestVerifyAllocs(t *testing.T) {
	params, eKey, gatewayPub, buyerPub := keyReleaseFixture(t)
	lock := KeyRelease(params)
	sig := make([]byte, 71)
	var ctx Context = fakeContext{sigOK: alwaysValidSig.sigOK, lockTime: params.RefundHeight}
	for _, c := range []struct {
		name         string
		max          float64
		unlock, lock Script
	}{
		{"p2pkh", maxAllocsVerifyP2PKH, UnlockP2PKH(sig, gatewayPub), PayToPubKeyHash(bccrypto.Hash160(gatewayPub))},
		{"claim", maxAllocsVerifyClaim, UnlockKeyReleaseClaim(sig, gatewayPub, bccrypto.MarshalRSA512PrivateKey(eKey)), lock},
		{"refund", maxAllocsVerifyRefund, UnlockKeyReleaseRefund(sig, buyerPub), lock},
	} {
		var err error
		if n := testing.AllocsPerRun(100, func() { err = Verify(c.unlock, c.lock, ctx) }); n > c.max {
			t.Errorf("%s: Verify allocates %v times per call, want ≤ %v", c.name, n, c.max)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

func TestOpSHA256(t *testing.T) {
	data := []byte("bcwan")
	sum := sha256.Sum256(data)
	mustRun(t, nil, NewBuilder().AddData(data).AddOp(OpSHA256).AddData(sum[:]).AddOp(OpEqual).Script(), nil)
}

func TestHashPreimageLock(t *testing.T) {
	// The §2 example: an output locked to the preimage of a sha256
	// hash ("the user that desires to unlock the amount would have to
	// reveal the preimage").
	preimage := []byte("the-secret-preimage")
	sum := sha256.Sum256(preimage)
	lock := NewBuilder().AddOp(OpSHA256).AddData(sum[:]).AddOp(OpEqual).Script()

	mustRun(t, NewBuilder().AddData(preimage).Script(), lock, nil)
	mustFail(t, NewBuilder().AddData([]byte("wrong")).Script(), lock, nil, ErrScriptFalse)
}

func TestElementSizeLimit(t *testing.T) {
	// Elements above 520 bytes may be pushed by the parser but the
	// engine rejects constructing them (e.g. via OP_DUP of a parsed
	// oversized push is impossible since push itself fails).
	big := make([]byte, maxElementSize+1)
	lock := NewBuilder().AddData(big).Script()
	mustFail(t, nil, lock, nil, nil)
}

func TestNopIsAccepted(t *testing.T) {
	mustRun(t, nil, NewBuilder().AddOp(OpNop).AddInt64(1).Script(), nil)
}
