package script

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bcwan/internal/bccrypto"
)

// refVerify is the engine as it was before it walked its scripts in
// place: Parse builds each script's instruction slice, and every push,
// OP_DUP and OP_OVER copies its element. FuzzVerifyReference holds
// Verify to it — the same verdict and the same error — and checks that
// Verify's aliasing leaves both scripts as they were.
func refVerify(unlock, lock Script, ctx Context) error {
	if !unlock.IsPushOnly() {
		return ErrUnlockNotPushOnly
	}
	if ctx == nil {
		ctx = staticContext{}
	}
	e := &refEngine{ctx: ctx}
	if err := e.run(unlock); err != nil {
		return fmt.Errorf("unlocking script: %w", err)
	}
	if err := e.run(lock); err != nil {
		return fmt.Errorf("locking script: %w", err)
	}
	if len(e.stack) == 0 || !isTruthy(e.stack[len(e.stack)-1]) {
		return ErrScriptFalse
	}
	return nil
}

type refEngine struct {
	ctx   Context
	stack [][]byte
	ops   int
}

func (e *refEngine) push(v []byte) error {
	if len(v) > maxElementSize {
		return fmt.Errorf("script: element of %d bytes exceeds limit %d", len(v), maxElementSize)
	}
	if len(e.stack) >= maxStackSize {
		return ErrStackOverflow
	}
	e.stack = append(e.stack, v)
	return nil
}

func (e *refEngine) pop() ([]byte, error) {
	if len(e.stack) == 0 {
		return nil, ErrStackUnderflow
	}
	v := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	return v, nil
}

func (e *refEngine) peek() ([]byte, error) {
	if len(e.stack) == 0 {
		return nil, ErrStackUnderflow
	}
	return e.stack[len(e.stack)-1], nil
}

func (e *refEngine) pushBool(v bool) error {
	if v {
		return e.push([]byte{1})
	}
	return e.push(nil)
}

func (e *refEngine) popNum() (int64, error) {
	v, err := e.pop()
	if err != nil {
		return 0, err
	}
	return decodeNum(v, maxNumLen)
}

func (e *refEngine) run(s Script) error {
	instrs, err := Parse(s)
	if err != nil {
		return err
	}
	var conds []condState
	executing := func() bool {
		for _, c := range conds {
			if c != condTrue {
				return false
			}
		}
		return true
	}

	for idx, in := range instrs {
		op := in.Op
		if !op.IsPush() {
			e.ops++
			if e.ops > maxOpsPerEval {
				return ErrTooManyOps
			}
		}

		// Conditional bookkeeping happens even on skipped branches.
		switch op {
		case OpIf, OpNotIf:
			if !executing() {
				conds = append(conds, condSkipAll)
				continue
			}
			top, err := e.pop()
			if err != nil {
				return fmt.Errorf("op %d %s: %w", idx, op, err)
			}
			taken := isTruthy(top)
			if op == OpNotIf {
				taken = !taken
			}
			if taken {
				conds = append(conds, condTrue)
			} else {
				conds = append(conds, condFalse)
			}
			continue
		case OpElse:
			if len(conds) == 0 {
				return ErrUnbalancedIf
			}
			switch conds[len(conds)-1] {
			case condTrue:
				conds[len(conds)-1] = condFalse
			case condFalse:
				conds[len(conds)-1] = condTrue
			case condSkipAll:
				// unchanged
			}
			continue
		case OpEndIf:
			if len(conds) == 0 {
				return ErrUnbalancedIf
			}
			conds = conds[:len(conds)-1]
			continue
		}

		if !executing() {
			continue
		}
		if err := e.step(in); err != nil {
			return fmt.Errorf("op %d %s: %w", idx, op, err)
		}
	}
	if len(conds) != 0 {
		return ErrUnbalancedIf
	}
	return nil
}

// step executes a single non-conditional instruction.
func (e *refEngine) step(in Instruction) error {
	op := in.Op

	// Data pushes.
	if in.Data != nil || (op >= 0x01 && op <= maxDirectPush) {
		return e.push(append([]byte(nil), in.Data...))
	}
	if v, ok := op.smallIntValue(); ok {
		return e.push(encodeNum(v))
	}

	switch op {
	case OpNop:
		return nil

	case OpReturn:
		return ErrEarlyReturn

	case OpVerify:
		top, err := e.pop()
		if err != nil {
			return err
		}
		if !isTruthy(top) {
			return ErrVerifyFailed
		}
		return nil

	case OpDrop:
		_, err := e.pop()
		return err

	case OpDup:
		top, err := e.peek()
		if err != nil {
			return err
		}
		return e.push(append([]byte(nil), top...))

	case OpNip:
		top, err := e.pop()
		if err != nil {
			return err
		}
		if _, err := e.pop(); err != nil {
			return err
		}
		return e.push(top)

	case OpOver:
		if len(e.stack) < 2 {
			return ErrStackUnderflow
		}
		return e.push(append([]byte(nil), e.stack[len(e.stack)-2]...))

	case OpSwap:
		a, err := e.pop()
		if err != nil {
			return err
		}
		b, err := e.pop()
		if err != nil {
			return err
		}
		if err := e.push(a); err != nil {
			return err
		}
		return e.push(b)

	case OpSize:
		top, err := e.peek()
		if err != nil {
			return err
		}
		return e.push(encodeNum(int64(len(top))))

	case OpDepth:
		return e.push(encodeNum(int64(len(e.stack))))

	case OpEqual, OpEqualVerify:
		a, err := e.pop()
		if err != nil {
			return err
		}
		b, err := e.pop()
		if err != nil {
			return err
		}
		eq := bytes.Equal(a, b)
		if op == OpEqualVerify {
			if !eq {
				return ErrEqualVerifyFailed
			}
			return nil
		}
		return e.pushBool(eq)

	case OpNot:
		n, err := e.popNum()
		if err != nil {
			return err
		}
		return e.pushBool(n == 0)

	case OpBoolAnd, OpBoolOr:
		b, err := e.popNum()
		if err != nil {
			return err
		}
		a, err := e.popNum()
		if err != nil {
			return err
		}
		if op == OpBoolAnd {
			return e.pushBool(a != 0 && b != 0)
		}
		return e.pushBool(a != 0 || b != 0)

	case OpAdd, OpSub, OpLessThan, OpGreaterThan,
		OpLessThanOrEqual, OpGreaterThanOrEqual, OpMin, OpMax:
		b, err := e.popNum()
		if err != nil {
			return err
		}
		a, err := e.popNum()
		if err != nil {
			return err
		}
		switch op {
		case OpAdd:
			return e.push(encodeNum(a + b))
		case OpSub:
			return e.push(encodeNum(a - b))
		case OpLessThan:
			return e.pushBool(a < b)
		case OpGreaterThan:
			return e.pushBool(a > b)
		case OpLessThanOrEqual:
			return e.pushBool(a <= b)
		case OpGreaterThanOrEqual:
			return e.pushBool(a >= b)
		case OpMin:
			return e.push(encodeNum(min64(a, b)))
		default:
			return e.push(encodeNum(max64(a, b)))
		}

	case OpSHA256:
		top, err := e.pop()
		if err != nil {
			return err
		}
		sum := sha256.Sum256(top)
		return e.push(sum[:])

	case OpHash160:
		top, err := e.pop()
		if err != nil {
			return err
		}
		sum := bccrypto.Hash160(top)
		return e.push(sum[:])

	case OpHash256:
		top, err := e.pop()
		if err != nil {
			return err
		}
		sum := bccrypto.DoubleSHA256(top)
		return e.push(sum[:])

	case OpCheckSig, OpCheckSigVerify:
		pubKey, err := e.pop()
		if err != nil {
			return err
		}
		sig, err := e.pop()
		if err != nil {
			return err
		}
		ok := e.ctx.CheckSig(sig, pubKey)
		if op == OpCheckSigVerify {
			if !ok {
				return ErrCheckSigFailed
			}
			return nil
		}
		return e.pushBool(ok)

	case OpCheckLockTime:
		// BIP-65: peek the required height; fail if the spending
		// transaction's lock time has not reached it. The stack item is
		// left in place (Listing 1 follows with OP_VERIFY to drop it).
		top, err := e.peek()
		if err != nil {
			return err
		}
		required, err := decodeNum(top, maxNumLen)
		if err != nil {
			return err
		}
		if required < 0 {
			return ErrLockTimeNotReached
		}
		if e.ctx.LockTime() < required {
			return ErrLockTimeNotReached
		}
		return nil

	case OpCheckRSA512Pair:
		// Pops the RSA public key (pushed by the locking script) and
		// the candidate private key (from the unlocking script); pushes
		// whether they form a valid pair. Non-key or dummy values push
		// false rather than aborting, so Listing 1's OP_ELSE refund
		// branch stays reachable.
		pubBytes, err := e.pop()
		if err != nil {
			return err
		}
		privBytes, err := e.pop()
		if err != nil {
			return err
		}
		pub, errPub := bccrypto.UnmarshalRSA512PublicKey(pubBytes)
		priv, errPriv := bccrypto.UnmarshalRSA512PrivateKey(privBytes)
		ok := errPub == nil && errPriv == nil && priv.MatchesPublic(pub)
		return e.pushBool(ok)
	}

	return fmt.Errorf("%w: %s", ErrDisabledOpcode, op)
}

// parityContext is FuzzVerifyReference's deterministic Context: a
// signature checks iff its last byte is odd.
type parityContext struct{ lockTime int64 }

func (c parityContext) CheckSig(sig, _ []byte) bool { return len(sig) > 0 && sig[len(sig)-1]&1 == 1 }
func (c parityContext) LockTime() int64             { return c.lockTime }

// verifySentinels are the errors a verdict can wrap.
var verifySentinels = []error{
	ErrStackUnderflow, ErrStackOverflow, ErrTooManyOps, ErrUnbalancedIf,
	ErrEarlyReturn, ErrVerifyFailed, ErrEqualVerifyFailed, ErrCheckSigFailed,
	ErrLockTimeNotReached, ErrDisabledOpcode, ErrScriptFalse, ErrUnlockNotPushOnly,
	ErrTruncatedPush, ErrScriptTooLarge, ErrNumberTooLarge, ErrNonMinimalNumber,
}

// referenceSeed is one FuzzVerifyReference seed.
type referenceSeed struct {
	unlock, lock Script
	lockTime     int64
}

// referenceSeeds covers the templates' spends and the engine's edges:
// the stack past its first allocation and at its limit, OP_IF nesting
// past the conditional array, and malformed scripts whose error must
// come from the validating pass, before any op runs.
func referenceSeeds(tb testing.TB) []referenceSeed {
	odd := bytes.Repeat([]byte{0x31}, 71) // parityContext accepts it
	even := bytes.Repeat([]byte{0x30}, 71)
	gatewayPub, buyerPub := []byte("gateway-pub"), []byte("buyer-pub")
	rsaPriv, rsaPub := validRSAPair(tb)
	kr := KeyRelease(KeyReleaseParams{
		RSAPubKey:         rsaPub,
		GatewayPubKeyHash: bccrypto.Hash160(gatewayPub),
		RefundHeight:      1100,
		BuyerPubKeyHash:   bccrypto.Hash160(buyerPub),
	})
	ch := testChannelParams()
	ch.FunderPubKeyHash = bccrypto.Hash160(buyerPub)
	channel := Channel(ch)

	deep := NewBuilder()
	for i := 0; i < 20; i++ {
		deep.AddInt64(int64(i % 17))
	}
	deep.AddOp(OpDepth).AddInt64(20).AddOp(OpEqualVerify).AddOp(OpOver).AddOp(OpDup).AddOp(OpDrop)
	nestUnlock, nestLock := NewBuilder(), NewBuilder()
	for i := 0; i < 12; i++ {
		nestUnlock.AddInt64(1)
		nestLock.AddOp(OpIf)
	}
	nestLock.AddInt64(1)
	for i := 0; i < 12; i++ {
		nestLock.AddOp(OpEndIf)
	}
	overflow := NewBuilder()
	for i := 0; i < maxStackSize+1; i++ {
		overflow.AddData([]byte{1})
	}
	return []referenceSeed{
		{UnlockP2PKH(odd, gatewayPub), PayToPubKeyHash(bccrypto.Hash160(gatewayPub)), 0},
		{UnlockP2PKH(even, gatewayPub), PayToPubKeyHash(bccrypto.Hash160(gatewayPub)), 0},
		{UnlockKeyReleaseClaim(odd, gatewayPub, rsaPriv), kr, 0},
		{UnlockKeyReleaseRefund(odd, buyerPub), kr, 1100},
		{UnlockKeyReleaseRefund(odd, buyerPub), kr, 1099},
		{UnlockChannelClose(odd, odd), channel, 0},
		{UnlockChannelClose(odd, even), channel, 0},
		{UnlockKeyReleaseRefund(odd, buyerPub), channel, ch.RefundHeight},
		{nil, deep.Script(), 0},
		{nestUnlock.Script(), nestLock.Script(), 0},
		{nil, overflow.Script(), 0},
		{nil, Script{byte(OpDrop), byte(OpPushData1), 0xff}, 0},
		{nil, Script{byte(OpReturn), 0x05, 0x01}, 0},
		{nil, bytes.Repeat([]byte{byte(OpNop)}, MaxScriptSize+1), 0},
	}
}

// validRSAPair returns the valid-pair vector of
// testdata/checkrsa512pair.json: a private key and the public key
// OP_CHECKRSA512PAIR accepts it for.
func validRSAPair(tb testing.TB) (priv, pub []byte) {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "checkrsa512pair.json"))
	if err != nil {
		tb.Fatalf("read vectors: %v", err)
	}
	var vecs rsaPairVectors
	if err := json.Unmarshal(raw, &vecs); err != nil {
		tb.Fatalf("decode vectors: %v", err)
	}
	for _, v := range vecs.Vectors {
		if !v.Valid {
			continue
		}
		if priv, err = hex.DecodeString(v.Priv); err != nil {
			tb.Fatal(err)
		}
		if pub, err = hex.DecodeString(v.Pub); err != nil {
			tb.Fatal(err)
		}
		return priv, pub
	}
	tb.Fatal("no valid pair in testdata/checkrsa512pair.json")
	return nil, nil
}

// FuzzVerifyReference holds Verify to refVerify on arbitrary script
// pairs: the same verdict, the same sentinel and the same message, and
// both scripts byte-identical afterwards — no opcode may write through
// an element that aliases a script.
func FuzzVerifyReference(f *testing.F) {
	for _, s := range referenceSeeds(f) {
		f.Add([]byte(s.unlock), []byte(s.lock), s.lockTime)
	}
	f.Fuzz(func(t *testing.T, unlock, lock []byte, lockTime int64) {
		ctx := parityContext{lockTime: lockTime}
		want := refVerify(unlock, lock, ctx)
		u, l := bytes.Clone(unlock), bytes.Clone(lock)
		got := Verify(unlock, lock, ctx)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("Verify = %v, reference %v\nunlock %x\nlock %x", got, want, unlock, lock)
		}
		for _, s := range verifySentinels {
			if errors.Is(got, s) != errors.Is(want, s) {
				t.Fatalf("Verify = %v, reference %v: they disagree on %v", got, want, s)
			}
		}
		if !bytes.Equal(u, unlock) || !bytes.Equal(l, lock) {
			t.Fatalf("Verify changed its scripts\nunlock %x -> %x\nlock %x -> %x", u, unlock, l, lock)
		}
	})
}
