package script

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"

	"bcwan/internal/bccrypto"
)

// Execution errors. Engine.Execute wraps these with positional context;
// match with errors.Is.
var (
	ErrStackUnderflow     = errors.New("script: stack underflow")
	ErrStackOverflow      = errors.New("script: stack size limit exceeded")
	ErrTooManyOps         = errors.New("script: operation limit exceeded")
	ErrUnbalancedIf       = errors.New("script: unbalanced conditional")
	ErrEarlyReturn        = errors.New("script: OP_RETURN executed")
	ErrVerifyFailed       = errors.New("script: OP_VERIFY failed")
	ErrEqualVerifyFailed  = errors.New("script: OP_EQUALVERIFY failed")
	ErrCheckSigFailed     = errors.New("script: signature check failed")
	ErrLockTimeNotReached = errors.New("script: lock time not reached")
	ErrDisabledOpcode     = errors.New("script: disabled or unknown opcode")
	ErrScriptFalse        = errors.New("script: evaluated to false")
	ErrUnlockNotPushOnly  = errors.New("script: unlocking script is not push-only")
)

// Limits mirroring Bitcoin consensus rules.
const (
	maxStackSize   = 1000
	maxOpsPerEval  = 201
	maxElementSize = 520

	// stackHint is the element stack's one allocation per Verify: room
	// for every template's deepest stack. A deeper script spills by
	// append, up to maxStackSize.
	stackHint = 16
)

// smallNums holds what OP_1NEGATE, OP_0 and OP_1..OP_16 push, indexed by
// value+1. Stack elements alias these slices; no opcode writes into an
// element, so the table never changes.
var smallNums = func() (t [18][]byte) {
	for v := -1; v <= 16; v++ {
		t[v+1] = encodeNum(int64(v))
	}
	return t
}()

// Context supplies the transaction-dependent inputs a script evaluation
// needs. The chain package implements it against a spending transaction.
//
// The engine never copies a stack element: a data push, OP_DUP and
// OP_OVER push the slice itself, so an element may share its bytes with
// the scripts passed to Verify or with another element. That is sound
// because no opcode writes into an element — every result is a fresh
// slice or a package-level constant — and it holds only while an
// implementation does the same: CheckSig must not modify sig or pubKey.
type Context interface {
	// CheckSig verifies sig over the spending transaction's signature
	// hash with the given serialized public key. It must not modify
	// either argument.
	CheckSig(sig, pubKey []byte) bool
	// LockTime returns the spending transaction's lock time, expressed
	// as a block height (BIP-65 semantics).
	LockTime() int64
}

// staticContext is used for evaluations with no transaction context; any
// signature or locktime check fails.
type staticContext struct{}

func (staticContext) CheckSig(_, _ []byte) bool { return false }
func (staticContext) LockTime() int64           { return 0 }

// Verify runs the unlocking script then the locking script on a shared
// stack, per the UTXO model: the spend succeeds iff the final stack top is
// truthy. The unlocking script must be push-only.
func Verify(unlock, lock Script, ctx Context) error {
	if !unlock.IsPushOnly() {
		return ErrUnlockNotPushOnly
	}
	if ctx == nil {
		ctx = staticContext{}
	}
	e := engine{ctx: ctx, stack: make([][]byte, 0, stackHint)}
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

// engine holds evaluation state shared between the unlocking and locking
// scripts.
type engine struct {
	ctx   Context
	stack [][]byte
	ops   int
}

func (e *engine) push(v []byte) error {
	if len(v) > maxElementSize {
		return fmt.Errorf("script: element of %d bytes exceeds limit %d", len(v), maxElementSize)
	}
	if len(e.stack) >= maxStackSize {
		return ErrStackOverflow
	}
	e.stack = append(e.stack, v)
	return nil
}

func (e *engine) pop() ([]byte, error) {
	if len(e.stack) == 0 {
		return nil, ErrStackUnderflow
	}
	v := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	return v, nil
}

func (e *engine) peek() ([]byte, error) {
	if len(e.stack) == 0 {
		return nil, ErrStackUnderflow
	}
	return e.stack[len(e.stack)-1], nil
}

func (e *engine) pushBool(v bool) error {
	if v {
		return e.pushNum(1)
	}
	return e.push(nil)
}

// pushNum pushes n's minimal encoding, from smallNums when it has one.
func (e *engine) pushNum(n int64) error {
	if n >= -1 && n <= 16 {
		return e.push(smallNums[n+1])
	}
	return e.push(encodeNum(n))
}

func (e *engine) popNum() (int64, error) {
	v, err := e.pop()
	if err != nil {
		return 0, err
	}
	return decodeNum(v, maxNumLen)
}

// condState tracks one nesting level of OP_IF.
type condState int

const (
	condTrue    condState = iota // executing this branch
	condFalse                    // skipping until OP_ELSE/OP_ENDIF
	condSkipAll                  // entire conditional inside a skipped branch
)

// executing reports whether every enclosing OP_IF branch is taken.
func executing(conds []condState) bool {
	for _, c := range conds {
		if c != condTrue {
			return false
		}
	}
	return true
}

// run executes s on the shared stack. It walks the script in place with
// decodeAt, after one validating pass that fails a malformed script —
// too large, or a truncated push anywhere in it — before any op runs,
// as parsing it whole would.
func (e *engine) run(s Script) error {
	if err := checkEncoding(s); err != nil {
		return err
	}
	// The templates nest one OP_IF; deeper nesting spills to the heap.
	var condBuf [8]condState
	conds := condBuf[:0]

	for idx, i := 0, 0; i < len(s); idx++ {
		in, next, _ := decodeAt(s, i) // checkEncoding accepted every push
		i = next
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
			if !executing(conds) {
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

		if !executing(conds) {
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
func (e *engine) step(in Instruction) error {
	op := in.Op

	// Data pushes alias the script (see Context).
	if in.Data != nil || (op >= 0x01 && op <= maxDirectPush) {
		return e.push(in.Data)
	}
	if v, ok := op.smallIntValue(); ok {
		return e.pushNum(v)
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
		return e.push(top)

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
		return e.push(e.stack[len(e.stack)-2])

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
		return e.pushNum(int64(len(top)))

	case OpDepth:
		return e.pushNum(int64(len(e.stack)))

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
			return e.pushNum(a + b)
		case OpSub:
			return e.pushNum(a - b)
		case OpLessThan:
			return e.pushBool(a < b)
		case OpGreaterThan:
			return e.pushBool(a > b)
		case OpLessThanOrEqual:
			return e.pushBool(a <= b)
		case OpGreaterThanOrEqual:
			return e.pushBool(a >= b)
		case OpMin:
			return e.pushNum(min64(a, b))
		default:
			return e.pushNum(max64(a, b))
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

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
