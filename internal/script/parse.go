package script

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// Script is a serialized script program.
type Script []byte

// Instruction is one decoded script element: either an opcode or a data
// push (in which case Data holds the pushed bytes).
type Instruction struct {
	Op   Opcode
	Data []byte
}

// Parse errors.
var (
	// ErrTruncatedPush reports a push opcode whose data runs past the end
	// of the script.
	ErrTruncatedPush = errors.New("script: truncated data push")
	// ErrScriptTooLarge reports a script above MaxScriptSize.
	ErrScriptTooLarge = errors.New("script: script too large")
)

// MaxScriptSize is the maximum serialized script length, mirroring
// Bitcoin's limit.
const MaxScriptSize = 10000

// Parse decodes a script into its instruction sequence.
func Parse(s Script) ([]Instruction, error) {
	// Every instruction takes at least one byte, so MaxScriptSize never
	// cuts a script short here.
	return decode(nil, s, MaxScriptSize)
}

// decode appends the instructions of s to dst and returns the extended
// slice. It fails with ErrNotTemplate once s holds more than max
// instructions, so a template helper can decode into a stack array
// sized to its template and never touch the heap.
func decode(dst []Instruction, s Script, max int) ([]Instruction, error) {
	if len(s) > MaxScriptSize {
		return nil, ErrScriptTooLarge
	}
	for i := 0; i < len(s); {
		if len(dst) == max {
			return nil, ErrNotTemplate
		}
		in, next, err := decodeAt(s, i)
		if err != nil {
			return nil, err
		}
		dst = append(dst, in)
		i = next
	}
	return dst, nil
}

// checkEncoding fails where Parse would — ErrScriptTooLarge past
// MaxScriptSize, or the first truncated push — without building the
// instruction slice. The engine runs it before executing a script.
func checkEncoding(s Script) error {
	if len(s) > MaxScriptSize {
		return ErrScriptTooLarge
	}
	for i := 0; i < len(s); {
		_, next, err := decodeAt(s, i)
		if err != nil {
			return err
		}
		i = next
	}
	return nil
}

// decodeAt decodes the instruction starting at s[i] and returns it with
// the offset of the next one. It is the only place push encodings are
// read: Parse, the engine, the template helpers and IsPushOnly all go
// through it.
func decodeAt(s Script, i int) (Instruction, int, error) {
	op := Opcode(s[i])
	i++
	n := 0
	switch {
	case op >= 0x01 && op <= maxDirectPush:
		n = int(op)
	case op == OpPushData1:
		if i >= len(s) {
			return Instruction{}, 0, ErrTruncatedPush
		}
		n = int(s[i])
		i++
	case op == OpPushData2:
		if i+1 >= len(s) {
			return Instruction{}, 0, ErrTruncatedPush
		}
		n = int(binary.LittleEndian.Uint16(s[i:]))
		i += 2
	default:
		return Instruction{Op: op}, i, nil
	}
	if i+n > len(s) {
		return Instruction{}, 0, ErrTruncatedPush
	}
	return Instruction{Op: op, Data: s[i : i+n]}, i + n, nil
}

// IsPushOnly reports whether the script consists solely of data pushes.
// Unlocking scripts are required to be push-only, which closes script
// malleability through executable unlocking programs.
func (s Script) IsPushOnly() bool {
	if len(s) > MaxScriptSize {
		return false
	}
	for i := 0; i < len(s); {
		in, next, err := decodeAt(s, i)
		if err != nil || !in.Op.IsPush() {
			return false
		}
		i = next
	}
	return true
}

// String disassembles the script for logs and debugging.
func (s Script) String() string {
	instrs, err := Parse(s)
	if err != nil {
		return fmt.Sprintf("<invalid script: %v>", err)
	}
	parts := make([]string, 0, len(instrs))
	for _, in := range instrs {
		if in.Data != nil || (in.Op >= 0x01 && in.Op <= maxDirectPush) {
			parts = append(parts, hex.EncodeToString(in.Data))
			continue
		}
		parts = append(parts, in.Op.String())
	}
	return strings.Join(parts, " ")
}

// Builder incrementally assembles a script. The zero value is ready to
// use; methods chain.
type Builder struct {
	buf []byte
}

// NewBuilder returns an empty script builder.
func NewBuilder() *Builder { return &Builder{} }

// AddOp appends a bare opcode.
func (b *Builder) AddOp(op Opcode) *Builder {
	b.buf = append(b.buf, byte(op))
	return b
}

// AddData appends a minimal push of data.
func (b *Builder) AddData(data []byte) *Builder {
	switch {
	case len(data) == 0:
		b.buf = append(b.buf, byte(OpFalse))
	case len(data) == 1 && data[0] >= 1 && data[0] <= 16:
		b.buf = append(b.buf, byte(OpTrue)+data[0]-1)
	case len(data) <= maxDirectPush:
		b.buf = append(b.buf, byte(len(data)))
		b.buf = append(b.buf, data...)
	case len(data) <= 0xff:
		b.buf = append(b.buf, byte(OpPushData1), byte(len(data)))
		b.buf = append(b.buf, data...)
	default:
		b.buf = append(b.buf, byte(OpPushData2))
		var n [2]byte
		binary.LittleEndian.PutUint16(n[:], uint16(len(data)))
		b.buf = append(b.buf, n[:]...)
		b.buf = append(b.buf, data...)
	}
	return b
}

// AddInt64 appends a push of the minimally encoded number.
func (b *Builder) AddInt64(n int64) *Builder {
	if n >= -1 && n <= 16 {
		switch {
		case n == 0:
			return b.AddOp(OpFalse)
		case n == -1:
			return b.AddOp(Op1Negate)
		default:
			return b.AddOp(OpTrue + Opcode(n-1))
		}
	}
	return b.AddData(encodeNum(n))
}

// Script returns the assembled script. The returned slice is a copy.
func (b *Builder) Script() Script {
	return append(Script(nil), b.buf...)
}
