package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Every typed overlay payload — the sync, channel and delivery messages
// — is written by a Writer and read by a Reader: a version byte, then
// fixed-width big-endian integers, fixed-size arrays and byte strings
// behind a 4-byte length. The Reader bounds every length, refuses a
// short or an overlong payload, and checks the version in one place, so
// a decoder is its field list and nothing else.

// wireVersion leads every payload; a Reader refuses any other.
const wireVersion = 1

// errMalformed is wrapped by every error a payload decoder returns.
var errMalformed = errors.New("p2p: malformed message")

// Writer appends one payload's fields.
type Writer struct{ buf []byte }

// NewWriter starts a payload of about size bytes with the version byte.
func NewWriter(size int) Writer {
	return Writer{buf: append(make([]byte, 0, size), wireVersion)}
}

func (w *Writer) Byte(b byte)     { w.buf = append(w.buf, b) }
func (w *Writer) Uint16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *Writer) Uint32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *Writer) Uint64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *Writer) Fixed(b []byte)  { w.buf = append(w.buf, b...) }
func (w *Writer) Payload() []byte { return w.buf }

// Bytes writes b behind its 4-byte length.
func (w *Writer) Bytes(b []byte) {
	w.Uint32(uint32(len(b)))
	w.Fixed(b)
}

// Bool writes 1 for true and 0 for false.
func (w *Writer) Bool(b bool) {
	var v byte
	if b {
		v = 1
	}
	w.Byte(v)
}

// Reader takes one payload's fields in order. Its first error sticks:
// every later read returns zero values, and Done reports it.
type Reader struct {
	rest []byte
	err  error
}

// NewReader starts reading payload past its version byte.
func NewReader(payload []byte) Reader {
	r := Reader{rest: payload}
	if v := r.Byte(); r.err == nil && v != wireVersion {
		r.fail("unsupported version %d", v)
	}
	return r
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errMalformed, fmt.Sprintf(format, args...))
		r.rest = nil
	}
}

// take returns the next n bytes, capped so appends cannot reach past
// them, or nil once the payload is short.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.rest) {
		r.fail("%d bytes wanted, %d left", n, len(r.rest))
		return nil
	}
	b := r.rest[:n:n]
	r.rest = r.rest[n:]
	return b
}

func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) Uint16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *Reader) Uint32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) Uint64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.fail("bool byte %d", b)
	}
	return b == 1
}

// Fixed fills dst from the next len(dst) bytes.
func (r *Reader) Fixed(dst []byte) { copy(dst, r.take(len(dst))) }

// Bytes returns a length-prefixed string of at most max bytes. It
// aliases the payload.
func (r *Reader) Bytes(max int) []byte {
	n := r.Uint32()
	if r.err == nil && n > uint32(max) {
		r.fail("%d-byte field over its %d bound", n, max)
	}
	return r.take(int(n))
}

// Count checks an item count against its bound before anything is
// allocated for it, and returns it, or 0 once the payload is refused.
func (r *Reader) Count(n, max int) int {
	if r.err == nil && n > max {
		r.fail("count %d over its %d bound", n, max)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Done reports the first error, or that bytes are left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.rest) != 0 {
		r.fail("%d trailing bytes", len(r.rest))
	}
	return r.err
}
