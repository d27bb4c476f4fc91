package bccrypto

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// RSA-512 arithmetic on fixed-width 512-bit numbers.
//
// Every per-reading RSA-512 operation — encrypt, decrypt, sign, verify
// and the pair check — runs in 8×64-bit Montgomery arithmetic on the
// stack, the sibling of sprp.go's 4×64-bit mont. The key structs keep
// *big.Int; an operation reads them through big.Int.Bits, reads its
// input from 64 bytes, and writes its result straight into the caller's
// bytes. Like math/big's Exp, the code is variable-time (DESIGN.md
// §18).

// u512 is a 512-bit number, least significant word first.
type u512 [8]uint64

// mont512 is an odd modulus n of exactly 512 bits — every key
// GenerateRSA512 mints has one, and the key decoders refuse any other —
// and the constants Montgomery arithmetic modulo n needs. With R = 2⁵¹²,
// n > 2⁵¹¹ makes R mod n equal R − n, the Montgomery form of 1.
type mont512 struct {
	n    u512
	ninv uint64 // −n⁻¹ mod 2⁶⁴
	one  u512
}

// newMont512 reports false unless n is odd and exactly 512 bits long.
func newMont512(n *big.Int) (m mont512, ok bool) {
	if n == nil || n.BitLen() != RSA512Bits || n.Bit(0) == 0 || !loadInt(m.n[:], n) {
		return m, false
	}
	m.ninv = negInv64(m.n[0])
	var zero u512
	m.one, _ = subBorrow512(&zero, &m.n)
	return m, true
}

// loadInt sets z to x ≥ 0 and reports whether x is non-negative and
// fits z.
func loadInt(z []uint64, x *big.Int) bool {
	clear(z)
	w := x.Bits()
	if x.Sign() < 0 || len(w)*bits.UintSize > len(z)*64 {
		return false
	}
	for i, v := range w {
		z[i*bits.UintSize/64] |= uint64(v) << (i * bits.UintSize % 64)
	}
	return true
}

// setBytes sets z to the 64-byte big-endian number b.
func (z *u512) setBytes(b []byte) {
	for i := range z {
		z[i] = binary.BigEndian.Uint64(b[56-8*i:])
	}
}

// putBytes writes x into b as 64 big-endian bytes.
func (x *u512) putBytes(b []byte) {
	for i, w := range x {
		binary.BigEndian.PutUint64(b[56-8*i:], w)
	}
}

// less reports whether x < n.
func (m *mont512) less(x *u512) bool {
	_, borrow := subBorrow512(x, &m.n)
	return borrow != 0
}

// pow returns x^e mod n, x < 2⁵¹² and e least significant word first,
// through a fixed 4-bit window, as math/big's Exp takes one.
func (m *mont512) pow(x *u512, e []uint64) u512 {
	var table [16]u512
	table[0], table[1] = m.one, m.toMont(x)
	for i := 2; i < len(table); i++ {
		table[i] = m.mul(&table[i-1], &table[1])
	}
	// Squaring 1 leaves 1, so skipping it costs the leading zero
	// windows nothing.
	z := m.one
	for i := len(e) - 1; i >= 0; i-- {
		for s := 60; s >= 0; s -= 4 {
			if z != m.one {
				for k := 0; k < 4; k++ {
					z = m.mul(&z, &z)
				}
			}
			if w := e[i] >> s & 15; w != 0 {
				z = m.mul(&z, &table[w])
			}
		}
	}
	return m.fromMont(&z)
}

// powSmall returns x^e mod n for x < 2⁵¹² and e > 0, left to right
// with no table: encrypt and verify raise to a 17-bit exponent, where
// building a window table costs more than it saves.
func (m *mont512) powSmall(x *u512, e uint64) u512 {
	xm := m.toMont(x)
	z := xm
	for i := bits.Len64(e) - 2; i >= 0; i-- {
		z = m.mul(&z, &z)
		if e>>i&1 == 1 {
			z = m.mul(&z, &xm)
		}
	}
	return m.fromMont(&z)
}

// pow2 returns 2^e mod n in Montgomery form, e least significant word
// first. As in sprp2, multiplying by the base 2 is a modular doubling,
// so the ladder is squarings only; as in pow, 1 is not squared.
func (m *mont512) pow2(e []uint64) u512 {
	z := m.one
	for i := len(e)*64 - 1; i >= 0; i-- {
		if z != m.one {
			z = m.mul(&z, &z)
		}
		if e[i/64]>>(i%64)&1 == 1 {
			z = m.add(&z, &z)
		}
	}
	return z
}

// toMont returns x·R mod n for any x < 2⁵¹²: the remainder of x·2⁵¹²
// by n.
func (m *mont512) toMont(x *u512) u512 {
	var u [2*len(u512{}) + 1]uint64
	copy(u[len(x):], x[:])
	remNorm(u[:], m.n[:])
	return u512(u[:len(x)])
}

// fromMont returns x·R⁻¹ mod n.
func (m *mont512) fromMont(x *u512) u512 {
	return m.mul(x, &u512{1})
}

// mul returns a·b·R⁻¹ mod n for a, b < n (coarsely integrated operand
// scanning, as mont.mul). Each row forms its eight word products first
// and adds their low and high halves in two carry chains, which the
// compiler keeps in the carry flag: about 1.4× as fast as a
// multiply-accumulate (madd) per word. A separate squaring, 100 word
// products to mul's 128, measured ≈ 5 % faster alone and ≈ 1.5 % on a
// 512-bit exponent, and is not kept.
func (m *mont512) mul(a, b *u512) u512 {
	var t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, c uint64
	for _, bi := range b {
		// t += a·bi: the low halves of the products in one carry chain,
		// the high halves in a second, a word higher.
		h0, l0 := bits.Mul64(a[0], bi)
		h1, l1 := bits.Mul64(a[1], bi)
		h2, l2 := bits.Mul64(a[2], bi)
		h3, l3 := bits.Mul64(a[3], bi)
		h4, l4 := bits.Mul64(a[4], bi)
		h5, l5 := bits.Mul64(a[5], bi)
		h6, l6 := bits.Mul64(a[6], bi)
		h7, l7 := bits.Mul64(a[7], bi)
		t0, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, l2, c)
		t3, c = bits.Add64(t3, l3, c)
		t4, c = bits.Add64(t4, l4, c)
		t5, c = bits.Add64(t5, l5, c)
		t6, c = bits.Add64(t6, l6, c)
		t7, c = bits.Add64(t7, l7, c)
		t8, t9 = bits.Add64(t8, 0, c)
		t1, c = bits.Add64(t1, h0, 0)
		t2, c = bits.Add64(t2, h1, c)
		t3, c = bits.Add64(t3, h2, c)
		t4, c = bits.Add64(t4, h3, c)
		t5, c = bits.Add64(t5, h4, c)
		t6, c = bits.Add64(t6, h5, c)
		t7, c = bits.Add64(t7, h6, c)
		t8, c = bits.Add64(t8, h7, c)
		t9 += c

		// t = (t + u·n) / 2⁶⁴, with u chosen to clear the low word.
		u := t0 * m.ninv
		h0, l0 = bits.Mul64(u, m.n[0])
		h1, l1 = bits.Mul64(u, m.n[1])
		h2, l2 = bits.Mul64(u, m.n[2])
		h3, l3 = bits.Mul64(u, m.n[3])
		h4, l4 = bits.Mul64(u, m.n[4])
		h5, l5 = bits.Mul64(u, m.n[5])
		h6, l6 = bits.Mul64(u, m.n[6])
		h7, l7 = bits.Mul64(u, m.n[7])
		_, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, l2, c)
		t3, c = bits.Add64(t3, l3, c)
		t4, c = bits.Add64(t4, l4, c)
		t5, c = bits.Add64(t5, l5, c)
		t6, c = bits.Add64(t6, l6, c)
		t7, c = bits.Add64(t7, l7, c)
		t8, c = bits.Add64(t8, 0, c)
		t9 += c
		t0, c = bits.Add64(t1, h0, 0)
		t1, c = bits.Add64(t2, h1, c)
		t2, c = bits.Add64(t3, h2, c)
		t3, c = bits.Add64(t4, h3, c)
		t4, c = bits.Add64(t5, h4, c)
		t5, c = bits.Add64(t6, h5, c)
		t6, c = bits.Add64(t7, h6, c)
		t7, c = bits.Add64(t8, h7, c)
		t8, t9 = t9+c, 0
	}
	return m.reduceOnce(&u512{t0, t1, t2, t3, t4, t5, t6, t7}, t8)
}

// reduceOnce returns t mod n for t + hi·2⁵¹² < 2n.
func (m *mont512) reduceOnce(t *u512, hi uint64) u512 {
	r, borrow := subBorrow512(t, &m.n)
	if hi == 0 && borrow != 0 {
		return *t
	}
	return r
}

// add returns x + y mod n for x, y < n.
func (m *mont512) add(x, y *u512) u512 {
	var d u512
	var carry uint64
	for i := range d {
		d[i], carry = bits.Add64(x[i], y[i], carry)
	}
	return m.reduceOnce(&d, carry)
}

// subBorrow512 returns x − y mod 2⁵¹² and the borrow out of the top
// word.
func subBorrow512(x, y *u512) (u512, uint64) {
	var d u512
	var borrow uint64
	for i := range d {
		d[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
	return d, borrow
}

// remNorm reduces u modulo v in place, leaving the remainder in u's low
// len(v) words: Knuth's algorithm D (TAOCP §4.3.1) as math/big's
// divBasic runs it, without the quotient. Words are least significant
// first; v's top word must have its top bit set, so no normalizing
// shift is needed, and u's top word must be zero.
func remNorm(u, v []uint64) {
	n := len(v)
	vTop, vNext := v[n-1], v[n-2]
	for j := len(u) - n - 1; j >= 0; j-- {
		// Estimate the quotient word q̂ from the top words; it is at
		// most one too large once lowered against v's second word.
		qhat := ^uint64(0)
		if ujn := u[j+n]; ujn != vTop {
			var rhat uint64
			qhat, rhat = bits.Div64(ujn, u[j+n-1], vTop)
			for {
				hi, lo := bits.Mul64(qhat, vNext)
				if hi < rhat || hi == rhat && lo <= u[j+n-2] {
					break
				}
				qhat--
				prev := rhat
				if rhat += vTop; rhat < prev {
					break
				}
			}
		}
		// u[j:j+n+1] −= q̂·v, adding v back once if that went negative.
		var mulCarry, borrow uint64
		for i, vi := range v {
			hi, lo := bits.Mul64(qhat, vi)
			var c uint64
			lo, c = bits.Add64(lo, mulCarry, 0)
			mulCarry = hi + c
			u[j+i], borrow = bits.Sub64(u[j+i], lo, borrow)
		}
		u[j+n], borrow = bits.Sub64(u[j+n], mulCarry, borrow)
		if borrow != 0 {
			var c uint64
			for i, vi := range v {
				u[j+i], c = bits.Add64(u[j+i], vi, c)
			}
			u[j+n] += c
		}
	}
}

// The halves of a CRT signature run on sprp.go's 4×64-bit mont, whose
// modulus is a 256-bit prime with bit 255 set.

// powCRT returns x^d mod n for x, d < 2⁵¹² and n prime: by Fermat's
// little theorem the exponent reduces modulo n − 1.
func (m *mont) powCRT(x, d *u512) u256 {
	var u [len(u512{}) + 1]uint64
	copy(u[:], d[:])
	remNorm(u[:], m.nm1[:])
	xm := m.toMont(x[:])
	z := m.pow(&xm, (*u256)(u[:len(u256{})]))
	return m.mul(&z, &u256{1})
}

// pow returns x^e for x in Montgomery form, in Montgomery form, through
// the fixed 4-bit window of mont512.pow.
func (m *mont) pow(x, e *u256) u256 {
	var table [16]u256
	table[0], table[1] = m.one, *x
	for i := 2; i < len(table); i++ {
		table[i] = m.mul(&table[i-1], x)
	}
	z := m.one
	for i := len(e) - 1; i >= 0; i-- {
		for s := 60; s >= 0; s -= 4 {
			if z != m.one {
				for k := 0; k < 4; k++ {
					z = m.mul(&z, &z)
				}
			}
			if w := e[i] >> s & 15; w != 0 {
				z = m.mul(&z, &table[w])
			}
		}
	}
	return z
}

// toMont returns x·R mod n for x of at most eight words.
func (m *mont) toMont(x []uint64) u256 {
	var u [len(u256{}) + len(u512{}) + 1]uint64
	copy(u[len(m.n):], x)
	remNorm(u[:len(m.n)+len(x)+1], m.n[:])
	return u256(u[:len(m.n)])
}
