package bccrypto

import (
	"math/big"
	"math/bits"
)

// The Baillie–PSW probable-prime test on fixed-width 256-bit numbers.
//
// primeSearch accepts a sieve survivor on the test big.Int applies when
// asked for ProbablyPrime(0) — trial division by the primes 3 … 53, one
// Miller–Rabin round to base 2, and the "almost extra strong" Lucas test
// — but runs it in 4×64-bit Montgomery arithmetic on the stack. No
// composite is known to pass BPSW, and none exists below 2⁶⁴; a prime
// always passes, so the search stops at the prime crypto/rand.Prime would
// stop at unless it first meets a BPSW pseudoprime. Base 2 goes before
// Lucas because about ten of every eleven survivors are composite and it
// rejects them at about half of Lucas's cost. Like math/big's, the code
// is variable-time; the keys it serves are ephemeral, minted off the
// request path, and published by the claim.

// u256 is a 256-bit number, least significant word first.
type u256 [4]uint64

// mont is an odd 256-bit modulus n with its top two bits set — every
// candidate primeSearch draws is one — and the constants Montgomery
// arithmetic modulo n needs. With R = 2²⁵⁶, n > 2²⁵⁵ makes R mod n equal
// R − n: that is the Montgomery form of 1, and n − (R − n) is that of
// −1.
type mont struct {
	n, nm1        u256   // n and n − 1
	s             int    // n − 1 = d·2^s with d odd
	ninv          uint64 // −n⁻¹ mod 2⁶⁴
	one, minusOne u256
}

// newMont takes n most significant word first, as the sieve holds it.
func newMont(nBE [4]uint64) mont {
	m := mont{n: u256{nBE[3], nBE[2], nBE[1], nBE[0]}}
	// n is odd, so bit 0 of n − 1 is clear.
	m.nm1 = m.n
	m.nm1[0]--
	m.s = trailingZeros(&m.nm1)
	m.ninv = negInv64(m.n[0])
	var zero u256
	m.one, _ = subBorrow(&zero, &m.n)
	m.minusOne, _ = subBorrow(&m.n, &m.one)
	return m
}

// negInv64 returns −x⁻¹ mod 2⁶⁴ for odd x. Newton's iteration: each
// step doubles the correct low bits, and x·x ≡ 1 (mod 8) gives the
// first three.
func negInv64(x uint64) uint64 {
	inv := x
	for i := 0; i < 5; i++ {
		inv *= 2 - x*inv
	}
	return -inv
}

// probablyPrime reports whether n, most significant word first, odd and
// with its top two bits set, passes BPSW: math/big's ProbablyPrime(0).
// It needs no sieve.
func probablyPrime(nBE [4]uint64) bool {
	m := newMont(nBE)
	return !m.smallFactor() && m.sprp2() && m.lucas()
}

// smallPrimes are the primes math/big trial-divides by before its first
// round. Their product fits a word, so one reduction of n serves
// them all.
var smallPrimes = [...]uint64{3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}

const smallPrimesProduct = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53

// smallFactor reports whether one of smallPrimes divides n.
func (m *mont) smallFactor() bool {
	r := rem(&m.n, smallPrimesProduct)
	for _, p := range smallPrimes {
		if r%p == 0 {
			return true
		}
	}
	return false
}

// sprp2 computes 2^d left to right over the bits of d = (n − 1) >> s,
// which are bits s … 255 of n − 1. Multiplying by the base 2 is a
// modular doubling, so the ladder is squarings only.
func (m *mont) sprp2() bool {
	x := m.one
	for i := 255; i >= m.s; i-- {
		x = m.mul(&x, &x)
		if m.nm1[i/64]>>(i%64)&1 == 1 {
			x = m.add(&x, &x)
		}
	}
	return m.chain(x)
}

// chain finishes a strong test from x = a^d: n passes if x ≡ ±1, or if
// x^(2^r) ≡ −1 for some 0 < r < s.
func (m *mont) chain(x u256) bool {
	if x == m.one || x == m.minusOne {
		return true
	}
	for r := 1; r < m.s; r++ {
		x = m.mul(&x, &x)
		if x == m.minusOne {
			return true
		}
		if x == m.one {
			return false
		}
	}
	return false
}

// lucas is math/big's probablyPrimeLucas: the "almost extra strong"
// Lucas test with Baillie-OEIS method C parameters, P = 3, 4, … until
// the Jacobi symbol of P² − 4 modulo n is −1, and Q = 1.
func (m *mont) lucas() bool {
	p := uint64(3)
	for ; ; p++ {
		if p > 10000 {
			panic("bccrypto: cannot find (D/n) = -1 for " + m.big().String())
		}
		j := jacobi(p*p-4, &m.n)
		if j == -1 {
			break
		}
		if j == 0 {
			// n shares a factor with P² − 4 < n, so it is composite.
			return false
		}
		if p == 40 {
			// A square n never yields −1; math/big checks here.
			x := m.big()
			r := new(big.Int).Sqrt(x)
			if r.Mul(r, r).Cmp(x) == 0 {
				return false
			}
		}
	}

	// n + 1 = s·2^r with s odd. n is odd, so (n + 1)/2 = (n >> 1) + 1,
	// which cannot overflow 256 bits.
	h := shr(&m.n, 1)
	h = addWord(&h, 1)
	tz := trailingZeros(&h)
	r := 1 + tz
	s := shr(&h, tz)

	// V(0) = 2, V(1) = P; V(2k) = V(k)² − 2, V(2k+1) = V(k)·V(k+1) − P,
	// all in Montgomery form. Bits of s above its top one leave k = 0,
	// so the ladder can start at bit 255.
	two := m.add(&m.one, &m.one)
	var pm u256 // P·R mod n, by doubling and adding over the bits of P
	for i := bits.Len64(p) - 1; i >= 0; i-- {
		pm = m.add(&pm, &pm)
		if p>>i&1 == 1 {
			pm = m.add(&pm, &m.one)
		}
	}
	vk, vk1 := two, pm
	for i := 255; i >= 0; i-- {
		t := m.mul(&vk, &vk1)
		t = m.sub(&t, &pm)
		if s[i/64]>>(i%64)&1 == 1 {
			vk = t
			vk1 = m.mul(&vk1, &vk1)
			vk1 = m.sub(&vk1, &two)
		} else {
			vk1 = t
			vk = m.mul(&vk, &vk)
			vk = m.sub(&vk, &two)
		}
	}

	// V(s) ≡ ±2 and U(s) ≡ 0, which holds iff P·V(s) ≡ 2·V(s+1).
	var zero u256
	if vk == two || vk == m.sub(&zero, &two) {
		if m.mul(&vk, &pm) == m.add(&vk1, &vk1) {
			return true
		}
	}
	// Or V(2^t·s) ≡ 0 for some 0 ≤ t < r − 1. V = 2 is a fixed point of
	// V ↦ V² − 2, so reaching it ends the search.
	for t := 0; t < r-1; t++ {
		if vk == zero {
			return true
		}
		if vk == two {
			return false
		}
		vk = m.mul(&vk, &vk)
		vk = m.sub(&vk, &two)
	}
	return false
}

// jacobi returns the Jacobi symbol (a/n) for odd n and a > 0: one
// reduction of n modulo a turns it into a symbol on words.
func jacobi(a uint64, n *u256) int {
	j := 1
	// (2/n) = −1 iff n ≡ 3, 5 (mod 8).
	tz := bits.TrailingZeros64(a)
	a >>= tz
	if tz&1 == 1 && (n[0]&7 == 3 || n[0]&7 == 5) {
		j = -j
	}
	// Reciprocity for odd a: (a/n) = (n/a), negated iff a ≡ n ≡ 3 (mod 4).
	if a&3 == 3 && n[0]&3 == 3 {
		j = -j
	}
	x, y := rem(n, a), a
	for x != 0 {
		tz := bits.TrailingZeros64(x)
		x >>= tz
		if tz&1 == 1 && (y&7 == 3 || y&7 == 5) {
			j = -j
		}
		if x&3 == 3 && y&3 == 3 {
			j = -j
		}
		x, y = y%x, x
	}
	if y != 1 {
		return 0
	}
	return j
}

// rem returns x mod d.
func rem(x *u256, d uint64) uint64 {
	var r uint64
	for i := len(x) - 1; i >= 0; i-- {
		_, r = bits.Div64(r, x[i], d)
	}
	return r
}

func (m *mont) big() *big.Int {
	return new(big.Int).SetBits([]big.Word{big.Word(m.n[0]), big.Word(m.n[1]), big.Word(m.n[2]), big.Word(m.n[3])})
}

// mul returns a·b·R⁻¹ mod n for a, b < n (coarsely integrated operand
// scanning), in mont512.mul's two carry chains per row.
func (m *mont) mul(a, b *u256) u256 {
	var t0, t1, t2, t3, t4, t5, c uint64
	for _, bi := range b {
		// t += a·bi
		h0, l0 := bits.Mul64(a[0], bi)
		h1, l1 := bits.Mul64(a[1], bi)
		h2, l2 := bits.Mul64(a[2], bi)
		h3, l3 := bits.Mul64(a[3], bi)
		t0, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, l2, c)
		t3, c = bits.Add64(t3, l3, c)
		t4, t5 = bits.Add64(t4, 0, c)
		t1, c = bits.Add64(t1, h0, 0)
		t2, c = bits.Add64(t2, h1, c)
		t3, c = bits.Add64(t3, h2, c)
		t4, c = bits.Add64(t4, h3, c)
		t5 += c

		// t = (t + u·n) / 2⁶⁴, with u chosen to clear the low word.
		u := t0 * m.ninv
		h0, l0 = bits.Mul64(u, m.n[0])
		h1, l1 = bits.Mul64(u, m.n[1])
		h2, l2 = bits.Mul64(u, m.n[2])
		h3, l3 = bits.Mul64(u, m.n[3])
		_, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, l2, c)
		t3, c = bits.Add64(t3, l3, c)
		t4, c = bits.Add64(t4, 0, c)
		t5 += c
		t0, c = bits.Add64(t1, h0, 0)
		t1, c = bits.Add64(t2, h1, c)
		t2, c = bits.Add64(t3, h2, c)
		t3, c = bits.Add64(t4, h3, c)
		t4, t5 = t5+c, 0
	}
	// t < 2n: subtract n once if t ≥ n.
	t := u256{t0, t1, t2, t3}
	r, borrow := subBorrow(&t, &m.n)
	if t4 == 0 && borrow != 0 {
		return t
	}
	return r
}

// madd returns x·y + z + c as a 128-bit (hi, lo); it cannot overflow.
func madd(x, y, z, c uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(x, y)
	var cc uint64
	lo, cc = bits.Add64(lo, z, 0)
	hi += cc
	lo, cc = bits.Add64(lo, c, 0)
	return hi + cc, lo
}

// add returns x + y mod n for x, y < n.
func (m *mont) add(x, y *u256) u256 {
	var d u256
	var carry uint64
	for i := range d {
		d[i], carry = bits.Add64(x[i], y[i], carry)
	}
	r, borrow := subBorrow(&d, &m.n)
	if carry == 0 && borrow != 0 {
		return d
	}
	return r
}

// sub returns x − y mod n for x, y < n.
func (m *mont) sub(x, y *u256) u256 {
	d, borrow := subBorrow(x, y)
	if borrow == 0 {
		return d
	}
	var carry uint64
	for i := range d {
		d[i], carry = bits.Add64(d[i], m.n[i], carry)
	}
	return d
}

// subBorrow returns x − y mod 2²⁵⁶ and the borrow out of the top word.
func subBorrow(x, y *u256) (u256, uint64) {
	var d u256
	var borrow uint64
	for i := range d {
		d[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
	return d, borrow
}

// addWord returns x + w mod 2²⁵⁶.
func addWord(x *u256, w uint64) u256 {
	var r u256
	r[0], w = bits.Add64(x[0], w, 0)
	for i := 1; i < len(r); i++ {
		r[i], w = bits.Add64(x[i], 0, w)
	}
	return r
}

// trailingZeros returns the number of trailing zero bits of x ≠ 0.
func trailingZeros(x *u256) int {
	n := 0
	for _, w := range x {
		if w != 0 {
			return n + bits.TrailingZeros64(w)
		}
		n += 64
	}
	return n
}

// shr returns x >> k for k < 256.
func shr(x *u256, k int) u256 {
	var r u256
	words, b := k/64, uint(k%64)
	for i := 0; i+words < 4; i++ {
		r[i] = x[i+words] >> b
		if b != 0 && i+words+1 < 4 {
			r[i] |= x[i+words+1] << (64 - b)
		}
	}
	return r
}
