package bccrypto

import "math/bits"

// A strong-probable-prime test to base 2 on fixed-width 256-bit numbers.
//
// primeSearch runs it on every sieve survivor before ProbablyPrime(20).
// ProbablyPrime always includes a base-2 Miller–Rabin round (math/big
// calls probablyPrimeMillerRabin with force2 set), so a survivor this
// test rejects is one ProbablyPrime rejects too: the prefilter changes
// which calls are made, never which candidate is accepted. About ten of
// every eleven survivors are composite; here they cost 4×64-bit
// Montgomery squarings on the stack instead of a math/big exponentiation
// and a freshly seeded math/rand source each.

// u256 is a 256-bit number, least significant word first.
type u256 [4]uint64

// sprp2 reports whether n is a strong probable prime to base 2. n is
// given most significant word first, as the sieve holds it, and must be
// odd with its top two bits set — every candidate primeSearch draws is.
// Then n > 2²⁵⁵, so with R = 2²⁵⁶ the Montgomery form of 1 is R − n and
// that of −1 is n − (R − n).
func sprp2(nBE [4]uint64) bool {
	n := u256{nBE[3], nBE[2], nBE[1], nBE[0]}

	// n − 1 = d·2^s with d odd; n is odd, so bit 0 of n − 1 is clear.
	nm1 := n
	nm1[0]--
	s := 0
	for _, w := range nm1 {
		if w != 0 {
			s += bits.TrailingZeros64(w)
			break
		}
		s += 64
	}

	// ninv = −n⁻¹ mod 2⁶⁴ by Newton's iteration: each step doubles the
	// correct low bits, and n·n ≡ 1 (mod 8) gives the first three.
	inv := n[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - n[0]*inv
	}
	ninv := -inv

	var one, minusOne u256
	var borrow uint64
	for i := range one {
		one[i], borrow = bits.Sub64(0, n[i], borrow)
	}
	borrow = 0
	for i := range minusOne {
		minusOne[i], borrow = bits.Sub64(n[i], one[i], borrow)
	}

	// x = 2^d in Montgomery form, left to right over the bits of d =
	// (n − 1) >> s, which are bits s … 255 of n − 1. Multiplying by the
	// base 2 is a modular doubling, so the ladder is squarings only.
	x := one
	for i := 255; i >= s; i-- {
		x = montMul(&x, &x, &n, ninv)
		if nm1[i/64]>>(i%64)&1 == 1 {
			x = modDouble(&x, &n)
		}
	}
	if x == one || x == minusOne {
		return true
	}
	for r := 1; r < s; r++ {
		x = montMul(&x, &x, &n, ninv)
		if x == minusOne {
			return true
		}
		if x == one {
			return false
		}
	}
	return false
}

// montMul returns a·b·2⁻²⁵⁶ mod m for a, b < m, with m odd and ninv =
// −m⁻¹ mod 2⁶⁴ (coarsely integrated operand scanning).
func montMul(a, b, m *u256, ninv uint64) u256 {
	var t [6]uint64
	for i := 0; i < 4; i++ {
		// t += a·b[i]
		var c, cc uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(a[j], b[i])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			t[j], c = lo, hi+cc
		}
		t[4], cc = bits.Add64(t[4], c, 0)
		t[5] = cc

		// t = (t + u·m) / 2⁶⁴, with u chosen to clear the low word.
		u := t[0] * ninv
		hi, lo := bits.Mul64(u, m[0])
		_, cc = bits.Add64(lo, t[0], 0)
		c = hi + cc
		for j := 1; j < 4; j++ {
			hi, lo = bits.Mul64(u, m[j])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			t[j-1], c = lo, hi+cc
		}
		t[3], cc = bits.Add64(t[4], c, 0)
		t[4] = t[5] + cc
	}
	// t < 2m: subtract m once if t ≥ m.
	var r u256
	var borrow uint64
	for i := range r {
		r[i], borrow = bits.Sub64(t[i], m[i], borrow)
	}
	if t[4] == 0 && borrow != 0 {
		return u256{t[0], t[1], t[2], t[3]}
	}
	return r
}

// modDouble returns 2x mod m for x < m.
func modDouble(x, m *u256) u256 {
	var d, r u256
	var carry, borrow uint64
	for i := range d {
		d[i], carry = bits.Add64(x[i], x[i], carry)
	}
	for i := range r {
		r[i], borrow = bits.Sub64(d[i], m[i], borrow)
	}
	if carry == 0 && borrow != 0 {
		return d
	}
	return r
}
