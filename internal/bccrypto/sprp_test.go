package bccrypto

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"testing"
)

// sprpRef is the strong test to base a in math/big: n − 1 = d·2^s with
// d odd; n passes if a^d ≡ 1, or a^(d·2^r) ≡ −1 for some r < s (mod n).
func sprpRef(n, a *big.Int) bool {
	nm1 := new(big.Int).Sub(n, bigOne)
	s := nm1.TrailingZeroBits()
	d := new(big.Int).Rsh(nm1, s)
	x := new(big.Int).Exp(a, d, n)
	if x.Cmp(bigOne) == 0 || x.Cmp(nm1) == 0 {
		return true
	}
	for r := uint(1); r < s; r++ {
		x.Mul(x, x).Mod(x, n)
		if x.Cmp(nm1) == 0 {
			return true
		}
	}
	return false
}

func wordsToBig(w [4]uint64) *big.Int {
	var buf [rsa512PrimeLen]byte
	for i, x := range w {
		binary.BigEndian.PutUint64(buf[8*i:], x)
	}
	return new(big.Int).SetBytes(buf[:])
}

func bigToWords(n *big.Int) [4]uint64 {
	var buf [rsa512PrimeLen]byte
	n.FillBytes(buf[:])
	var w [4]uint64
	for i := range w {
		w[i] = binary.BigEndian.Uint64(buf[8*i:])
	}
	return w
}

// checkSPRP2 fails t unless mont.sprp2 and sprpRef agree on n.
func checkSPRP2(t testing.TB, n [4]uint64) bool {
	t.Helper()
	m := newMont(n)
	got, want := m.sprp2(), sprpRef(wordsToBig(n), big.NewInt(2))
	if got != want {
		t.Fatalf("sprp2(%x) = %v, math/big says %v", wordsToBig(n), got, want)
	}
	return got
}

// sieveSurvivors returns count odd 256-bit numbers with their top two
// bits set that no table prime divides, drawn window by window from rng
// the way primeSearch draws them: about one in eleven is prime.
func sieveSurvivors(rng *mrand.Rand, count int) [][4]uint64 {
	var ps primeSearch
	out := make([][4]uint64, 0, count)
	for len(out) < count {
		var base [4]uint64
		for i := range base {
			base[i] = rng.Uint64()
		}
		base[0] |= 0xc0 << 56
		base[3] |= 1
		ps.sieve(base)
		for k := 0; k < sieveWindow && len(out) < count; k++ {
			if ps.composite[k] {
				continue
			}
			cand, carry := base, uint64(2*k)
			for i := len(cand) - 1; i >= 0; i-- {
				cand[i], carry = bits.Add64(cand[i], carry, 0)
			}
			if carry != 0 {
				break
			}
			out = append(out, cand)
		}
	}
	return out
}

// TestSPRP2AgreesWithBigInt checks the fixed-width test against math/big
// on the inputs keygen feeds it, of which about 9 % pass. 10⁵ values
// agree as well but take ≈ 8 s, most of it in math/big; FuzzSPRP2 covers
// the rest.
func TestSPRP2AgreesWithBigInt(t *testing.T) {
	const values = 20_000
	passed := 0
	for _, n := range sieveSurvivors(mrand.New(mrand.NewSource(1)), values) {
		if checkSPRP2(t, n) {
			passed++
		}
	}
	if passed < values/20 || passed > values/6 {
		t.Fatalf("%d of %d sieve survivors pass, want about one in eleven", passed, values)
	}
}

// TestSPRP2EdgeValues covers what random survivors rarely reach: every
// 2-adic valuation of n − 1 from 1 to 254 (the whole squaring chain),
// the extremes of the range, and a known prime.
func TestSPRP2EdgeValues(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2))
	top := new(big.Int).Lsh(big.NewInt(3), 254) // top two bits set
	for s := uint(1); s <= 254; s++ {
		// n − 1 = top | 2^s, and n − 1 = top | a random odd multiple of
		// 2^s: both have 2-adic valuation s.
		n := new(big.Int).SetBit(top, int(s), 1)
		checkSPRP2(t, bigToWords(n.Add(n, bigOne)))
		r := new(big.Int).Rand(rng, new(big.Int).Lsh(bigOne, 254))
		r.Rsh(r, s+1).Lsh(r, s+1).SetBit(r, int(s), 1).Or(r, top)
		checkSPRP2(t, bigToWords(r.Add(r, bigOne)))
	}
	checkSPRP2(t, [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)})
	checkSPRP2(t, [4]uint64{0xc0 << 56, 0, 0, 1})
	p := new(big.Int).Sub(new(big.Int).Lsh(bigOne, 256), big.NewInt(189)) // 2²⁵⁶ − 189 is prime
	if !checkSPRP2(t, bigToWords(p)) {
		t.Fatal("the prime 2²⁵⁶ − 189 fails base 2")
	}
}

// FuzzSPRP2 runs the agreement check on arbitrary 32 bytes, with the top
// two bits and the low bit forced as the prime search forces them.
func FuzzSPRP2(f *testing.F) {
	f.Add(make([]byte, rsa512PrimeLen))
	f.Add(bytes.Repeat([]byte{0xff}, rsa512PrimeLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf [rsa512PrimeLen]byte
		copy(buf[:], data)
		buf[0] |= 0xc0
		buf[rsa512PrimeLen-1] |= 1
		checkSPRP2(t, bigToWords(new(big.Int).SetBytes(buf[:])))
	})
}

func BenchmarkSPRP2(b *testing.B) {
	ns := sieveSurvivors(mrand.New(mrand.NewSource(3)), 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := newMont(ns[i%len(ns)])
		m.sprp2()
	}
}

// checkProbablyPrime fails t unless the fixed-width verdict and
// big.Int.ProbablyPrime(0), math/big's BPSW, agree on n.
func checkProbablyPrime(t testing.TB, n [4]uint64) bool {
	t.Helper()
	got, want := probablyPrime(n), wordsToBig(n).ProbablyPrime(0)
	if got != want {
		t.Fatalf("probablyPrime(%x) = %v, ProbablyPrime(0) says %v", wordsToBig(n), got, want)
	}
	return got
}

// baseTwoPseudoprimes returns count composites n = p·(2p − 1), with p
// and 2p − 1 prime, that pass sprp2. p's top byte is in 0x9c … 0xb5, so
// n has 256 bits with the top two set. Such n pass base 2 only if 2 is
// a square modulo 2p − 1, which needs p ≡ 1 (mod 4); they reach the
// Lucas test, where a sieve survivor that fails base 2 never goes. p
// steps by 4 through a window sieved, for p and 2p − 1 at once, by the
// table primes.
func baseTwoPseudoprimes(rng *mrand.Rand, count int) [][4]uint64 {
	const window = 1 << 12
	var out [][4]uint64
	var composite [window]bool
	lo := new(big.Int).Lsh(big.NewInt(0x9c), 120)
	span := new(big.Int).Lsh(big.NewInt(0xb6-0x9c), 120)
	p0, p, q, n := new(big.Int), new(big.Int), new(big.Int), new(big.Int)
	for len(out) < count {
		p0.Rand(rng, span).Add(p0, lo)
		p0.SetBit(p0, 0, 1).SetBit(p0, 1, 0) // p0 ≡ 1 (mod 4)
		hi, lw := new(big.Int).Rsh(p0, 64).Uint64(), p0.Uint64()
		composite = [window]bool{}
		for _, l := range sievePrimes {
			// p0 + 4k ≡ 0 and 2(p0 + 4k) ≡ 1 (mod l): k ≡ −r/4 and (1/2 − r)/4.
			r := bits.Rem64(hi, lw, l)
			half := (l + 1) / 2
			quarter := half * half % l
			for _, k0 := range []uint64{(l - r) * quarter % l, (half + l - r) * quarter % l} {
				for k := k0; k < window; k += l {
					composite[k] = true
				}
			}
		}
		for k := 0; k < window && len(out) < count; k++ {
			if composite[k] {
				continue
			}
			p.Add(p0, big.NewInt(int64(4*k)))
			q.Lsh(p, 1).Sub(q, bigOne)
			n.Mul(p, q)
			if n.BitLen() != 256 || n.Bit(254) != 1 {
				continue
			}
			// sprp2 first: it is the cheap test, and it fails almost
			// every n with a composite factor.
			w := bigToWords(n)
			if m := newMont(w); m.sprp2() && p.ProbablyPrime(0) && q.ProbablyPrime(0) {
				out = append(out, w)
			}
		}
	}
	return out
}

// TestProbablyPrimeAgreesWithBigInt checks the whole fixed-width verdict
// against ProbablyPrime(0) on sieve survivors drawn as keygen draws
// them, about one in eleven of them prime, and on composites that pass
// base 2. Lucas is all that keeps those composites out of a key, so it
// must reject each of them on its own. 2·10⁴ survivors agree as well
// but take ≈ 2 s; FuzzPrime256 covers the rest.
func TestProbablyPrimeAgreesWithBigInt(t *testing.T) {
	primes := 0
	for _, n := range sieveSurvivors(mrand.New(mrand.NewSource(4)), 4_000) {
		if checkProbablyPrime(t, n) {
			primes++
		}
	}
	if primes < 4_000/20 || primes > 4_000/6 {
		t.Fatalf("%d of 4 000 sieve survivors are prime, want about one in eleven", primes)
	}
	for _, n := range baseTwoPseudoprimes(mrand.New(mrand.NewSource(5)), 100) {
		if checkProbablyPrime(t, n) {
			t.Fatalf("the composite %x passes", wordsToBig(n))
		}
		if m := newMont(n); m.lucas() {
			t.Fatalf("lucas passes the base-2 pseudoprime %x", wordsToBig(n))
		}
	}
}

// FuzzPrime256 runs the agreement check on arbitrary 32 bytes, with the
// top two bits and the low bit forced as the prime search forces them,
// and cross-checks the verdict against ProbablyPrime(20), which adds 20
// random-base Miller–Rabin rounds to BPSW. A disagreement there is a
// BPSW pseudoprime: keygen would accept a composite.
func FuzzPrime256(f *testing.F) {
	f.Add(make([]byte, rsa512PrimeLen))
	f.Add(bytes.Repeat([]byte{0xff}, rsa512PrimeLen))
	p := new(big.Int).Sub(new(big.Int).Lsh(bigOne, 256), big.NewInt(189)) // prime
	f.Add(p.Bytes())
	for _, n := range baseTwoPseudoprimes(mrand.New(mrand.NewSource(6)), 2) {
		f.Add(wordsToBig(n).Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf [rsa512PrimeLen]byte
		copy(buf[:], data)
		buf[0] |= 0xc0
		buf[rsa512PrimeLen-1] |= 1
		n := new(big.Int).SetBytes(buf[:])
		if got := checkProbablyPrime(t, bigToWords(n)); got != n.ProbablyPrime(20) {
			t.Fatalf("BPSW pseudoprime: %x passes BPSW and fails ProbablyPrime(20)", n)
		}
	})
}

// randomOdd256 returns an odd 256-bit number with its top two bits set.
func randomOdd256(rng *mrand.Rand) *big.Int {
	var buf [rsa512PrimeLen]byte
	rng.Read(buf[:])
	buf[0] |= 0xc0
	buf[rsa512PrimeLen-1] |= 1
	return new(big.Int).SetBytes(buf[:])
}

// lucasRef transcribes math/big's probablyPrimeLucas for odd n > 2 on
// big.Int.
func lucasRef(n *big.Int) bool {
	p := int64(3)
	d := new(big.Int)
	for ; ; p++ {
		if p > 10000 {
			panic("cannot find (D/n) = -1")
		}
		j := big.Jacobi(d.SetInt64(p*p-4), n)
		if j == -1 {
			break
		}
		if j == 0 {
			return n.Cmp(big.NewInt(p+2)) == 0
		}
		if p == 40 {
			r := new(big.Int).Sqrt(n)
			if r.Mul(r, r).Cmp(n) == 0 {
				return false
			}
		}
	}
	s := new(big.Int).Add(n, bigOne)
	r := int(s.TrailingZeroBits())
	s.Rsh(s, uint(r))
	two, bp := big.NewInt(2), big.NewInt(p)
	nm2 := new(big.Int).Sub(n, two)
	vk, vk1 := big.NewInt(2), big.NewInt(p)
	for i := s.BitLen(); i >= 0; i-- {
		if s.Bit(i) != 0 {
			vk.Mul(vk, vk1).Sub(vk, bp).Mod(vk, n)
			vk1.Mul(vk1, vk1).Sub(vk1, two).Mod(vk1, n)
		} else {
			vk1.Mul(vk, vk1).Sub(vk1, bp).Mod(vk1, n)
			vk.Mul(vk, vk).Sub(vk, two).Mod(vk, n)
		}
	}
	if vk.Cmp(two) == 0 || vk.Cmp(nm2) == 0 {
		u := new(big.Int).Mul(vk, bp)
		u.Sub(u, new(big.Int).Lsh(vk1, 1)).Mod(u, n)
		if u.Sign() == 0 {
			return true
		}
	}
	for t := 0; t < r-1; t++ {
		if vk.Sign() == 0 {
			return true
		}
		if vk.Cmp(two) == 0 {
			return false
		}
		vk.Mul(vk, vk).Sub(vk, two).Mod(vk, n)
	}
	return false
}

// TestLucasAgreesWithBigInt checks the fixed-width Lucas test against the
// transcription. Through ProbablyPrime its verdict on a composite hides
// behind base 2, so this is where it is tested on composites: random odd
// values (a third of them divisible by 3, the Jacobi-zero exit), sieve
// survivors, base-2 pseudoprimes and squares of primes (the
// perfect-square check). Two branches stay out of reach: the U(s) check
// decides only for an n with a repeated prime factor above 10⁴, and the
// last V(2^t·s) ≡ 0 test only for a Lucas pseudoprime; both are line for
// line math/big's.
func TestLucasAgreesWithBigInt(t *testing.T) {
	rng := mrand.New(mrand.NewSource(8))
	var ns []*big.Int
	for i := 0; i < 5_000; i++ {
		ns = append(ns, randomOdd256(rng))
	}
	for _, n := range sieveSurvivors(rng, 5_000) {
		ns = append(ns, wordsToBig(n))
	}
	for _, n := range baseTwoPseudoprimes(rng, 20) {
		ns = append(ns, wordsToBig(n))
	}
	for len(ns) < 10_040 {
		// A 128-bit prime root at or above √(3·2²⁵⁴) squares to 256 bits
		// with the top two set, and no P ≤ 40 finds a factor of it.
		x := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(0x21), 120))
		x.Add(x, new(big.Int).Lsh(big.NewInt(0xde), 120)).SetBit(x, 0, 1)
		if x.ProbablyPrime(20) {
			ns = append(ns, x.Mul(x, x))
		}
	}
	passed := 0
	for _, n := range ns {
		m := newMont(bigToWords(n))
		got, want := m.lucas(), lucasRef(n)
		if got != want {
			t.Fatalf("lucas(%x) = %v, math/big's says %v", n, got, want)
		}
		if got {
			passed++
		}
	}
	if passed < 300 || passed > 1_000 {
		t.Fatalf("%d of %d values pass, want about the primes among them", passed, len(ns))
	}
}

// TestJacobiAgreesWithBigInt checks the word Jacobi symbol against
// big.Jacobi for every D = P² − 4 the Lucas search can try first, and
// for random a up to 2³².
func TestJacobiAgreesWithBigInt(t *testing.T) {
	rng := mrand.New(mrand.NewSource(9))
	for i := 0; i < 300; i++ {
		n := randomOdd256(rng)
		w := newMont(bigToWords(n)).n
		as := []uint64{1, 2, 4, uint64(rng.Uint32()) + 1}
		for p := uint64(3); p <= 200; p++ {
			as = append(as, p*p-4)
		}
		for _, a := range as {
			if got, want := jacobi(a, &w), big.Jacobi(new(big.Int).SetUint64(a), n); got != want {
				t.Fatalf("jacobi(%d, %x) = %d, big.Jacobi says %d", a, n, got, want)
			}
		}
	}
}
