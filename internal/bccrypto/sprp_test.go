package bccrypto

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"testing"
)

// sprp2Ref is the base-2 strong test in math/big: n − 1 = d·2^s with d
// odd; n passes if 2^d ≡ 1, or 2^(d·2^r) ≡ −1 for some r < s (mod n).
func sprp2Ref(n *big.Int) bool {
	nm1 := new(big.Int).Sub(n, bigOne)
	s := nm1.TrailingZeroBits()
	d := new(big.Int).Rsh(nm1, s)
	x := new(big.Int).Exp(big.NewInt(2), d, n)
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

// checkSPRP2 fails t unless sprp2 and sprp2Ref agree on n.
func checkSPRP2(t testing.TB, n [4]uint64) bool {
	t.Helper()
	got, want := sprp2(n), sprp2Ref(wordsToBig(n))
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
		sprp2(ns[i%len(ns)])
	}
}
