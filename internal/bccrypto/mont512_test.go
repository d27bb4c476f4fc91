package bccrypto

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"
)

// canonicalModulus returns the 64 bytes b as a modulus mont512 takes:
// bit 511 and bit 0 forced.
func canonicalModulus(b []byte) *big.Int {
	var buf [RSA512ModulusLen]byte
	copy(buf[:], b)
	buf[0] |= 0x80
	buf[RSA512ModulusLen-1] |= 1
	return new(big.Int).SetBytes(buf[:])
}

func u512ToBig(x *u512) *big.Int {
	var buf [RSA512ModulusLen]byte
	x.putBytes(buf[:])
	return new(big.Int).SetBytes(buf[:])
}

func bigToU512(t testing.TB, x *big.Int) u512 {
	t.Helper()
	var z u512
	if !loadInt(z[:], x) {
		t.Fatalf("%x does not fit 512 bits", x)
	}
	return z
}

// checkExp fails t unless the full exponentiation, the public-exponent
// ladder and the base-2 probe agree with big.Int.Exp on modulus n, base
// x < n, a full-width exponent d and a small exponent e > 0.
func checkExp(t testing.TB, n, x, d *big.Int, e uint64) {
	t.Helper()
	m, ok := newMont512(n)
	if !ok {
		t.Fatalf("modulus %x refused", n)
	}
	xw, dw := bigToU512(t, x), bigToU512(t, d)
	if got, want := m.pow(&xw, dw[:]), new(big.Int).Exp(x, d, n); u512ToBig(&got).Cmp(want) != 0 {
		t.Fatalf("pow(%x, %x) mod %x = %x, math/big says %x", x, d, n, u512ToBig(&got), want)
	}
	eb := new(big.Int).SetUint64(e)
	if got, want := m.powSmall(&xw, e), new(big.Int).Exp(x, eb, n); u512ToBig(&got).Cmp(want) != 0 {
		t.Fatalf("powSmall(%x, %d) mod %x = %x, math/big says %x", x, e, n, u512ToBig(&got), want)
	}
	// The pair-check probe raises 2 to e·d.
	ed := new(big.Int).Mul(eb, d)
	var edw [len(u512{}) + 1]uint64
	if !loadInt(edw[:], ed) {
		t.Fatalf("e·d = %x does not fit 576 bits", ed)
	}
	z := m.pow2(edw[:])
	z = m.fromMont(&z)
	if got, want := u512ToBig(&z), new(big.Int).Exp(big.NewInt(2), ed, n); got.Cmp(want) != 0 {
		t.Fatalf("pow2(%x) mod %x = %x, math/big says %x", ed, n, got, want)
	}
}

// checkCRT fails t unless signCRT signs x exactly as the full exponent
// does.
func checkCRT(t testing.TB, key *RSA512PrivateKey, x *big.Int) {
	t.Helper()
	m, ok := newMont512(key.N)
	if !ok {
		t.Fatal("generated modulus refused")
	}
	xw, dw := bigToU512(t, x), bigToU512(t, key.D)
	got, ok := signCRT(key, &m, &xw, &dw)
	if !ok {
		t.Fatalf("CRT refused %x under a generated key", x)
	}
	if want := m.pow(&xw, dw[:]); got != want {
		t.Fatalf("CRT signs %x as %x, the full exponent as %x", x, u512ToBig(&got), u512ToBig(&want))
	}
}

// checkRefusesUnreduced fails t unless Decrypt and Verify refuse c ≥ N.
func checkRefusesUnreduced(t testing.TB, key *RSA512PrivateKey, c []byte) {
	t.Helper()
	if new(big.Int).SetBytes(c).Cmp(key.N) < 0 {
		return
	}
	if _, err := DecryptRSA512(key, c); !errors.Is(err, ErrDecryption) {
		t.Fatalf("Decrypt of %x ≥ N: err = %v, want ErrDecryption", c, err)
	}
	if err := VerifyRSA512(&key.RSA512PublicKey, []byte("msg"), c); !errors.Is(err, ErrVerification) {
		t.Fatalf("Verify of %x ≥ N: err = %v, want ErrVerification", c, err)
	}
}

// sweepKeys returns count keys from a seeded stream.
func sweepKeys(t testing.TB, seed int64, count int) []*RSA512PrivateKey {
	t.Helper()
	stream := mrand.New(mrand.NewSource(seed))
	keys := make([]*RSA512PrivateKey, count)
	for i := range keys {
		k, err := GenerateRSA512(stream)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}

// TestRSA512ExpAgreesWithBigInt is the seeded tier-1 sample of
// FuzzRSA512Exp: the three exponentiations on random odd 512-bit moduli
// (bases 0, 1 and N − 1 among them), CRT signing against the full
// exponent, and Decrypt and Verify refusing an input ≥ N.
func TestRSA512ExpAgreesWithBigInt(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	draw := func(b []byte) []byte {
		rng.Read(b)
		return b
	}
	for i := 0; i < 300; i++ {
		n := canonicalModulus(draw(make([]byte, RSA512ModulusLen)))
		var x *big.Int
		switch i % 4 {
		case 0:
			x = big.NewInt(int64(i / 4 % 2)) // 0 or 1
		case 1:
			x = new(big.Int).Sub(n, bigOne)
		default:
			x = new(big.Int).Rand(rng, n)
		}
		d := new(big.Int).SetBytes(draw(make([]byte, 1+rng.Intn(RSA512ModulusLen))))
		e := []uint64{1, 2, 3, rsa512PublicExponent, uint64(rng.Int63n(1<<31)) + 1}[i%5]
		checkExp(t, n, x, d, e)
	}

	for _, key := range sweepKeys(t, 2, 4) {
		for _, x := range []*big.Int{bigOne, big.NewInt(2), new(big.Int).Sub(key.N, bigOne), key.P, key.Q, new(big.Int).Rand(rng, key.N)} {
			checkCRT(t, key, x)
		}
		for _, c := range [][]byte{key.N.Bytes(), new(big.Int).Add(key.N, bigOne).Bytes(), bytes.Repeat([]byte{0xff}, RSA512ModulusLen)} {
			checkRefusesUnreduced(t, key, c)
		}
	}
}

// FuzzRSA512Exp runs the agreement checks on arbitrary bytes: a modulus
// (bit 511 and bit 0 forced), a base, a full exponent and a small one
// for the exponentiations, and the base as a message and a ciphertext
// for CRT signing and the refusal of an input ≥ N under a seeded key.
func FuzzRSA512Exp(f *testing.F) {
	f.Add(make([]byte, RSA512ModulusLen), []byte{0}, []byte{1}, uint32(rsa512PublicExponent))
	f.Add(bytes.Repeat([]byte{0xff}, RSA512ModulusLen), bytes.Repeat([]byte{0xff}, RSA512ModulusLen), bytes.Repeat([]byte{0xff}, RSA512ModulusLen), uint32(1))
	key := sweepKeys(f, 3, 1)[0]
	f.Fuzz(func(t *testing.T, nb, xb, db []byte, e uint32) {
		if len(xb) > RSA512ModulusLen || len(db) > RSA512ModulusLen || e == 0 {
			return
		}
		n := canonicalModulus(nb)
		x := new(big.Int).SetBytes(xb)
		checkExp(t, n, new(big.Int).Mod(x, n), new(big.Int).SetBytes(db), uint64(e))
		checkCRT(t, key, new(big.Int).Mod(x, key.N))
		checkRefusesUnreduced(t, key, append(make([]byte, RSA512ModulusLen-len(xb)), xb...))
	})
}

// Allocation gates for the per-reading operations, each the measured
// count; on math/big they allocated 11 (encrypt), 26 (decrypt), 25
// (sign), 11 (verify) and 33 (MatchesPublic) times per call.
const (
	maxAllocsEncrypt = 2 // the returned block and fillNonZero's buffer
	maxAllocsDecrypt = 1 // the returned plaintext
	maxAllocsSign    = 1 // the returned signature
)

// TestRSA512Allocs is the tripwire for an RSA-512 operation reaching the
// heap again.
func TestRSA512Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	key, _ := testKeys(t)
	pub := key.Public()
	msg := make([]byte, CanonicalFrameLen)
	ct, err := EncryptRSA512(rand.Reader, pub, msg)
	if err != nil {
		t.Fatal(err)
	}
	sig := SignRSA512(key, msg)
	stream := mrand.New(mrand.NewSource(1))
	for _, c := range []struct {
		name string
		max  float64
		op   func()
	}{
		{"EncryptRSA512", maxAllocsEncrypt, func() { _, err = EncryptRSA512(stream, pub, msg) }},
		{"DecryptRSA512", maxAllocsDecrypt, func() { _, err = DecryptRSA512(key, ct) }},
		{"SignRSA512", maxAllocsSign, func() { SignRSA512(key, msg) }},
		{"VerifyRSA512", 0, func() { err = VerifyRSA512(pub, msg, sig) }},
		{"MatchesPublic", 0, func() { key.MatchesPublic(pub) }},
	} {
		if got := testing.AllocsPerRun(100, c.op); got > c.max {
			t.Errorf("%s allocates %v times per call, want ≤ %v", c.name, got, c.max)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// TestSignRSA512FallsBackWithoutFactors checks that a key holding only D,
// or factors that do not belong to it, signs with the full exponent and
// gives the CRT signature.
func TestSignRSA512FallsBackWithoutFactors(t *testing.T) {
	key, other := testKeys(t)
	msg := []byte("reading")
	want := SignRSA512(key, msg)
	onlyD := &RSA512PrivateKey{RSA512PublicKey: key.RSA512PublicKey, D: key.D}
	wrongFactors := &RSA512PrivateKey{RSA512PublicKey: key.RSA512PublicKey, D: key.D, P: other.P, Q: other.Q}
	for name, k := range map[string]*RSA512PrivateKey{"only D": onlyD, "foreign factors": wrongFactors} {
		if got := SignRSA512(k, msg); !bytes.Equal(got, want) {
			t.Errorf("%s: signature %x, want %x", name, got, want)
		}
	}
}

// TestRSA512RefusesNonCanonicalModulus checks the shape rule: the key
// decoders refuse a modulus that is even or below 2⁵¹¹, and the
// operations refuse a key built around one.
func TestRSA512RefusesNonCanonicalModulus(t *testing.T) {
	key, _ := testKeys(t)
	even := new(big.Int).Sub(key.N, bigOne)
	short := new(big.Int).Rsh(key.N, 1)
	for name, n := range map[string]*big.Int{"even": even, "below 2⁵¹¹": short} {
		pub := &RSA512PublicKey{N: n, E: key.E}
		if _, err := UnmarshalRSA512PublicKey(MarshalRSA512PublicKey(pub)); err == nil {
			t.Errorf("%s modulus: public key decodes", name)
		}
		priv := &RSA512PrivateKey{RSA512PublicKey: *pub, D: key.D}
		if _, err := UnmarshalRSA512PrivateKey(MarshalRSA512PrivateKey(priv)); err == nil {
			t.Errorf("%s modulus: private key decodes", name)
		}
		if priv.MatchesPublic(pub) {
			t.Errorf("%s modulus: pair check passes", name)
		}
		if _, err := EncryptRSA512(rand.Reader, pub, []byte("x")); err == nil {
			t.Errorf("%s modulus: encrypts", name)
		}
		if _, err := DecryptRSA512(priv, make([]byte, RSA512ModulusLen)); !errors.Is(err, ErrDecryption) {
			t.Errorf("%s modulus: decrypt err = %v, want ErrDecryption", name, err)
		}
		if err := VerifyRSA512(pub, nil, make([]byte, RSA512ModulusLen)); !errors.Is(err, ErrVerification) {
			t.Errorf("%s modulus: verify err = %v, want ErrVerification", name, err)
		}
	}
}
