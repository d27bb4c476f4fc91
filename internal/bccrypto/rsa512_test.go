package bccrypto

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/big"
	mrand "math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// testKeys caches generated keypairs: RSA-512 keygen costs tens of
// milliseconds and many tests only need *a* valid key.
var (
	testKeyOnce sync.Once
	testKeyA    *RSA512PrivateKey
	testKeyB    *RSA512PrivateKey
)

func testKeys(t testing.TB) (*RSA512PrivateKey, *RSA512PrivateKey) {
	t.Helper()
	testKeyOnce.Do(func() {
		var err error
		testKeyA, err = GenerateRSA512(rand.Reader)
		if err != nil {
			panic(err)
		}
		testKeyB, err = GenerateRSA512(rand.Reader)
		if err != nil {
			panic(err)
		}
	})
	return testKeyA, testKeyB
}

func TestGenerateRSA512Properties(t *testing.T) {
	key, _ := testKeys(t)
	if got := key.N.BitLen(); got != RSA512Bits {
		t.Errorf("modulus bit length = %d, want %d", got, RSA512Bits)
	}
	if key.E != 65537 {
		t.Errorf("public exponent = %d, want 65537", key.E)
	}
	// n = p·q must hold.
	if pq := new(big.Int).Mul(key.P, key.Q); pq.Cmp(key.N) != 0 {
		t.Error("N != P*Q")
	}
	// e·d ≡ 1 mod φ(n).
	one := big.NewInt(1)
	phi := new(big.Int).Mul(new(big.Int).Sub(key.P, one), new(big.Int).Sub(key.Q, one))
	ed := new(big.Int).Mul(big.NewInt(key.E), key.D)
	if new(big.Int).Mod(ed, phi).Cmp(one) != 0 {
		t.Error("e*d mod phi(n) != 1")
	}
}

// TestGenerateRSA512Contract pins what every caller of GenerateRSA512
// relies on, over enough keys to meet the rare branches: a 512-bit
// modulus (which is why keygen needs no bit-length retry), two distinct
// 256-bit primes drawn the way crypto/rand.Prime draws them and passing
// the same ProbablyPrime(20), a matching private exponent, and a working
// encrypt/decrypt pair.
func TestGenerateRSA512Contract(t *testing.T) {
	one := big.NewInt(1)
	for i := 0; i < 200; i++ {
		key, err := GenerateRSA512(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if got := key.N.BitLen(); got != RSA512Bits {
			t.Fatalf("key %d: modulus has %d bits, want %d", i, got, RSA512Bits)
		}
		if key.P.Cmp(key.Q) == 0 {
			t.Fatalf("key %d: p == q", i)
		}
		if pq := new(big.Int).Mul(key.P, key.Q); pq.Cmp(key.N) != 0 {
			t.Fatalf("key %d: N != P*Q", i)
		}
		for name, prime := range map[string]*big.Int{"p": key.P, "q": key.Q} {
			if prime.BitLen() != RSA512Bits/2 || prime.Bit(RSA512Bits/2-2) != 1 {
				t.Fatalf("key %d: %s = %x lacks its top two bits", i, name, prime)
			}
			if !prime.ProbablyPrime(20) {
				t.Fatalf("key %d: %s = %x is composite", i, name, prime)
			}
		}
		phi := new(big.Int).Mul(new(big.Int).Sub(key.P, one), new(big.Int).Sub(key.Q, one))
		ed := new(big.Int).Mul(big.NewInt(key.E), key.D)
		if ed.Mod(ed, phi).Cmp(one) != 0 {
			t.Fatalf("key %d: e*d mod phi(n) != 1", i)
		}
		msg := []byte("reading")
		ct, err := EncryptRSA512(rand.Reader, key.Public(), msg)
		if err != nil {
			t.Fatal(err)
		}
		if pt, err := DecryptRSA512(key, ct); err != nil || !bytes.Equal(pt, msg) {
			t.Fatalf("key %d: decrypt = %q, %v", i, pt, err)
		}
	}
}

// TestGenerateRSA512SameStreamSameKey: the key is a function of the
// bytes read, so a seeded reader reproduces it.
func TestGenerateRSA512SameStreamSameKey(t *testing.T) {
	a, err := GenerateRSA512(mrand.New(mrand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateRSA512(mrand.New(mrand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(MarshalRSA512PrivateKey(a), MarshalRSA512PrivateKey(b)) || a.P.Cmp(b.P) != 0 || a.Q.Cmp(b.Q) != 0 {
		t.Fatal("the same byte stream produced two different keys")
	}
	c, err := GenerateRSA512(mrand.New(mrand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if a.N.Cmp(c.N) == 0 {
		t.Fatal("different byte streams produced the same key")
	}
}

// goldenKeySeeds is how many seeded streams TestGenerateRSA512GoldenKeys
// pins.
const goldenKeySeeds = 1000

// TestGenerateRSA512GoldenKeys pins the keys of seeds 1…goldenKeySeeds:
// testdata/rsa512_golden_keys.sha256 is the SHA-256 over their marshalled
// private keys, in seed order, recorded before the base-2 prefilter
// existed. Any change to how a stream becomes a key — the draw, the
// sieve, which candidates reach ProbablyPrime — shows up here.
func TestGenerateRSA512GoldenKeys(t *testing.T) {
	want, err := os.ReadFile("testdata/rsa512_golden_keys.sha256")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for seed := int64(1); seed <= goldenKeySeeds; seed++ {
		key, err := GenerateRSA512(mrand.New(mrand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(MarshalRSA512PrivateKey(key))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != strings.TrimSpace(string(want)) {
		t.Fatalf("keys of seeds 1…%d hash to %s, golden %s", goldenKeySeeds, got, want)
	}
}

// The bounds on GenerateRSA512's heap use per key. A key costs 22
// allocations and 2.3 kB, none of it in the primality test.
// Before keygen accepted on BPSW alone, the Miller–Rabin bases'
// math/rand source added 5 kB (24 allocations, 7.8 kB). With
// ProbablyPrime(20) back on the accepted primes a key costs ≈ 944
// allocations and 97 kB; with every sieve survivor reaching math/big,
// ≈ 1 520 and 254 kB.
const (
	maxAllocsPerKey = 30
	maxBytesPerKey  = 4 << 10
)

// TestGenerateRSA512Allocs is the tripwire for primality testing
// reaching math/big again; the heap use of a seeded key stream is
// deterministic.
func TestGenerateRSA512Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const keys = 20
	stream := mrand.New(mrand.NewSource(11))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < keys; i++ {
		if _, err := GenerateRSA512(stream); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	t.Logf("%d allocations, %d bytes per key", (after.Mallocs-before.Mallocs)/keys, (after.TotalAlloc-before.TotalAlloc)/keys)
	if allocs := (after.Mallocs - before.Mallocs) / keys; allocs > maxAllocsPerKey {
		t.Errorf("GenerateRSA512 allocates %d times per key, want ≤ %d", allocs, maxAllocsPerKey)
	}
	if bytes := (after.TotalAlloc - before.TotalAlloc) / keys; bytes > maxBytesPerKey {
		t.Errorf("GenerateRSA512 allocates %d bytes per key, want ≤ %d", bytes, maxBytesPerKey)
	}
}

// failingReader yields n bytes of a seeded stream, then errBrokenReader.
type failingReader struct {
	src io.Reader
	n   int
}

var errBrokenReader = errors.New("entropy source broke")

func (r *failingReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, errBrokenReader
	}
	if len(p) > r.n {
		p = p[:r.n]
	}
	n, err := r.src.Read(p)
	r.n -= n
	return n, err
}

func TestGenerateRSA512PropagatesReaderError(t *testing.T) {
	// 0: before the first draw; 16: inside it; 48: inside the second
	// draw, whichever prime it belongs to.
	for _, n := range []int{0, 16, 48} {
		_, err := GenerateRSA512(&failingReader{src: mrand.New(mrand.NewSource(1)), n: n})
		if !errors.Is(err, errBrokenReader) {
			t.Errorf("reader failing after %d bytes: err = %v, want errBrokenReader", n, err)
		}
	}
}

// TestPrimeSearchFindsFirstPrimeAtOrAboveDraw checks the sieve against
// the search it replaces: from the same 32 bytes, testing every odd
// number in turn with ProbablyPrime(20) must stop at the same prime.
func TestPrimeSearchFindsFirstPrimeAtOrAboveDraw(t *testing.T) {
	var search primeSearch
	for seed := int64(1); seed <= 25; seed++ {
		got, err := search.next(mrand.New(mrand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		var draw [rsa512PrimeLen]byte
		if _, err := io.ReadFull(mrand.New(mrand.NewSource(seed)), draw[:]); err != nil {
			t.Fatal(err)
		}
		draw[0] |= 0xc0
		draw[rsa512PrimeLen-1] |= 1
		want := new(big.Int).SetBytes(draw[:])
		for !want.ProbablyPrime(20) {
			want.Add(want, big.NewInt(2))
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %d: sieve search found %x, plain search %x", seed, got, want)
		}
	}
}

// TestPrimeSearchRedrawsPastTopOfRange: a draw whose window would carry
// out of 256 bits is abandoned, not wrapped.
func TestPrimeSearchRedrawsPastTopOfRange(t *testing.T) {
	var search primeSearch
	stream := io.MultiReader(bytes.NewReader(bytes.Repeat([]byte{0xff}, rsa512PrimeLen)), mrand.New(mrand.NewSource(3)))
	p, err := search.next(stream)
	if err != nil {
		t.Fatal(err)
	}
	if p.BitLen() != RSA512Bits/2 || p.Bit(RSA512Bits/2-2) != 1 || !p.ProbablyPrime(20) {
		t.Fatalf("after an all-ones draw the search returned %x", p)
	}
}

func TestRSA512EncryptDecryptRoundTrip(t *testing.T) {
	key, _ := testKeys(t)
	for _, size := range []int{0, 1, 16, 34, 53} {
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		ct, err := EncryptRSA512(rand.Reader, key.Public(), msg)
		if err != nil {
			t.Fatalf("encrypt %d bytes: %v", size, err)
		}
		if len(ct) != RSA512ModulusLen {
			t.Fatalf("ciphertext length = %d, want %d", len(ct), RSA512ModulusLen)
		}
		pt, err := DecryptRSA512(key, ct)
		if err != nil {
			t.Fatalf("decrypt %d bytes: %v", size, err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("round trip %d bytes: got %x, want %x", size, pt, msg)
		}
	}
}

func TestRSA512EncryptTooLong(t *testing.T) {
	key, _ := testKeys(t)
	msg := make([]byte, RSA512ModulusLen-10)
	if _, err := EncryptRSA512(rand.Reader, key.Public(), msg); !errors.Is(err, ErrMessageTooLong) {
		t.Fatalf("err = %v, want ErrMessageTooLong", err)
	}
}

func TestRSA512DecryptWrongKeyFails(t *testing.T) {
	keyA, keyB := testKeys(t)
	ct, err := EncryptRSA512(rand.Reader, keyA.Public(), []byte("sensor reading"))
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := DecryptRSA512(keyB, ct); err == nil {
		t.Fatalf("decrypt with wrong key succeeded: %x", pt)
	}
}

func TestRSA512DecryptRejectsBadLength(t *testing.T) {
	key, _ := testKeys(t)
	if _, err := DecryptRSA512(key, make([]byte, 10)); !errors.Is(err, ErrDecryption) {
		t.Fatalf("err = %v, want ErrDecryption", err)
	}
}

func TestRSA512SignVerify(t *testing.T) {
	key, _ := testKeys(t)
	msg := []byte("Em || ePk payload to authenticate")
	sig := SignRSA512(key, msg)
	if len(sig) != RSA512ModulusLen {
		t.Fatalf("signature length = %d, want %d", len(sig), RSA512ModulusLen)
	}
	if err := VerifyRSA512(key.Public(), msg, sig); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestRSA512VerifyRejectsTamperedMessage(t *testing.T) {
	key, _ := testKeys(t)
	sig := SignRSA512(key, []byte("original"))
	if err := VerifyRSA512(key.Public(), []byte("tampered"), sig); !errors.Is(err, ErrVerification) {
		t.Fatalf("err = %v, want ErrVerification", err)
	}
}

func TestRSA512VerifyRejectsTamperedSignature(t *testing.T) {
	key, _ := testKeys(t)
	msg := []byte("original")
	sig := SignRSA512(key, msg)
	sig[10] ^= 0x01
	if err := VerifyRSA512(key.Public(), msg, sig); !errors.Is(err, ErrVerification) {
		t.Fatalf("err = %v, want ErrVerification", err)
	}
}

func TestRSA512VerifyRejectsWrongKey(t *testing.T) {
	keyA, keyB := testKeys(t)
	msg := []byte("original")
	sig := SignRSA512(keyA, msg)
	if err := VerifyRSA512(keyB.Public(), msg, sig); !errors.Is(err, ErrVerification) {
		t.Fatalf("err = %v, want ErrVerification", err)
	}
}

func TestMatchesPublic(t *testing.T) {
	keyA, keyB := testKeys(t)
	if !keyA.MatchesPublic(keyA.Public()) {
		t.Error("key does not match its own public half")
	}
	if keyA.MatchesPublic(keyB.Public()) {
		t.Error("key matches a foreign public key")
	}
	// A forged private key with the right modulus but wrong exponent must
	// not pass: this is exactly the cheating gateway OP_CHECKRSA512PAIR
	// defends against.
	forged := &RSA512PrivateKey{
		RSA512PublicKey: *keyA.Public(),
		D:               new(big.Int).Add(keyA.D, big.NewInt(2)),
	}
	if forged.MatchesPublic(keyA.Public()) {
		t.Error("forged private exponent passes pair check")
	}
}

func TestMatchesPublicNilSafety(t *testing.T) {
	keyA, _ := testKeys(t)
	var nilKey *RSA512PrivateKey
	if nilKey.MatchesPublic(keyA.Public()) {
		t.Error("nil private key matches")
	}
	if keyA.MatchesPublic(nil) {
		t.Error("matches nil public key")
	}
}

func TestRSA512PublicKeyMarshalRoundTrip(t *testing.T) {
	key, _ := testKeys(t)
	data := MarshalRSA512PublicKey(key.Public())
	if len(data) != 8+RSA512ModulusLen {
		t.Fatalf("encoded length = %d, want %d", len(data), 8+RSA512ModulusLen)
	}
	back, err := UnmarshalRSA512PublicKey(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.N.Cmp(key.N) != 0 || back.E != key.E {
		t.Fatal("public key round trip mismatch")
	}
}

func TestRSA512PrivateKeyMarshalRoundTrip(t *testing.T) {
	key, _ := testKeys(t)
	data := MarshalRSA512PrivateKey(key)
	back, err := UnmarshalRSA512PrivateKey(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.N.Cmp(key.N) != 0 || back.D.Cmp(key.D) != 0 {
		t.Fatal("private key round trip mismatch")
	}
	// The deserialized key (without P/Q) must still decrypt and pass the
	// pair check — the gateway's claim script carries exactly this form.
	ct, err := EncryptRSA512(rand.Reader, key.Public(), []byte("frame"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := DecryptRSA512(back, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, []byte("frame")) {
		t.Fatal("deserialized key decryption mismatch")
	}
	if !back.MatchesPublic(key.Public()) {
		t.Fatal("deserialized key fails pair check")
	}
}

func TestUnmarshalRSA512Rejects(t *testing.T) {
	if _, err := UnmarshalRSA512PublicKey(make([]byte, 5)); err == nil {
		t.Error("short public key accepted")
	}
	if _, err := UnmarshalRSA512PublicKey(make([]byte, 8+RSA512ModulusLen)); err == nil {
		t.Error("all-zero public key accepted")
	}
	if _, err := UnmarshalRSA512PrivateKey(make([]byte, 5)); err == nil {
		t.Error("short private key accepted")
	}
}

func BenchmarkGenerateRSA512(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateRSA512(rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// The RSA-512 benchmarks run each operation twice: as the package does
// it (engine) and as big.Int.Exp does its exponentiation on the same
// operands (bigref), so the ratio of the two comes from one process.

// benchRSA512 runs op as the engine sub-benchmark, and Exp(x, y, m),
// then Exp(result, y2, m) when y2 is not nil, as bigref.
func benchRSA512(b *testing.B, op func(), x, y, y2, m *big.Int) {
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
	b.Run("bigref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			z := new(big.Int).Exp(x, y, m)
			if y2 != nil {
				z.Exp(z, y2, m)
			}
		}
	})
}

func BenchmarkRSA512Encrypt(b *testing.B) {
	key, _ := testKeys(b)
	pub := key.Public()
	msg := make([]byte, CanonicalFrameLen)
	stream := mrand.New(mrand.NewSource(1))
	ct, err := EncryptRSA512(stream, pub, msg)
	if err != nil {
		b.Fatal(err)
	}
	// The padded block ct encrypts is what Exp raises to e.
	padded := new(big.Int).Exp(new(big.Int).SetBytes(ct), key.D, key.N)
	benchRSA512(b, func() {
		if _, err := EncryptRSA512(stream, pub, msg); err != nil {
			b.Fatal(err)
		}
	}, padded, big.NewInt(key.E), nil, key.N)
}

func BenchmarkRSA512Decrypt(b *testing.B) {
	key, _ := testKeys(b)
	ct, err := EncryptRSA512(rand.Reader, key.Public(), make([]byte, CanonicalFrameLen))
	if err != nil {
		b.Fatal(err)
	}
	benchRSA512(b, func() {
		if _, err := DecryptRSA512(key, ct); err != nil {
			b.Fatal(err)
		}
	}, new(big.Int).SetBytes(ct), key.D, nil, key.N)
}

// BenchmarkRSA512Sign signs with a generated key, which holds its
// factors and so signs by CRT.
func BenchmarkRSA512Sign(b *testing.B) {
	key, _ := testKeys(b)
	msg := make([]byte, 2*RSA512ModulusLen)
	var em [RSA512ModulusLen]byte
	padSignature(&em, msg)
	benchRSA512(b, func() { SignRSA512(key, msg) }, new(big.Int).SetBytes(em[:]), key.D, nil, key.N)
}

func BenchmarkRSA512Verify(b *testing.B) {
	key, _ := testKeys(b)
	pub := key.Public()
	msg := make([]byte, 2*RSA512ModulusLen)
	sig := SignRSA512(key, msg)
	benchRSA512(b, func() {
		if err := VerifyRSA512(pub, msg, sig); err != nil {
			b.Fatal(err)
		}
	}, new(big.Int).SetBytes(sig), big.NewInt(key.E), nil, key.N)
}

// BenchmarkRSA512PairCheck is OP_CHECKRSA512PAIR's work; its bigref is
// the probe as math/big ran it, (2^e mod N)^D mod N.
func BenchmarkRSA512PairCheck(b *testing.B) {
	key, _ := testKeys(b)
	pub := key.Public()
	benchRSA512(b, func() {
		if !key.MatchesPublic(pub) {
			b.Fatal("key fails its own pair check")
		}
	}, big.NewInt(2), big.NewInt(key.E), key.D, key.N)
}
