package bccrypto

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func newECKey(t testing.TB) *ECKey {
	t.Helper()
	key, err := GenerateECKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestECKeySignVerify(t *testing.T) {
	key := newECKey(t)
	digest := sha256.Sum256([]byte("transaction sighash preimage"))
	sig, err := key.SignDigest(rand.Reader, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyECDigest(key.PublicBytes(), digest[:], sig) {
		t.Fatal("valid signature rejected")
	}
	otherDigest := sha256.Sum256([]byte("other message"))
	if VerifyECDigest(key.PublicBytes(), otherDigest[:], sig) {
		t.Fatal("signature accepted for wrong message")
	}
	other := newECKey(t)
	if VerifyECDigest(other.PublicBytes(), digest[:], sig) {
		t.Fatal("signature accepted for wrong key")
	}
}

func TestECKeyPublicBytesFormat(t *testing.T) {
	key := newECKey(t)
	pub := key.PublicBytes()
	if len(pub) != ECPublicKeyLen {
		t.Fatalf("public key length = %d, want %d", len(pub), ECPublicKeyLen)
	}
	if pub[0] != 0x04 {
		t.Fatalf("public key prefix = %#x, want 0x04", pub[0])
	}
	if _, err := ParseECPublicKey(pub); err != nil {
		t.Fatalf("own public key unparseable: %v", err)
	}
}

func TestParseECPublicKeyRejects(t *testing.T) {
	key := newECKey(t)
	good := key.PublicBytes()

	cases := map[string][]byte{
		"short":      good[:10],
		"bad prefix": append([]byte{0x02}, good[1:]...),
		"off curve":  func() []byte { b := append([]byte(nil), good...); b[10] ^= 0xff; return b }(),
		"zero point": make([]byte, ECPublicKeyLen),
		"coord over p": func() []byte {
			b := append([]byte(nil), good...)
			for i := 1; i < 33; i++ {
				b[i] = 0xff
			}
			return b
		}(),
	}
	cases["zero point"][0] = 0x04
	for name, data := range cases {
		if _, err := ParseECPublicKey(data); err == nil {
			t.Errorf("%s: invalid key parsed", name)
		}
	}
}

// TestVerifyECDigestRejectsWhatParseRejects holds VerifyECDigest, which
// leaves the point checks to ecdsa.VerifyASN1, to ParseECPublicKey's
// verdict: every key the parser refuses fails a digest and signature
// that the real key verifies.
func TestVerifyECDigestRejectsWhatParseRejects(t *testing.T) {
	key := newECKey(t)
	good := key.PublicBytes()
	digest := sha256.Sum256([]byte("sighash"))
	sig, err := key.SignDigest(rand.Reader, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyECDigest(good, digest[:], sig) {
		t.Fatal("the real key rejects its own signature")
	}
	// The P-256 field prime.
	p, _ := hex.DecodeString("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	for _, c := range []struct {
		name string
		key  []byte
	}{
		{"short", good[:ECPublicKeyLen-1]},
		{"long", append(append([]byte(nil), good...), 0)},
		{"prefix 0x00", edit(func(b []byte) { b[0] = 0x00 })},
		{"prefix 0x02", edit(func(b []byte) { b[0] = 0x02 })},
		{"prefix 0x03", edit(func(b []byte) { b[0] = 0x03 })},
		{"x = p", edit(func(b []byte) { copy(b[1:33], p) })},
		{"y = p", edit(func(b []byte) { copy(b[33:], p) })},
		{"off curve", edit(func(b []byte) { b[64] ^= 1 })},
		{"zero coordinates", edit(func(b []byte) { clear(b[1:]) })},
	} {
		if _, err := ParseECPublicKey(c.key); err == nil {
			t.Errorf("%s: ParseECPublicKey accepts the key", c.name)
		}
		if VerifyECDigest(c.key, digest[:], sig) {
			t.Errorf("%s: VerifyECDigest accepts the key", c.name)
		}
	}
}

// maxAllocsVerifyECDigest is VerifyECDigest's measured count: the two
// coordinates and what ecdsa.VerifyASN1 allocates inside. Validating
// the key through crypto/ecdh first took it to 20.
const maxAllocsVerifyECDigest = 14

// TestVerifyECDigestAllocs is the tripwire for the key being decoded
// twice again: every P2PKH and Listing 1 input verifies one signature.
func TestVerifyECDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	key := newECKey(t)
	pub := key.PublicBytes()
	digest := sha256.Sum256([]byte("sighash"))
	sig, err := key.SignDigest(rand.Reader, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	if n := testing.AllocsPerRun(100, func() { ok = VerifyECDigest(pub, digest[:], sig) }); n > maxAllocsVerifyECDigest {
		t.Errorf("VerifyECDigest allocates %v times per call, want ≤ %d", n, maxAllocsVerifyECDigest)
	}
	if !ok {
		t.Fatal("valid signature rejected")
	}
}

func TestVerifyECRejectsGarbage(t *testing.T) {
	key := newECKey(t)
	digest := sha256.Sum256([]byte("msg"))
	if VerifyECDigest(key.PublicBytes(), digest[:], []byte("not-asn1")) {
		t.Fatal("garbage signature accepted")
	}
	if VerifyECDigest([]byte("not-a-key"), digest[:], []byte("sig")) {
		t.Fatal("garbage public key accepted")
	}
}

func TestAddressRoundTrip(t *testing.T) {
	key := newECKey(t)
	addr := key.Address()
	hash, err := PubKeyHashFromAddress(addr)
	if err != nil {
		t.Fatal(err)
	}
	if hash != key.PubKeyHash() {
		t.Fatal("address round trip mismatch")
	}
}

func TestAddressRejectsWrongVersion(t *testing.T) {
	h := Hash160([]byte("x"))
	foreign := Base58CheckEncode(0x00, h[:])
	if _, err := PubKeyHashFromAddress(foreign); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version error", err)
	}
}

func TestAddressRejectsWrongLength(t *testing.T) {
	bad := Base58CheckEncode(AddressVersion, []byte("short"))
	if _, err := PubKeyHashFromAddress(bad); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestAddressesDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 8; i++ {
		addr := newECKey(t).Address()
		if seen[addr] {
			t.Fatal("duplicate address generated")
		}
		seen[addr] = true
	}
}

func BenchmarkECSign(b *testing.B) {
	key := newECKey(b)
	digest := sha256.Sum256([]byte("benchmark message"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := key.SignDigest(rand.Reader, digest[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECVerify(b *testing.B) {
	key := newECKey(b)
	digest := sha256.Sum256([]byte("benchmark message"))
	sig, err := key.SignDigest(rand.Reader, digest[:])
	if err != nil {
		b.Fatal(err)
	}
	pub := key.PublicBytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !VerifyECDigest(pub, digest[:], sig) {
			b.Fatal("verify failed")
		}
	}
}

func TestECPrivateKeyMarshalRoundTrip(t *testing.T) {
	key := newECKey(t)
	data := key.MarshalECPrivateKey()
	if len(data) != 32 {
		t.Fatalf("encoded length = %d, want 32", len(data))
	}
	back, err := ParseECPrivateKey(data)
	if err != nil {
		t.Fatal(err)
	}
	if string(back.PublicBytes()) != string(key.PublicBytes()) {
		t.Fatal("public key changed in round trip")
	}
	// The restored key signs verifiably.
	digest := sha256.Sum256([]byte("msg"))
	sig, err := back.SignDigest(rand.Reader, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyECDigest(key.PublicBytes(), digest[:], sig) {
		t.Fatal("signature from restored key rejected")
	}
}

func TestParseECPrivateKeyRejects(t *testing.T) {
	if _, err := ParseECPrivateKey(make([]byte, 10)); err == nil {
		t.Error("short key accepted")
	}
	if _, err := ParseECPrivateKey(make([]byte, 32)); err == nil {
		t.Error("zero scalar accepted")
	}
	all := make([]byte, 32)
	for i := range all {
		all[i] = 0xff
	}
	if _, err := ParseECPrivateKey(all); err == nil {
		t.Error("out-of-range scalar accepted")
	}
}
