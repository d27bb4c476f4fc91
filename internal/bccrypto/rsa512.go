package bccrypto

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// RSA-512, built here from scratch.
//
// The paper deliberately chooses RSA-512 (§6): the LoRa payload budget is
// tiny, and the cost of factoring a 512-bit modulus exceeds the value of
// the micro-payment each ephemeral key protects. Go's crypto/rsa refuses
// keys under 1024 bits. The same code also powers the node's message
// signature (Sk/Pk in Fig. 3) and the OP_CHECKRSA512PAIR script
// operator's private/public pair check. Keys hold *big.Int, and keygen
// forms N, φ and D in math/big; every operation on a reading runs in
// fixed-width Montgomery arithmetic (mont512.go) and allocates at most
// the slice it returns. That arithmetic needs an odd modulus with bit
// 511 set, which every key GenerateRSA512 mints has, and the key
// decoders refuse any other.

// RSA512Bits is the modulus size of every key produced by GenerateRSA512.
const RSA512Bits = 512

// RSA512ModulusLen is the modulus length in bytes: ciphertexts and
// signatures are exactly this long, matching the paper's 64-byte blocks
// (Em and Sig are 64 bytes each, giving the 128-byte minimum payload).
const RSA512ModulusLen = RSA512Bits / 8

const rsa512PublicExponent = 65537

var (
	// ErrMessageTooLong reports a plaintext that cannot fit the padded
	// modulus.
	ErrMessageTooLong = errors.New("bccrypto: message too long for RSA-512 block")
	// ErrDecryption reports an undecryptable or badly padded ciphertext.
	ErrDecryption = errors.New("bccrypto: RSA-512 decryption error")
	// ErrVerification reports a signature that does not match.
	ErrVerification = errors.New("bccrypto: RSA-512 verification error")
	// ErrKeyPairMismatch reports a private key that does not correspond
	// to the presented public key (the OP_CHECKRSA512PAIR failure case).
	ErrKeyPairMismatch = errors.New("bccrypto: RSA-512 key pair mismatch")

	errModulus = errors.New("bccrypto: RSA-512 modulus is not odd with bit 511 set")
)

// RSA512PublicKey is a 512-bit RSA public key.
type RSA512PublicKey struct {
	N *big.Int // modulus
	E int64    // public exponent
}

// RSA512PrivateKey is a 512-bit RSA private key, carrying its public half.
type RSA512PrivateKey struct {
	RSA512PublicKey
	D *big.Int // private exponent
	P *big.Int // prime factor 1
	Q *big.Int // prime factor 2
}

var (
	rsa512E = big.NewInt(rsa512PublicExponent)
	bigOne  = big.NewInt(1)
)

// GenerateRSA512 creates a fresh 512-bit keypair from the given entropy
// source. BcWAN gateways call this once per message to mint the ephemeral
// pair (ePk, eSk) of Fig. 3 step 1. The key is a function of the bytes
// read: the same stream yields the same key.
func GenerateRSA512(random io.Reader) (*RSA512PrivateKey, error) {
	var search primeSearch
	for {
		p, err := search.next(random)
		if err != nil {
			return nil, fmt.Errorf("generate prime p: %w", err)
		}
		q, err := search.next(random)
		if err != nil {
			return nil, fmt.Errorf("generate prime q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		// Both primes have their top two bits set, so n has exactly
		// RSA512Bits bits. φ(n) = (p−1)(q−1) = n − p − q + 1.
		n := new(big.Int).Mul(p, q)
		phi := new(big.Int).Sub(n, p)
		phi.Sub(phi, q).Add(phi, bigOne)
		d := new(big.Int).ModInverse(rsa512E, phi)
		if d == nil {
			// e not invertible mod phi; retry with new primes.
			continue
		}
		return &RSA512PrivateKey{
			RSA512PublicKey: RSA512PublicKey{N: n, E: rsa512PublicExponent},
			D:               d,
			P:               p,
			Q:               q,
		}, nil
	}
}

const (
	rsa512PrimeLen = RSA512Bits / 2 / 8
	// sieveWindow is how many consecutive odd numbers one random draw
	// covers. One odd 256-bit number in 89 is prime, so a window comes
	// up empty about once in 10⁵ draws (and is then simply drawn again).
	sieveWindow = 1024
	// sievePrimeBound bounds the trial-division table: the 1 000 primes
	// below 7 920. Sieving by them leaves about one odd number in eight,
	// of which one in eleven is prime.
	sievePrimeBound = 7920
)

// sievePrimes is the odd primes below sievePrimeBound.
var sievePrimes = func() []uint64 {
	var composite [sievePrimeBound]bool
	var primes []uint64
	for n := 3; n < sievePrimeBound; n += 2 {
		if composite[n] {
			continue
		}
		primes = append(primes, uint64(n))
		for m := n * n; m < sievePrimeBound; m += 2 * n {
			composite[m] = true
		}
	}
	return primes
}()

// primeSearch finds 256-bit primes for GenerateRSA512 and holds the
// scratch both searches of one key share. It draws candidates exactly as
// crypto/rand.Prime does — 32 random bytes, top two bits and low bit set
// — and accepts on BPSW, math/big's ProbablyPrime(0). A draw is sieved
// against sievePrimes in word arithmetic, and a survivor takes BPSW in
// fixed-width arithmetic (sprp.go): no candidate reaches math/big.
type primeSearch struct {
	buf       [rsa512PrimeLen]byte
	composite [sieveWindow]bool
}

// next returns the first probable prime at or above a fresh random draw,
// drawing again if the draw's window holds none.
func (ps *primeSearch) next(random io.Reader) (*big.Int, error) {
	for {
		if _, err := io.ReadFull(random, ps.buf[:]); err != nil {
			return nil, err
		}
		ps.buf[0] |= 0xc0
		ps.buf[rsa512PrimeLen-1] |= 1
		var base [rsa512PrimeLen / 8]uint64 // most significant word first
		for i := range base {
			base[i] = binary.BigEndian.Uint64(ps.buf[8*i:])
		}
		ps.sieve(base)

		for k := range ps.composite {
			if ps.composite[k] {
				continue
			}
			cand, carry := base, uint64(2*k)
			for i := len(cand) - 1; i >= 0; i-- {
				cand[i], carry = bits.Add64(cand[i], carry, 0)
			}
			if carry != 0 {
				break // the window ran past 2²⁵⁶
			}
			if probablyPrime(cand) {
				for i, w := range cand {
					binary.BigEndian.PutUint64(ps.buf[8*i:], w)
				}
				return new(big.Int).SetBytes(ps.buf[:]), nil
			}
		}
	}
}

// sieve sets composite[k] for every base+2k a table prime divides.
func (ps *primeSearch) sieve(base [rsa512PrimeLen / 8]uint64) {
	ps.composite = [sieveWindow]bool{}
	for _, p := range sievePrimes {
		var r uint64
		for _, w := range base {
			r = bits.Rem64(r, w, p)
		}
		// base+2k ≡ 0 (mod p) first at k ≡ −r·2⁻¹, and 2⁻¹ is (p+1)/2.
		for k := (p - r) % p * ((p + 1) / 2) % p; k < sieveWindow; k += p {
			ps.composite[k] = true
		}
	}
}

// Public returns the public half of the key.
func (k *RSA512PrivateKey) Public() *RSA512PublicKey {
	return &RSA512PublicKey{N: new(big.Int).Set(k.N), E: k.E}
}

// MatchesPublic reports whether the private key passes the pair check
// the script operator OP_CHECKRSA512PAIR exposes on-chain: the same
// modulus and exponent, and one probe, 2^(e·D) ≡ 2 (mod N). It does not
// read P or Q. The probe does not prove that D decrypts under N: the
// party that made the key can pass it with a D that does not (ROADMAP
// item 22). A key whose modulus is not odd with bit 511 set, or whose
// E or D is not positive, fails.
func (k *RSA512PrivateKey) MatchesPublic(pub *RSA512PublicKey) bool {
	if k == nil || pub == nil || k.N == nil || pub.N == nil || k.D == nil {
		return false
	}
	if k.N.Cmp(pub.N) != 0 || k.E != pub.E || pub.E <= 0 {
		return false
	}
	m, ok := newMont512(pub.N)
	var ed [len(u512{}) + 1]uint64
	if !ok || !loadInt(ed[:len(u512{})], k.D) {
		return false
	}
	// Probe: x^(e·d) mod n must equal x for x coprime to n; here x = 2,
	// and 2^(e·d) is one ladder over the bits of the product e·d.
	var c uint64
	for i := range ed {
		c, ed[i] = madd(ed[i], uint64(pub.E), 0, c)
	}
	two := m.add(&m.one, &m.one)
	return m.pow2(ed[:]) == two
}

// EncryptRSA512 encrypts msg under pub with randomized PKCS#1-v1.5-style
// padding (0x00 0x02 nonzero-random 0x00 msg). Maximum plaintext length is
// RSA512ModulusLen-11 = 53 bytes, which comfortably fits the paper's
// 34-byte Fig. 4 frame.
func EncryptRSA512(random io.Reader, pub *RSA512PublicKey, msg []byte) ([]byte, error) {
	k := RSA512ModulusLen
	if len(msg) > k-11 {
		return nil, ErrMessageTooLong
	}
	m, ok := newMont512(pub.N)
	if !ok || pub.E <= 0 {
		return nil, errModulus
	}
	em := make([]byte, k)
	em[0] = 0x00
	em[1] = 0x02
	ps := em[2 : k-len(msg)-1]
	if err := fillNonZero(random, ps); err != nil {
		return nil, fmt.Errorf("pad: %w", err)
	}
	em[k-len(msg)-1] = 0x00
	copy(em[k-len(msg):], msg)

	var x u512
	x.setBytes(em)
	c := m.powSmall(&x, uint64(pub.E))
	c.putBytes(em)
	return em, nil
}

// DecryptRSA512 reverses EncryptRSA512. The recipient holds only the
// disclosed D, so decryption always takes the full 512-bit exponent.
func DecryptRSA512(priv *RSA512PrivateKey, ciphertext []byte) ([]byte, error) {
	m, ok := newMont512(priv.N)
	var d, c u512
	if !ok || !loadInt(d[:], priv.D) || len(ciphertext) != RSA512ModulusLen {
		return nil, ErrDecryption
	}
	if c.setBytes(ciphertext); !m.less(&c) {
		return nil, ErrDecryption
	}
	x := m.pow(&c, d[:])
	var em [RSA512ModulusLen]byte
	x.putBytes(em[:])
	if em[0] != 0x00 || em[1] != 0x02 {
		return nil, ErrDecryption
	}
	// Find the 0x00 separator after at least 8 padding bytes.
	sep := bytes.IndexByte(em[2:], 0x00)
	if sep < 8 {
		return nil, ErrDecryption
	}
	return append([]byte(nil), em[2+sep+1:]...), nil
}

// SignRSA512 signs the SHA-256 digest of msg: s = pad(hash)^d mod n.
// The node uses this with its provisioned secret key Sk to authenticate
// (Em ‖ ePk) toward the recipient (Fig. 3 step 4). A key that holds its
// factors signs by CRT (signCRT), any other with the full exponent; the
// signature is the same. It panics on a key that neither GenerateRSA512
// nor UnmarshalRSA512PrivateKey could have made.
func SignRSA512(priv *RSA512PrivateKey, msg []byte) []byte {
	m, ok := newMont512(priv.N)
	var d u512
	if !ok || !loadInt(d[:], priv.D) {
		panic("bccrypto: SignRSA512 needs an odd 512-bit modulus and 0 ≤ D < 2⁵¹²")
	}
	var em [RSA512ModulusLen]byte
	padSignature(&em, msg)
	var x u512
	x.setBytes(em[:])
	s, ok := signCRT(priv, &m, &x, &d)
	if !ok {
		s = m.pow(&x, d[:])
	}
	out := make([]byte, RSA512ModulusLen)
	s.putBytes(out)
	return out
}

// signCRT returns x^D mod N from the key's factors, as crypto/rsa signs:
// x^(D mod (P−1)) mod P and x^(D mod (Q−1)) mod Q, two 256-bit
// exponentiations on sprp.go's mont, joined by Garner's formula
// s = s_Q + Q·((s_P − s_Q)·Q⁻¹ mod P) with Q⁻¹ = Q^(P−2) mod P. Like
// crypto/rsa it checks s^E ≡ x (mod N), so neither a fault nor factors
// that do not belong to N and D yield a signature. ok is false then, and
// when P or Q is missing or not odd with bit 255 set.
func signCRT(priv *RSA512PrivateKey, mn *mont512, x, d *u512) (s u512, ok bool) {
	var p, q u256
	if priv.P == nil || priv.Q == nil || priv.E <= 0 || !loadInt(p[:], priv.P) || !loadInt(q[:], priv.Q) ||
		p[3]>>63 == 0 || q[3]>>63 == 0 || p[0]&1 == 0 || q[0]&1 == 0 {
		return s, false
	}
	mp := newMont([4]uint64{p[3], p[2], p[1], p[0]})
	mq := newMont([4]uint64{q[3], q[2], q[1], q[0]})
	sp, sq := mp.powCRT(x, d), mq.powCRT(x, d)
	// s_Q < Q < 2P, as both factors lie in [2²⁵⁵, 2²⁵⁶).
	sqp := sq
	if r, borrow := subBorrow(&sq, &mp.n); borrow == 0 {
		sqp = r
	}
	diff := mp.sub(&sp, &sqp)
	pm2, _ := subBorrow(&mp.n, &u256{2})
	qm := mp.toMont(q[:])
	qinv := mp.pow(&qm, &pm2)
	h := mp.mul(&diff, &qinv)
	// s = s_Q + h·Q, below P·Q.
	copy(s[:], sq[:])
	for i, hi := range h {
		var c uint64
		for j, qj := range q {
			c, s[i+j] = madd(hi, qj, s[i+j], c)
		}
		s[i+len(q)] = c
	}
	if !mn.less(&s) || mn.powSmall(&s, uint64(priv.E)) != *x {
		return s, false
	}
	return s, true
}

// VerifyRSA512 checks a SignRSA512 signature against pub.
func VerifyRSA512(pub *RSA512PublicKey, msg, sig []byte) error {
	m, ok := newMont512(pub.N)
	var s u512
	if !ok || pub.E <= 0 || len(sig) != RSA512ModulusLen {
		return ErrVerification
	}
	if s.setBytes(sig); !m.less(&s) {
		return ErrVerification
	}
	x := m.powSmall(&s, uint64(pub.E))
	var em, want [RSA512ModulusLen]byte
	x.putBytes(em[:])
	padSignature(&want, msg)
	if em != want {
		return ErrVerification
	}
	return nil
}

// padSignature writes the deterministic 0x00 0x01 0xFF… 0x00 block of
// msg's SHA-256 digest into em.
func padSignature(em *[RSA512ModulusLen]byte, msg []byte) {
	k := len(em) - sha256.Size
	em[0] = 0x00
	em[1] = 0x01
	for i := 2; i < k-1; i++ {
		em[i] = 0xff
	}
	em[k-1] = 0x00
	digest := sha256.Sum256(msg)
	copy(em[k:], digest[:])
}

func fillNonZero(random io.Reader, out []byte) error {
	buf := make([]byte, len(out))
	i := 0
	for i < len(out) {
		if _, err := io.ReadFull(random, buf); err != nil {
			return err
		}
		for _, b := range buf {
			if b != 0 && i < len(out) {
				out[i] = b
				i++
			}
		}
	}
	return nil
}

func leftPad(b []byte, size int) []byte {
	if len(b) >= size {
		return b
	}
	out := make([]byte, size)
	copy(out[size-len(b):], b)
	return out
}

// Key wire encodings. Public keys travel over LoRa (step 2 of Fig. 3) and
// appear verbatim inside blockchain scripts; private keys appear in the
// claim transaction's unlocking script (step 10).

// MarshalRSA512PublicKey encodes pub as 8-byte big-endian E followed by the
// 64-byte modulus (72 bytes total).
func MarshalRSA512PublicKey(pub *RSA512PublicKey) []byte {
	out := make([]byte, 8+RSA512ModulusLen)
	binary.BigEndian.PutUint64(out[:8], uint64(pub.E))
	copy(out[8:], leftPad(pub.N.Bytes(), RSA512ModulusLen))
	return out
}

// UnmarshalRSA512PublicKey reverses MarshalRSA512PublicKey.
func UnmarshalRSA512PublicKey(data []byte) (*RSA512PublicKey, error) {
	if len(data) != 8+RSA512ModulusLen {
		return nil, fmt.Errorf("bccrypto: public key length %d, want %d", len(data), 8+RSA512ModulusLen)
	}
	e := binary.BigEndian.Uint64(data[:8])
	if e == 0 || e > 1<<31 {
		return nil, errors.New("bccrypto: implausible RSA exponent")
	}
	n := new(big.Int).SetBytes(data[8:])
	if _, ok := newMont512(n); !ok {
		return nil, errModulus
	}
	return &RSA512PublicKey{N: n, E: int64(e)}, nil
}

// MarshalRSA512PrivateKey encodes priv as the public encoding followed by
// the 64-byte private exponent D (136 bytes total). P and Q are not
// serialized: the claim script only needs (N, E, D).
func MarshalRSA512PrivateKey(priv *RSA512PrivateKey) []byte {
	out := make([]byte, 0, 8+2*RSA512ModulusLen)
	out = append(out, MarshalRSA512PublicKey(&priv.RSA512PublicKey)...)
	out = append(out, leftPad(priv.D.Bytes(), RSA512ModulusLen)...)
	return out
}

// UnmarshalRSA512PrivateKey reverses MarshalRSA512PrivateKey.
func UnmarshalRSA512PrivateKey(data []byte) (*RSA512PrivateKey, error) {
	if len(data) != 8+2*RSA512ModulusLen {
		return nil, fmt.Errorf("bccrypto: private key length %d, want %d", len(data), 8+2*RSA512ModulusLen)
	}
	pub, err := UnmarshalRSA512PublicKey(data[:8+RSA512ModulusLen])
	if err != nil {
		return nil, err
	}
	d := new(big.Int).SetBytes(data[8+RSA512ModulusLen:])
	if d.Sign() <= 0 {
		return nil, errors.New("bccrypto: zero RSA private exponent")
	}
	return &RSA512PrivateKey{RSA512PublicKey: *pub, D: d}, nil
}
