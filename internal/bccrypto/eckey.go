package bccrypto

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// ECDSA over P-256 is the blockchain's signature scheme (§2: "direct
// payment to one another by using ECDSA signatures and keys"). Public keys
// are serialized as uncompressed points; signatures are ASN.1 DER.

// ECPublicKeyLen is the serialized public key length: 0x04 ‖ X ‖ Y.
const ECPublicKeyLen = 1 + 2*32

// ErrBadPublicKey reports an unparseable serialized public key.
var ErrBadPublicKey = errors.New("bccrypto: invalid EC public key")

// ECKey is an ECDSA P-256 keypair used for blockchain identities.
type ECKey struct {
	priv *ecdsa.PrivateKey
}

// GenerateECKey creates a fresh P-256 keypair.
func GenerateECKey(random io.Reader) (*ECKey, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), random)
	if err != nil {
		return nil, fmt.Errorf("generate ecdsa key: %w", err)
	}
	return &ECKey{priv: priv}, nil
}

// PublicBytes returns the uncompressed public point 0x04 ‖ X ‖ Y.
func (k *ECKey) PublicBytes() []byte {
	out := make([]byte, ECPublicKeyLen)
	out[0] = 0x04
	k.priv.PublicKey.X.FillBytes(out[1:33])
	k.priv.PublicKey.Y.FillBytes(out[33:])
	return out
}

// PubKeyHash returns HASH160 of the serialized public key — the payment
// destination used in P2PKH outputs.
func (k *ECKey) PubKeyHash() [Ripemd160Size]byte {
	return Hash160(k.PublicBytes())
}

// Address returns the base58check address (version 0x19, chosen for this
// chain) of the key. This is the paper's blockchain address @R.
func (k *ECKey) Address() string {
	h := k.PubKeyHash()
	return Base58CheckEncode(AddressVersion, h[:])
}

// AddressVersion is the base58check version byte for BcWAN addresses.
const AddressVersion = 0x19

// PubKeyHashFromAddress parses a base58check address back to its pubkey
// hash.
func PubKeyHashFromAddress(addr string) ([Ripemd160Size]byte, error) {
	var out [Ripemd160Size]byte
	version, payload, err := Base58CheckDecode(addr)
	if err != nil {
		return out, err
	}
	if version != AddressVersion {
		return out, fmt.Errorf("bccrypto: address version %#x, want %#x", version, AddressVersion)
	}
	if len(payload) != Ripemd160Size {
		return out, fmt.Errorf("bccrypto: address payload length %d", len(payload))
	}
	copy(out[:], payload)
	return out, nil
}

// SignDigest signs a 32-byte digest, returning an ASN.1 DER signature.
func (k *ECKey) SignDigest(random io.Reader, digest []byte) ([]byte, error) {
	sig, err := ecdsa.SignASN1(random, k.priv, digest)
	if err != nil {
		return nil, fmt.Errorf("ecdsa sign: %w", err)
	}
	return sig, nil
}

// VerifyECDigest verifies an ASN.1 signature over a 32-byte digest with a
// serialized public key. It checks only the encoding's length and prefix
// itself: ecdsa.VerifyASN1 re-encodes the point and rejects, as
// ParseECPublicKey does, coordinates outside the field, points off the
// curve and the identity, so validating first would decode the key twice.
func VerifyECDigest(pubKey, digest, sig []byte) bool {
	if len(pubKey) != ECPublicKeyLen || pubKey[0] != 0x04 {
		return false
	}
	pub := ecdsa.PublicKey{
		Curve: elliptic.P256(),
		X:     new(big.Int).SetBytes(pubKey[1:33]),
		Y:     new(big.Int).SetBytes(pubKey[33:]),
	}
	return ecdsa.VerifyASN1(&pub, digest, sig)
}

// MarshalECPrivateKey encodes the private scalar as 32 big-endian bytes.
func (k *ECKey) MarshalECPrivateKey() []byte {
	out := make([]byte, 32)
	k.priv.D.FillBytes(out)
	return out
}

// ParseECPrivateKey reconstructs a keypair from a 32-byte private scalar.
func ParseECPrivateKey(data []byte) (*ECKey, error) {
	if len(data) != 32 {
		return nil, fmt.Errorf("bccrypto: private key length %d, want 32", len(data))
	}
	d := new(big.Int).SetBytes(data)
	curve := elliptic.P256()
	if d.Sign() <= 0 || d.Cmp(curve.Params().N) >= 0 {
		return nil, errors.New("bccrypto: private scalar out of range")
	}
	priv := new(ecdsa.PrivateKey)
	priv.Curve = curve
	priv.D = d
	priv.X, priv.Y = curve.ScalarBaseMult(data)
	return &ECKey{priv: priv}, nil
}

// ParseECPublicKey parses an uncompressed P-256 point. crypto/ecdh
// rejects coordinates outside the field, points off the curve and the
// identity.
func ParseECPublicKey(data []byte) (*ecdsa.PublicKey, error) {
	if len(data) != ECPublicKeyLen || data[0] != 0x04 {
		return nil, ErrBadPublicKey
	}
	if _, err := ecdh.P256().NewPublicKey(data); err != nil {
		return nil, ErrBadPublicKey
	}
	x := new(big.Int).SetBytes(data[1:33])
	y := new(big.Int).SetBytes(data[33:])
	return &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}, nil
}
