package script

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"bcwan/internal/bccrypto"
)

// rsaPairVectors mirrors testdata/checkrsa512pair.json.
type rsaPairVectors struct {
	Comment string `json:"comment"`
	Vectors []struct {
		Name    string `json:"name"`
		Comment string `json:"comment"`
		Priv    string `json:"priv"`
		Pub     string `json:"pub"`
		Valid   bool   `json:"valid"`
	} `json:"vectors"`
}

// TestCheckRSA512PairGoldenVectors pins OP_CHECKRSA512PAIR to committed
// key material: the paper's custom opcode is consensus-critical, so its
// accept/reject behavior must not drift across refactors.
func TestCheckRSA512PairGoldenVectors(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "checkrsa512pair.json"))
	if err != nil {
		t.Fatalf("read vectors: %v", err)
	}
	var vecs rsaPairVectors
	if err := json.Unmarshal(raw, &vecs); err != nil {
		t.Fatalf("decode vectors: %v", err)
	}
	if len(vecs.Vectors) < 4 {
		t.Fatalf("only %d vectors, corpus truncated?", len(vecs.Vectors))
	}
	for _, v := range vecs.Vectors {
		t.Run(v.Name, func(t *testing.T) {
			priv, err := hex.DecodeString(v.Priv)
			if err != nil {
				t.Fatalf("priv hex: %v", err)
			}
			pub, err := hex.DecodeString(v.Pub)
			if err != nil {
				t.Fatalf("pub hex: %v", err)
			}
			unlock := NewBuilder().AddData(priv).Script()
			lock := NewBuilder().AddData(pub).AddOp(OpCheckRSA512Pair).Script()
			err = Verify(unlock, lock, nil)
			if v.Valid && err != nil {
				t.Fatalf("valid pair rejected: %v", err)
			}
			if !v.Valid {
				if err == nil {
					t.Fatal("invalid pair accepted")
				}
				// The opcode must push false (leaving a falsy stack), not
				// abort mid-script: aborting would make Listing 1's
				// OP_ELSE refund branch unreachable.
				if !errors.Is(err, ErrScriptFalse) {
					t.Fatalf("expected a false result, got abort: %v", err)
				}
			}
		})
	}
}

// TestGoldenVectorsMatchWireFormat cross-checks the committed material
// against the bccrypto codec so the vectors cannot rot silently.
func TestGoldenVectorsMatchWireFormat(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "checkrsa512pair.json"))
	if err != nil {
		t.Fatalf("read vectors: %v", err)
	}
	var vecs rsaPairVectors
	if err := json.Unmarshal(raw, &vecs); err != nil {
		t.Fatalf("decode vectors: %v", err)
	}
	for _, v := range vecs.Vectors {
		if v.Name != "valid-pair" {
			continue
		}
		priv, _ := hex.DecodeString(v.Priv)
		pub, _ := hex.DecodeString(v.Pub)
		sk, err := bccrypto.UnmarshalRSA512PrivateKey(priv)
		if err != nil {
			t.Fatalf("golden private key does not unmarshal: %v", err)
		}
		pk, err := bccrypto.UnmarshalRSA512PublicKey(pub)
		if err != nil {
			t.Fatalf("golden public key does not unmarshal: %v", err)
		}
		if !sk.MatchesPublic(pk) {
			t.Fatal("golden valid-pair material does not match at the crypto layer")
		}
		return
	}
	t.Fatal("valid-pair vector missing from corpus")
}

// TestCheckRSA512PairRefusesNonCanonicalModulus pins the modulus shape
// rule: a 64-byte modulus that is even, or below 2⁵¹¹, is not a key, so
// OP_CHECKRSA512PAIR pushes false on it — even for a pair the probe
// 2^(e·D) ≡ 2 (mod N) alone accepts — and Listing 1's refund arm still
// spends the output.
func TestCheckRSA512PairRefusesNonCanonicalModulus(t *testing.T) {
	const e = 65537
	// m = p·q with p of 256 bits and q of 255, both with their top two
	// bits set: m is odd and exactly 511 bits long.
	var p, q, m, d *big.Int
	for d == nil {
		var err error
		if p, err = rand.Prime(rand.Reader, 256); err != nil {
			t.Fatal(err)
		}
		if q, err = rand.Prime(rand.Reader, 255); err != nil {
			t.Fatal(err)
		}
		m = new(big.Int).Mul(p, q)
		one := big.NewInt(1)
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d = new(big.Int).ModInverse(big.NewInt(e), phi)
	}
	for name, n := range map[string]*big.Int{
		"below 2⁵¹¹": m,
		"even":       new(big.Int).Lsh(m, 1),
	} {
		t.Run(name, func(t *testing.T) {
			probe := new(big.Int).Exp(new(big.Int).Exp(big.NewInt(2), big.NewInt(e), n), d, n)
			if probe.Cmp(big.NewInt(2)) != 0 {
				t.Fatal("the probe alone does not accept the pair")
			}
			priv := &bccrypto.RSA512PrivateKey{RSA512PublicKey: bccrypto.RSA512PublicKey{N: n, E: e}, D: d}
			pubBytes := bccrypto.MarshalRSA512PublicKey(&priv.RSA512PublicKey)
			privBytes := bccrypto.MarshalRSA512PrivateKey(priv)
			if len(pubBytes) != 8+bccrypto.RSA512ModulusLen {
				t.Fatalf("public key encodes to %d bytes", len(pubBytes))
			}

			unlock := NewBuilder().AddData(privBytes).Script()
			lock := NewBuilder().AddData(pubBytes).AddOp(OpCheckRSA512Pair).Script()
			mustFail(t, unlock, lock, nil, ErrScriptFalse)

			// Listing 1: the claim with this key falls into the refund
			// arm before the refund height, and the refund spends.
			buyerPub := []byte("buyer-pub")
			kr := KeyReleaseParams{RSAPubKey: pubBytes, RefundHeight: 500, BuyerPubKeyHash: bccrypto.Hash160(buyerPub)}
			always := func(_, _ []byte) bool { return true }
			claim := UnlockKeyReleaseClaim([]byte("sig"), []byte("gateway-pub"), privBytes)
			mustFail(t, claim, KeyRelease(kr), fakeContext{sigOK: always, lockTime: kr.RefundHeight - 1}, ErrLockTimeNotReached)
			mustRun(t, UnlockKeyReleaseRefund([]byte("sig"), buyerPub), KeyRelease(kr), fakeContext{sigOK: always, lockTime: kr.RefundHeight})
		})
	}
}
