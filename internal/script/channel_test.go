package script

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"

	"bcwan/internal/bccrypto"
)

func testChannelParams() ChannelParams {
	var funder [HashLen]byte
	for i := range funder {
		funder[i] = byte(i + 1)
	}
	return ChannelParams{
		GatewayPubKey:    bytes.Repeat([]byte{0x02}, 65),
		RecipientPubKey:  bytes.Repeat([]byte{0x03}, 65),
		RefundHeight:     1_000,
		FunderPubKeyHash: funder,
	}
}

func TestChannelClassifyAndParse(t *testing.T) {
	p := testChannelParams()
	lock := Channel(p)
	if got := Classify(lock); got != ClassChannel {
		t.Fatalf("Classify = %v, want ClassChannel", got)
	}
	if got := ClassChannel.String(); got != "channel" {
		t.Fatalf("String = %q", got)
	}
	parsed, err := ParseChannel(lock)
	if err != nil {
		t.Fatalf("ParseChannel: %v", err)
	}
	if !bytes.Equal(parsed.GatewayPubKey, p.GatewayPubKey) ||
		!bytes.Equal(parsed.RecipientPubKey, p.RecipientPubKey) ||
		parsed.RefundHeight != p.RefundHeight ||
		parsed.FunderPubKeyHash != p.FunderPubKeyHash {
		t.Fatalf("ParseChannel round trip mismatch: %+v != %+v", parsed, p)
	}
	if _, err := ParseChannel(PayToPubKeyHash(p.FunderPubKeyHash)); !errors.Is(err, ErrNotTemplate) {
		t.Fatalf("ParseChannel(p2pkh) err = %v, want ErrNotTemplate", err)
	}
}

// TestChannelClosePath verifies the 2-of-2 branch with real EC keys: both
// signatures must check, in the recipient-then-gateway stack order.
func TestChannelClosePath(t *testing.T) {
	gwKey, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rcKey, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	digest := bytes.Repeat([]byte{0xab}, 32)
	gwSig, err := gwKey.SignDigest(rand.Reader, digest)
	if err != nil {
		t.Fatal(err)
	}
	rcSig, err := rcKey.SignDigest(rand.Reader, digest)
	if err != nil {
		t.Fatal(err)
	}

	p := testChannelParams()
	p.GatewayPubKey = gwKey.PublicBytes()
	p.RecipientPubKey = rcKey.PublicBytes()
	lock := Channel(p)
	ctx := fakeContext{sigOK: func(sig, pub []byte) bool {
		return bccrypto.VerifyECDigest(pub, digest, sig)
	}}

	mustRun(t, UnlockChannelClose(rcSig, gwSig), lock, ctx)
	// Swapped signatures must fail: the gateway slot verifies first.
	mustFail(t, UnlockChannelClose(gwSig, rcSig), lock, ctx, ErrCheckSigFailed)
	// A single valid signature cannot satisfy the 2-of-2.
	mustFail(t, UnlockChannelClose(rcSig, rcSig), lock, ctx, ErrCheckSigFailed)
}

// TestChannelRefundBoundary pins the CLTV refund boundary for the channel
// template: a spend with lock time exactly at the refund height is
// accepted, one block earlier is rejected.
func TestChannelRefundBoundary(t *testing.T) {
	rcKey, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	digest := bytes.Repeat([]byte{0xcd}, 32)
	sig, err := rcKey.SignDigest(rand.Reader, digest)
	if err != nil {
		t.Fatal(err)
	}
	p := testChannelParams()
	p.FunderPubKeyHash = rcKey.PubKeyHash()
	lock := Channel(p)
	unlock := UnlockKeyReleaseRefund(sig, rcKey.PublicBytes())
	checker := func(sig, pub []byte) bool { return bccrypto.VerifyECDigest(pub, digest, sig) }

	// Exactly at the refund height: accepted.
	mustRun(t, unlock, lock, fakeContext{sigOK: checker, lockTime: p.RefundHeight})
	// Past the refund height: still accepted.
	mustRun(t, unlock, lock, fakeContext{sigOK: checker, lockTime: p.RefundHeight + 1})
	// One block before the refund height: rejected.
	mustFail(t, unlock, lock, fakeContext{sigOK: checker, lockTime: p.RefundHeight - 1}, ErrLockTimeNotReached)
	// Wrong key on the refund path: rejected even after the height.
	other, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	otherSig, err := other.SignDigest(rand.Reader, digest)
	if err != nil {
		t.Fatal(err)
	}
	mustFail(t, UnlockKeyReleaseRefund(otherSig, other.PublicBytes()), lock,
		fakeContext{sigOK: checker, lockTime: p.RefundHeight}, ErrEqualVerifyFailed)
}

// TestKeyReleaseRefundBoundary pins the same CLTV boundary for the paper's
// Listing 1 fair-exchange template: refund is accepted at exactly the
// refund height and rejected one block before it.
func TestKeyReleaseRefundBoundary(t *testing.T) {
	var gwHash, buyerHash [HashLen]byte
	for i := range buyerHash {
		buyerHash[i] = byte(i)
	}
	rsa, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p := KeyReleaseParams{
		RSAPubKey:         bccrypto.MarshalRSA512PublicKey(rsa.Public()),
		GatewayPubKeyHash: gwHash,
		RefundHeight:      500,
		BuyerPubKeyHash:   buyerHash,
	}
	lock := KeyRelease(p)
	pub := []byte("buyer-pub")
	buyerHashed := bccrypto.Hash160(pub)
	p.BuyerPubKeyHash = buyerHashed
	lock = KeyRelease(p)
	unlock := UnlockKeyReleaseRefund([]byte("sig"), pub)
	always := func(_, _ []byte) bool { return true }

	mustRun(t, unlock, lock, fakeContext{sigOK: always, lockTime: p.RefundHeight})
	mustRun(t, unlock, lock, fakeContext{sigOK: always, lockTime: p.RefundHeight + 1})
	mustFail(t, unlock, lock, fakeContext{sigOK: always, lockTime: p.RefundHeight - 1}, ErrLockTimeNotReached)
}
