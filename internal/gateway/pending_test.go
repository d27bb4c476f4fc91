package gateway

import (
	"crypto/rand"
	"errors"
	"testing"

	"bcwan/internal/bccrypto"
	"bcwan/internal/lora"
)

// TestPendingOrderHoldsOnlyLiveExchanges is the regression test for the
// age order outliving the exchanges it listed: settled exchanges stayed
// queued, so maxPending counted issued keys, and when a rebooted sensor
// reused a settled (DevEUI, counter) the stale entry's eviction deleted
// the live exchange.
func TestPendingOrderHoldsOnlyLiveExchanges(t *testing.T) {
	key, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pub := bccrypto.MarshalRSA512PublicKey(key.Public())
	g := New(DefaultConfig(), nil, nil, nil, rand.Reader)
	eui := lora.DevEUI{0xde, 0xca, 0xfb, 0xad, 0, 0, 0, 1}
	issue := func(counter uint32) {
		g.track(exchangeKey{eui: eui, counter: counter}, &pendingExchange{key: key, pub: pub})
	}

	for c := uint32(0); c <= maxPending; c++ {
		issue(c)
		if _, err := g.DiscloseKey(eui, c); err != nil {
			t.Fatalf("exchange %d: %v", c, err)
		}
	}
	if n := g.pendingOrder.Len(); n != 0 {
		t.Fatalf("%d exchanges still queued after all settled", n)
	}

	// The sensor reboots and reuses counter 1; maxPending-1 abandoned
	// exchanges then fill the gateway up behind it.
	issue(1)
	for c := uint32(maxPending + 1); c < 2*maxPending; c++ {
		issue(c)
	}
	if n := g.pendingOrder.Len(); n != maxPending || len(g.pending) != maxPending {
		t.Fatalf("queued %d, pending %d, want both %d", n, len(g.pending), maxPending)
	}
	if _, live := g.pending[exchangeKey{eui: eui, counter: 1}]; !live {
		t.Fatal("the reused exchange was evicted by the entry of its settled predecessor")
	}
	// A retransmitted request keeps its place and adds no entry.
	issue(1)
	if n := g.pendingOrder.Len(); n != maxPending {
		t.Fatalf("retransmission grew the queue to %d", n)
	}

	// One more evicts exactly the oldest abandoned exchange.
	issue(2 * maxPending)
	if n := g.pendingOrder.Len(); n != maxPending {
		t.Fatalf("queue holds %d past the bound %d", n, maxPending)
	}
	if _, err := g.DiscloseKey(eui, 1); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("oldest abandoned exchange after eviction: err = %v, want ErrUnknownDevice", err)
	}
	if _, err := g.DiscloseKey(eui, maxPending+1); err != nil {
		t.Fatalf("second-oldest exchange was evicted too: %v", err)
	}
}
