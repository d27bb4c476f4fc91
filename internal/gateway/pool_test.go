package gateway

import (
	"bytes"
	"crypto/rand"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/lora"
)

func keyRequest(i int) *lora.Frame {
	return &lora.Frame{
		Type:    lora.FrameKeyRequest,
		DevEUI:  lora.DevEUI{0x9e, byte(i >> 8), byte(i)},
		Counter: uint32(i),
	}
}

// waitPoolIdle waits until no refill goroutine runs and the process is
// back to at most baseline goroutines, and returns the pool length.
func waitPoolIdle(t *testing.T, g *Gateway, baseline int) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.mu.Lock()
		n, busy := len(g.keys), g.refilling
		g.mu.Unlock()
		if !busy && runtime.NumGoroutine() <= baseline {
			return n
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("refilling=%v, %d goroutines against a baseline of %d:\n%s",
				busy, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPooledKeysAreUsedOnce hands out a few hundred pairs to concurrent
// requests, pooled and inline alike: every ePk differs, and the eSk each
// exchange discloses is the private half of its own ePk.
func TestPooledKeysAreUsedOnce(t *testing.T) {
	const requests = 200
	g := New(DefaultConfig(), nil, nil, nil, rand.Reader)
	pubs := make([][]byte, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := range pubs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := g.HandleKeyRequest(keyRequest(i))
			if err == nil {
				pubs[i] = resp.Payload
			}
			errs[i] = err
		}()
	}
	wg.Wait()

	seen := make(map[string]int, requests)
	for i, pub := range pubs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if j, dup := seen[string(pub)]; dup {
			t.Fatalf("requests %d and %d got the same ePk", j, i)
		}
		seen[string(pub)] = i
		sk, err := g.DiscloseKey(keyRequest(i).DevEUI, uint32(i))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		priv, err := bccrypto.UnmarshalRSA512PrivateKey(sk)
		if err != nil {
			t.Fatal(err)
		}
		pk, err := bccrypto.UnmarshalRSA512PublicKey(pub)
		if err != nil {
			t.Fatal(err)
		}
		if !priv.MatchesPublic(pk) {
			t.Fatalf("request %d: disclosed eSk does not match its ePk", i)
		}
	}
	if g.Stats.KeysIssued != requests {
		t.Fatalf("KeysIssued = %d, want %d", g.Stats.KeysIssued, requests)
	}
}

// TestKeyPoolRefillStops checks that the refill leaves a full pool and
// no goroutine behind once requests stop, and that the next request is
// served from that pool.
func TestKeyPoolRefillStops(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := New(DefaultConfig(), nil, nil, nil, rand.Reader)
	for i := 0; i < 3*keyPoolSize; i++ {
		if _, err := g.HandleKeyRequest(keyRequest(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := waitPoolIdle(t, g, baseline); n != keyPoolSize {
		t.Fatalf("pool holds %d pairs once idle, want %d", n, keyPoolSize)
	}
	g.mu.Lock()
	oldest := g.keys[0].pub
	g.mu.Unlock()
	resp, err := g.HandleKeyRequest(keyRequest(3 * keyPoolSize))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Payload, oldest) {
		t.Fatal("a request on a full pool did not get the oldest pooled pair")
	}
	if n := waitPoolIdle(t, g, baseline); n != keyPoolSize {
		t.Fatalf("pool holds %d pairs after one more request, want %d", n, keyPoolSize)
	}
}

type failingReader struct{}

var errNoEntropy = errors.New("no entropy")

func (failingReader) Read([]byte) (int, error) { return 0, errNoEntropy }

// TestKeygenErrorReachesCaller checks that a failing entropy source
// fails the request itself, issues no key, and strands no refill.
func TestKeygenErrorReachesCaller(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := New(DefaultConfig(), nil, nil, nil, failingReader{})
	for i := 0; i < 2; i++ {
		_, err := g.HandleKeyRequest(keyRequest(i))
		if !errors.Is(err, errNoEntropy) || !strings.Contains(err.Error(), "ephemeral keygen") {
			t.Fatalf("request %d: err = %v, want a wrapped ephemeral keygen error", i, err)
		}
		if n := waitPoolIdle(t, g, baseline); n != 0 {
			t.Fatalf("pool holds %d pairs from a failing reader", n)
		}
	}
	if g.Stats.KeysIssued != 0 {
		t.Fatalf("KeysIssued = %d after failed keygen", g.Stats.KeysIssued)
	}
}

// BenchmarkHandleKeyRequest issues key requests back to back, faster
// than one core mints, so the pool runs dry and ns/op is the sustained
// rate with the caller and the refill minting side by side.
func BenchmarkHandleKeyRequest(b *testing.B) {
	g := New(DefaultConfig(), nil, nil, nil, rand.Reader)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.HandleKeyRequest(keyRequest(i)); err != nil {
			b.Fatal(err)
		}
	}
}
