package bccrypto

import (
	"crypto/rand"
	mrand "math/rand"
	"sync"
	"testing"
)

func TestSerialReaderWrapsOnlyUnsafeSources(t *testing.T) {
	if SerialReader(rand.Reader) != rand.Reader {
		t.Fatal("crypto/rand.Reader was wrapped")
	}
	if SerialReader(nil) != nil {
		t.Fatal("nil was wrapped")
	}
	seeded := SerialReader(mrand.New(mrand.NewSource(1)))
	if _, ok := seeded.(*serialReader); !ok {
		t.Fatalf("a *math/rand.Rand came back as %T", seeded)
	}
	if SerialReader(seeded) != seeded {
		t.Fatal("a serialized reader was wrapped twice")
	}

	// Under -race, concurrent draws from the wrapped stream are clean.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 32)
			for j := 0; j < 100; j++ {
				if _, err := seeded.Read(buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
