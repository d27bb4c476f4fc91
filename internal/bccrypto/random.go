package bccrypto

import (
	"crypto/rand"
	"io"
	"sync"
)

// serialReader draws from its source one Read at a time.
type serialReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (s *serialReader) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Read(p)
}

// SerialReader returns r made safe for concurrent use: a reader that
// serializes every Read on r. Callers hand in seeded *math/rand.Rand
// streams, which are not safe to share, and one source often feeds
// several goroutines (a node's miner and signer, a gateway's key-pool
// refill). crypto/rand.Reader is already safe and is returned unchanged,
// as are nil and a reader SerialReader returned before.
func SerialReader(r io.Reader) io.Reader {
	switch r.(type) {
	case nil, *serialReader:
		return r
	}
	if r == rand.Reader {
		return r
	}
	return &serialReader{r: r}
}
