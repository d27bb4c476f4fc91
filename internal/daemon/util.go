package daemon

import (
	"crypto/rand"
	"errors"
	"io"
	"sync"
)

func containsErr(err, target error) bool { return errors.Is(err, target) }

// lockedReader serializes an injected random source. Tests hand in
// plain *math/rand.Rand streams, and the mine loop, explicit MineNow
// calls and snapshot-commitment signing all draw from the one reader.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

func randomOrDefault(r io.Reader) io.Reader {
	if r == nil {
		return rand.Reader
	}
	return r
}
