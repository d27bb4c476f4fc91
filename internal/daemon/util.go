package daemon

import (
	"crypto/rand"
	"io"
)

func randomOrDefault(r io.Reader) io.Reader {
	if r == nil {
		return rand.Reader
	}
	return r
}
