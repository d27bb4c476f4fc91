package daemon

import (
	"crypto/rand"
	"errors"
	"io"
)

func containsErr(err, target error) bool { return errors.Is(err, target) }

func randomOrDefault(r io.Reader) io.Reader {
	if r == nil {
		return rand.Reader
	}
	return r
}
