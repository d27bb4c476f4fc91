package durable

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFailedAppendLeavesNoPartialRecord stops an append mid-frame with a
// file-size limit: the write returns EFBIG (Go ignores SIGXFSZ) after part
// of the frame reached the file. The append must fail and cut that part
// off again, so the next acknowledged append replays instead of being cut
// along with the partial frame.
func TestFailedAppendLeavesNoPartialRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "limit.log")
	l, err := OpenLog(path, []byte("LIMITLOG1\n"), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	var saved syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &saved); err != nil {
		t.Fatal(err)
	}
	limited := saved
	limited.Cur = uint64(info.Size()) + 20
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limited); err != nil {
		t.Skipf("cannot lower RLIMIT_FSIZE: %v", err)
	}
	err = l.Append(make([]byte, 100))
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &saved); rerr != nil {
		t.Fatalf("restore RLIMIT_FSIZE: %v", rerr)
	}
	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("append past the size limit: %v, want EFBIG", err)
	}
	if after, err := os.Stat(path); err != nil || after.Size() != info.Size() {
		t.Fatalf("failed append left the log at %d bytes, want %d (%v)", after.Size(), info.Size(), err)
	}

	if err := l.Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0]) != "first" || string(recs[1]) != "acked" {
		t.Fatalf("replayed %q, want [first acked]", recs)
	}
}
