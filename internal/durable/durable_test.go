package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzLogReplay writes arbitrary bytes after a log's magic and replays
// them. Replay must not panic; its allocation must not follow a length
// field (a corrupt 32-bit length would ask for gigabytes); it must return
// only records within the bound, framed exactly as a prefix of the input;
// it must cut the file to that prefix; and the log must then take one
// more append and replay it.
func FuzzLogReplay(f *testing.F) {
	const bound = 64
	magic := []byte("FUZZLOG1\n")
	good := appendFrame(appendFrame(nil, []byte("first")), []byte("second"))
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)-1] ^= 1
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-3])                         // torn payload
	f.Add(good[:13])                                  // torn header
	f.Add(corrupt)                                    // checksum mismatch
	f.Add(appendFrame(nil, make([]byte, bound+1)))    // over the bound
	f.Add([]byte{0xff, 0xff, 0xff, 0xf0, 0, 0, 0, 0}) // length past the file
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, append(bytes.Clone(magic), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(path, magic, bound)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocBefore := ms.TotalAlloc
		recs, err := l.Replay()
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		if got, limit := ms.TotalAlloc-allocBefore, uint64(4*(len(magic)+len(tail))+1<<20); got > limit {
			t.Fatalf("replaying %d bytes allocated %d", len(tail), got)
		}
		var prefix []byte
		for _, r := range recs {
			if len(r) > bound {
				t.Fatalf("replayed a %d-byte record past the %d bound", len(r), bound)
			}
			prefix = appendFrame(prefix, r)
		}
		if !bytes.HasPrefix(tail, prefix) {
			t.Fatal("replayed records are not a prefix of the input")
		}
		if info, err := os.Stat(path); err != nil || info.Size() != int64(len(magic)+len(prefix)) {
			t.Fatalf("file not cut to the %d-byte valid prefix (%v)", len(prefix), err)
		}
		if err := l.Append([]byte("next")); err != nil {
			t.Fatal(err)
		}
		again, err := l.Replay()
		if err != nil || len(again) != len(recs)+1 || string(again[len(recs)]) != "next" {
			t.Fatalf("append after replay: %d records (%v), want %d ending in the new one", len(again), err, len(recs)+1)
		}
	})
}
