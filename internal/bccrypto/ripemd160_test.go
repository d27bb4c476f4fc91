package bccrypto

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
)

// Official test vectors from the RIPEMD-160 specification
// (Dobbertin, Bosselaers, Preneel).
var ripemdVectors = []struct {
	in   string
	want string
}{
	{"", "9c1185a5c5e9fc54612808977ee8f548b2258d31"},
	{"a", "0bdc9d2d256b3ee9daae347be6f4dc835a467ffe"},
	{"abc", "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc"},
	{"message digest", "5d0689ef49d2fae572b881b123a85ffa21595f36"},
	{"abcdefghijklmnopqrstuvwxyz", "f71c27109c692c1b56bbdceb5b9d2865b3708dbc"},
	{
		"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
		"12a053384a9c0c88e405a06c27dcf49ada62eb2b",
	},
	{
		"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
		"b0e20b6e3116640286ed3a87a5713079b21f5189",
	},
	{
		strings.Repeat("1234567890", 8),
		"9b752e45573d4b39f4dbd3323cab82bf63326bfb",
	},
}

func TestRipemd160Vectors(t *testing.T) {
	for _, tt := range ripemdVectors {
		got := Ripemd160([]byte(tt.in))
		if hex.EncodeToString(got[:]) != tt.want {
			t.Errorf("Ripemd160(%q) = %x, want %s", tt.in, got, tt.want)
		}
	}
}

func TestRipemd160MillionA(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 1M-byte vector in short mode")
	}
	var h ripemd160
	h.Reset()
	chunk := bytes.Repeat([]byte("a"), 1000)
	for i := 0; i < 1000; i++ {
		h.Write(chunk)
	}
	got := hex.EncodeToString(h.Sum(nil))
	const want = "52783243c1697bdbe16d37f97f68f08325dc1528"
	if got != want {
		t.Fatalf("Ripemd160(1M x 'a') = %s, want %s", got, want)
	}
}

func TestRipemd160IncrementalMatchesOneShot(t *testing.T) {
	// Property: writing in arbitrary chunk sizes yields the same digest
	// as a single Write.
	data := []byte(strings.Repeat("BcWAN federated LPWAN ", 41))
	want := Ripemd160(data)
	for _, chunk := range []int{1, 3, 7, 63, 64, 65, 128} {
		var h ripemd160
		h.Reset()
		for i := 0; i < len(data); i += chunk {
			end := i + chunk
			if end > len(data) {
				end = len(data)
			}
			h.Write(data[i:end])
		}
		if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
			t.Errorf("chunk %d: digest %x, want %x", chunk, got, want)
		}
	}
}

func TestRipemd160SumDoesNotMutateState(t *testing.T) {
	var h ripemd160
	h.Reset()
	h.Write([]byte("partial"))
	first := h.Sum(nil)
	second := h.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatalf("Sum mutates state: %x then %x", first, second)
	}
	h.Write([]byte(" more"))
	want := Ripemd160([]byte("partial more"))
	if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
		t.Fatalf("continued digest %x, want %x", got, want)
	}
}

func TestRipemd160Reset(t *testing.T) {
	var h ripemd160
	h.Reset()
	h.Write([]byte("garbage"))
	h.Reset()
	h.Write([]byte("abc"))
	got := hex.EncodeToString(h.Sum(nil))
	if want := "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc"; got != want {
		t.Fatalf("after Reset digest = %s, want %s", got, want)
	}
}

func TestRipemd160SumAppends(t *testing.T) {
	var h ripemd160
	h.Reset()
	h.Write([]byte("abc"))
	prefix := []byte{0xde, 0xad}
	out := h.Sum(prefix)
	if !bytes.Equal(out[:2], prefix) {
		t.Fatalf("Sum did not preserve prefix: %x", out[:2])
	}
	if len(out) != 2+Ripemd160Size {
		t.Fatalf("Sum length = %d, want %d", len(out), 2+Ripemd160Size)
	}
}

func TestRipemd160QuickDeterministic(t *testing.T) {
	// Property: the digest is a pure function of its input.
	f := func(data []byte) bool {
		return Ripemd160(data) == Ripemd160(append([]byte(nil), data...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRipemd160QuickLengthBoundaries(t *testing.T) {
	// Exercise every padding branch: lengths 0..130 must all produce
	// 20-byte digests and distinct digests for distinct all-zero lengths.
	seen := make(map[[Ripemd160Size]byte]int, 131)
	for n := 0; n <= 130; n++ {
		d := Ripemd160(make([]byte, n))
		if prev, dup := seen[d]; dup {
			t.Fatalf("lengths %d and %d collide", prev, n)
		}
		seen[d] = n
	}
}

func BenchmarkRipemd160(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Ripemd160(data)
	}
}
