package recipient

import (
	"runtime"
	"sort"
	"testing"
)

// BenchmarkHandleDeliveryUTXO times Fig. 3 steps 8–9 — verify the offer,
// build, sign and submit the payment — with a fresh delivery built and a
// block mined (both untimed) around every one, at two sizes of a UTXO
// set that is almost all other people's coins. The two rows should read
// the same.
func BenchmarkHandleDeliveryUTXO(b *testing.B) {
	for _, size := range []struct {
		name      string
		unrelated int
	}{{"1k", 1_000}, {"10k", 10_000}} {
		b.Run(size.name, func(b *testing.B) {
			f := newFixtureWith(b, 1<<40, size.unrelated)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := f.delivery(b, "9.81m/s2")
				b.StartTimer()
				if _, err := f.rcpt.HandleDelivery(d); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				f.mine(b)
				b.StartTimer()
			}
		})
	}
}

// handleDeliveryBytes is the heap allocated by one HandleDelivery, the
// median of several, with the given number of unrelated unspent outputs.
func handleDeliveryBytes(t *testing.T, unrelated int) uint64 {
	f := newFixtureWith(t, 100_000, unrelated)
	samples := make([]uint64, 0, 5)
	var before, after runtime.MemStats
	for i := 0; i < cap(samples)+1; i++ {
		d := f.delivery(t, "9.81m/s2") // a copy of one still in flight is refused
		runtime.ReadMemStats(&before)
		_, err := f.rcpt.HandleDelivery(d)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 { // the first call also builds the pool's overlay
			samples = append(samples, after.TotalAlloc-before.TotalAlloc)
		}
		f.mine(t)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// TestHandleDeliveryAllocIndependentOfUTXOSize: what a delivery
// allocates follows the recipient's own coins, not the size of the set
// they sit in.
func TestHandleDeliveryAllocIndependentOfUTXOSize(t *testing.T) {
	small, large := handleDeliveryBytes(t, 100), handleDeliveryBytes(t, 10_000)
	t.Logf("one HandleDelivery allocates %d B beside 100 unrelated outputs, %d B beside 10 000", small, large)
	if diff := int64(large) - int64(small); diff > int64(small)/10 || -diff > int64(small)/10 {
		t.Fatalf("HandleDelivery allocates %d B at 10 000 unrelated outputs, %d B at 100: more than 10 %% apart", large, small)
	}
}
