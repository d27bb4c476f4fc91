package simtime

import (
	"math/rand"
	"testing"
	"time"
)

// seedSim is the pre-heap Sim engine, copied verbatim from the seed tree:
// a flat waiter slice with an O(n) earliest scan and a swap-delete removal.
// It is the reference the heap engine is property-tested against.
type seedSim struct {
	now     time.Time
	waiters []*seedWaiter
}

type seedWaiter struct {
	at time.Time
	ch chan time.Time
}

func newSeedSim(origin time.Time) *seedSim { return &seedSim{now: origin} }

func (s *seedSim) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- s.now
		return ch
	}
	s.waiters = append(s.waiters, &seedWaiter{at: s.now.Add(d), ch: ch})
	return ch
}

func (s *seedSim) Advance(d time.Duration) {
	target := s.now.Add(d)
	for {
		w := s.earliest()
		if w == nil || w.at.After(target) {
			break
		}
		s.now = w.at
		s.remove(w)
		w.ch <- s.now
	}
	s.now = target
}

// step fires exactly the earliest waiter — one iteration of the seed
// Advance loop — so tests can observe the seed engine's per-timer order.
func (s *seedSim) step() bool {
	w := s.earliest()
	if w == nil {
		return false
	}
	s.now = w.at
	s.remove(w)
	w.ch <- s.now
	return true
}

func (s *seedSim) earliest() *seedWaiter {
	var min *seedWaiter
	for _, w := range s.waiters {
		if min == nil || w.at.Before(min.at) {
			min = w
		}
	}
	return min
}

func (s *seedSim) remove(target *seedWaiter) {
	for i, w := range s.waiters {
		if w == target {
			s.waiters[i] = s.waiters[len(s.waiters)-1]
			s.waiters = s.waiters[:len(s.waiters)-1]
			return
		}
	}
}

// drainOrder empties chans of exactly one newly fired timer and returns its
// index, or -1 if none fired since the last call.
func drainOrder(chans []<-chan time.Time, fired []bool) int {
	for i, ch := range chans {
		if fired[i] {
			continue
		}
		select {
		case <-ch:
			fired[i] = true
			return i
		default:
		}
	}
	return -1
}

// TestSimEqualDeadlinesFIFO pins the satellite fix: timers sharing a
// deadline fire in arm order even when earlier removals have shuffled
// internal storage. The seed engine's swap-delete broke this.
func TestSimEqualDeadlinesFIFO(t *testing.T) {
	s := NewSim(origin)
	const n = 10
	chans := make([]<-chan time.Time, n)
	// An early timer whose removal reorders a slice-based store.
	early := s.After(time.Second)
	for i := range chans {
		chans[i] = s.After(5 * time.Second)
	}
	s.Advance(time.Second)
	<-early
	fired := make([]bool, n)
	for want := 0; want < n; want++ {
		if !s.Step() {
			t.Fatalf("Step() = false with %d timers left", n-want)
		}
		got := drainOrder(chans, fired)
		if got != want {
			t.Fatalf("equal-deadline fire order: got timer %d, want %d", got, want)
		}
	}
}

// makeDelays builds a random delay schedule; distinct guarantees no two
// timers share a deadline, otherwise coarse buckets force many ties.
func makeDelays(rng *rand.Rand, n int, distinct bool) []time.Duration {
	delays := make([]time.Duration, n)
	for i := range delays {
		if distinct {
			delays[i] = time.Duration(rng.Intn(100000)+1)*time.Second + time.Duration(i)*time.Millisecond
		} else {
			delays[i] = time.Duration(rng.Intn(16)+1) * time.Second
		}
	}
	return delays
}

// TestSimMatchesSeedEngineWindows drives both engines through identical
// random Advance windows: after every window the fired timer sets and the
// clock reading must agree exactly.
func TestSimMatchesSeedEngineWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(1810))
	for trial := 0; trial < 20; trial++ {
		const n = 64
		newClk := NewSim(origin)
		oldClk := newSeedSim(origin)
		delays := makeDelays(rng, n, trial%2 == 0)
		newCh := make([]<-chan time.Time, n)
		oldCh := make([]<-chan time.Time, n)
		for i, d := range delays {
			newCh[i] = newClk.After(d)
			oldCh[i] = oldClk.After(d)
		}
		newFired := make([]bool, n)
		oldFired := make([]bool, n)
		for window := 0; window < 30; window++ {
			w := time.Duration(rng.Intn(7000)) * time.Millisecond * 2
			newClk.Advance(w)
			oldClk.Advance(w)
			for drainOrder(newCh, newFired) >= 0 {
			}
			for drainOrder(oldCh, oldFired) >= 0 {
			}
			if got, want := newClk.Now(), oldClk.now; !got.Equal(want) {
				t.Fatalf("trial %d: clocks diverged: new %v old %v", trial, got, want)
			}
			for i := range newFired {
				if newFired[i] != oldFired[i] {
					t.Fatalf("trial %d window %d: timer %d fired=%v, seed fired=%v",
						trial, window, i, newFired[i], oldFired[i])
				}
			}
		}
		if newClk.Pending() != len(oldClk.waiters) {
			t.Fatalf("trial %d: pending %d, seed %d", trial, newClk.Pending(), len(oldClk.waiters))
		}
	}
}

// TestSimMatchesSeedEngineOrder steps both engines one fire at a time and
// compares per-timer order. With distinct deadlines the global orders must
// be identical; with ties the engines must agree on every fire instant and
// the heap engine must additionally be FIFO within each instant (which the
// seed engine's swap-delete never guaranteed).
func TestSimMatchesSeedEngineOrder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		distinct bool
	}{{"distinct-deadlines", true}, {"with-ties", false}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2018))
			for trial := 0; trial < 10; trial++ {
				const n = 64
				newClk := NewSim(origin)
				oldClk := newSeedSim(origin)
				delays := makeDelays(rng, n, tc.distinct)
				newCh := make([]<-chan time.Time, n)
				oldCh := make([]<-chan time.Time, n)
				for i, d := range delays {
					newCh[i] = newClk.After(d)
					oldCh[i] = oldClk.After(d)
				}
				newFired := make([]bool, n)
				oldFired := make([]bool, n)
				var newOrder, oldOrder []int
				for step := 0; step < n; step++ {
					if !newClk.Step() || !oldClk.step() {
						t.Fatalf("trial %d: engine drained early at step %d", trial, step)
					}
					ni := drainOrder(newCh, newFired)
					oi := drainOrder(oldCh, oldFired)
					if ni < 0 || oi < 0 {
						t.Fatalf("trial %d step %d: no timer observed (new %d, old %d)", trial, step, ni, oi)
					}
					newOrder = append(newOrder, ni)
					oldOrder = append(oldOrder, oi)
					if delays[ni] != delays[oi] {
						t.Fatalf("trial %d step %d: fire instants diverged: new timer %d (%v) old timer %d (%v)",
							trial, step, ni, delays[ni], oi, delays[oi])
					}
					if got, want := newClk.Now(), oldClk.now; !got.Equal(want) {
						t.Fatalf("trial %d step %d: clocks diverged: new %v old %v", trial, step, got, want)
					}
				}
				if tc.distinct {
					for i := range newOrder {
						if newOrder[i] != oldOrder[i] {
							t.Fatalf("trial %d: fire order diverged at %d:\nnew %v\nold %v",
								trial, i, newOrder, oldOrder)
						}
					}
				} else {
					// FIFO within ties: arm order is index order, so within
					// a run of equal delays the indexes must increase.
					for i := 1; i < len(newOrder); i++ {
						if delays[newOrder[i]] == delays[newOrder[i-1]] && newOrder[i] < newOrder[i-1] {
							t.Fatalf("trial %d: heap engine not FIFO within tie: %v", trial, newOrder)
						}
					}
				}
			}
		})
	}
}

func TestSimTimerStop(t *testing.T) {
	s := NewSim(origin)
	tm := s.NewTimer(time.Second)
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	if !tm.Stop() {
		t.Fatal("Stop() on pending timer = false")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() after Stop = %d, want 0", s.Pending())
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	s.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
}

func TestSimTimerStopAfterFire(t *testing.T) {
	s := NewSim(origin)
	tm := s.NewTimer(time.Second)
	s.Advance(time.Second)
	if tm.Stop() {
		t.Fatal("Stop() after fire = true")
	}
	if at := <-tm.C(); !at.Equal(origin.Add(time.Second)) {
		t.Fatalf("fired at %v, want %v", at, origin.Add(time.Second))
	}
}

func TestSimTimerStopMiddleOfHeap(t *testing.T) {
	s := NewSim(origin)
	const n = 32
	timers := make([]Timer, n)
	for i := range timers {
		timers[i] = s.NewTimer(time.Duration(i+1) * time.Second)
	}
	// Stop every third timer, then check only the survivors fire, in order.
	stopped := make(map[int]bool)
	for i := 0; i < n; i += 3 {
		if !timers[i].Stop() {
			t.Fatalf("Stop(%d) = false", i)
		}
		stopped[i] = true
	}
	prev := origin
	for i, tm := range timers {
		if stopped[i] {
			continue
		}
		s.Advance(s.timeUntil(tm))
		at := <-tm.C()
		if !at.After(prev) {
			t.Fatalf("timer %d fired at %v, not after %v", i, at, prev)
		}
		prev = at
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

// timeUntil is a test helper: the duration from now until tm's deadline.
func (s *Sim) timeUntil(tm Timer) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return tm.(*simTimer).ev.at.Sub(s.sched.now)
}

func TestRealTimerStop(t *testing.T) {
	c := NewReal()
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatal("Stop() on pending real timer = false")
	}
	tm = c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(5 * time.Second):
		t.Fatal("real timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop() after fire = true")
	}
}

// TestSimAdvanceDeliversOutsideLock pins the satellite restructure: Advance
// must not hold s.mu across the channel send, so a receiver that re-arms
// immediately can never deadlock against it even if the buffer contract
// changes. The test swaps in an unbuffered channel to force the send to
// park mid-Advance, then proves the clock is still usable.
func TestSimAdvanceDeliversOutsideLock(t *testing.T) {
	s := NewSim(origin)
	tm := s.NewTimer(time.Second).(*simTimer)
	tm.ch = make(chan time.Time) // unbuffered: delivery must block
	advanced := make(chan struct{})
	go func() {
		s.Advance(2 * time.Second)
		close(advanced)
	}()
	// Let Advance park in the send.
	time.Sleep(10 * time.Millisecond)
	armed := make(chan struct{})
	go func() {
		s.After(10 * time.Second) // deadlocks here if Advance holds the lock
		close(armed)
	}()
	select {
	case <-armed:
	case <-time.After(5 * time.Second):
		t.Fatal("clock locked while Advance was delivering")
	}
	if at := <-tm.C(); !at.Equal(origin.Add(time.Second)) {
		t.Fatalf("fired at %v, want %v", at, origin.Add(time.Second))
	}
	select {
	case <-advanced:
	case <-time.After(5 * time.Second):
		t.Fatal("Advance did not return after delivery was received")
	}
}

// TestSimConcurrentRearmStress hammers the fire-outside-lock path: many
// goroutines chain-sleep on the clock while the driver advances.
func TestSimConcurrentRearmStress(t *testing.T) {
	s := NewSim(origin)
	const sleepers, hops = 16, 50
	done := make(chan struct{}, sleepers)
	for i := 0; i < sleepers; i++ {
		i := i
		go func() {
			for h := 0; h < hops; h++ {
				s.Sleep(time.Duration(i+h+1) * time.Millisecond)
			}
			done <- struct{}{}
		}()
	}
	finished := 0
	deadline := time.Now().Add(30 * time.Second)
	for finished < sleepers {
		s.Advance(time.Second)
		for {
			select {
			case <-done:
				finished++
				continue
			default:
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stress did not converge: %d/%d sleepers done", finished, sleepers)
		}
	}
}

func TestSchedulerEventCancel(t *testing.T) {
	sc := NewScheduler(origin)
	ran := false
	ev := sc.After(time.Second, func(time.Time) { ran = true })
	keep := 0
	sc.After(time.Second, func(time.Time) { keep++ })
	sc.After(2*time.Second, func(time.Time) { keep++ })
	if !ev.Cancel() {
		t.Fatal("Cancel() on pending event = false")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel() = true")
	}
	if sc.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", sc.Len())
	}
	sc.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if keep != 2 {
		t.Fatalf("surviving events ran %d times, want 2", keep)
	}
	var nilEv *Event
	if nilEv.Cancel() {
		t.Fatal("Cancel() on nil event = true")
	}
}

func TestSchedulerCancelAfterRun(t *testing.T) {
	sc := NewScheduler(origin)
	ev := sc.After(time.Second, func(time.Time) {})
	sc.Run()
	if ev.Cancel() {
		t.Fatal("Cancel() after run = true")
	}
}

func TestSchedulerCancelPreservesFIFO(t *testing.T) {
	sc := NewScheduler(origin)
	var got []int
	var evs []*Event
	for i := 0; i < 10; i++ {
		i := i
		evs = append(evs, sc.After(time.Second, func(time.Time) { got = append(got, i) }))
	}
	evs[0].Cancel()
	evs[5].Cancel()
	evs[9].Cancel()
	sc.Run()
	want := []int{1, 2, 3, 4, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
}

// BenchmarkSimTimers measures arming n timers with random deadlines and
// draining them through Advance — the heap engine vs the seed O(n²) engine.
func BenchmarkSimTimers(b *testing.B) {
	bench := func(b *testing.B, n int, seed bool) {
		rng := rand.New(rand.NewSource(42))
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(3_600_000)) * time.Millisecond
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if seed {
				s := newSeedSim(origin)
				for _, d := range delays {
					s.After(d)
				}
				s.Advance(2 * time.Hour)
			} else {
				s := NewSim(origin)
				for _, d := range delays {
					s.After(d)
				}
				s.Advance(2 * time.Hour)
			}
		}
	}
	for _, n := range []int{1_000, 10_000, 100_000} {
		n := n
		b.Run(sizeName("heap", n), func(b *testing.B) { bench(b, n, false) })
	}
	// The seed engine is quadratic; 100k pending would take minutes per
	// iteration, so the reference stops at 10k.
	for _, n := range []int{1_000, 10_000} {
		n := n
		b.Run(sizeName("seed", n), func(b *testing.B) { bench(b, n, true) })
	}
}

func sizeName(engine string, n int) string {
	switch {
	case n >= 1000 && n%1000 == 0:
		return engine + "/" + itoa(n/1000) + "k"
	default:
		return engine + "/" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
