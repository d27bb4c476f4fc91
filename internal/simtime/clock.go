// Package simtime provides virtual time: Scheduler, a discrete-event
// engine that runs callbacks in (deadline, arm order) on its caller's
// goroutine, and a Clock with a real-time and a simulated implementation.
//
// The experiment campaigns, the city campaign and the radio model run on
// a Scheduler. Today only chaos.Net's message delays take a Clock: Real
// by default, a Sim in its tests. The daemons read the wall clock.
package simtime

import (
	"sync"
	"time"
)

// Clock is a time source that can be real or simulated.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
	// After returns a channel that receives the then-current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a cancellable one-shot timer that fires once d has
	// elapsed. Components that arm a timeout per operation must Stop the
	// timer on the fast path, or every completed operation leaks a pending
	// waiter until its deadline passes.
	NewTimer(d time.Duration) Timer
}

// Timer is a cancellable one-shot timer armed via Clock.NewTimer.
type Timer interface {
	// C returns the channel the fire time is delivered on. The channel has
	// a one-element buffer, so a fired timer never blocks its clock.
	C() <-chan time.Time
	// Stop cancels the timer and reports whether it was still pending.
	// False means the timer already fired (its time may be sitting in C)
	// or was stopped before. Stop does not drain C.
	Stop() bool
}

// Real is a Clock backed by the wall clock.
type Real struct{}

var _ Clock = Real{}

// NewReal returns a wall-clock Clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (rt realTimer) C() <-chan time.Time { return rt.t.C }
func (rt realTimer) Stop() bool          { return rt.t.Stop() }

// Sim is a simulated Clock for goroutines: those that Sleep on it are
// suspended until the driver advances virtual time past their wake-up
// instant via Advance or Step.
//
// Sim is a mutex around a Scheduler. Each pending timer is one event on
// it, so timers fire in (deadline, arm order) — FIFO among equal
// deadlines — and arming, firing and stopping are O(log n).
//
// The zero value is not usable; construct with NewSim.
type Sim struct {
	mu    sync.Mutex
	sched *Scheduler
	due   *simTimer // set by the event Step just ran
}

var _ Clock = (*Sim)(nil)

// NewSim returns a simulated clock starting at the given origin.
func NewSim(origin time.Time) *Sim {
	return &Sim{sched: NewScheduler(origin)}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.Now()
}

// Sleep implements Clock. It suspends the caller until virtual time
// reaches now+d.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-s.After(d)
}

// After implements Clock.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	return s.NewTimer(d).C()
}

// NewTimer implements Clock. A non-positive duration delivers the current
// virtual time immediately; Stop then reports false.
func (s *Sim) NewTimer(d time.Duration) Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &simTimer{sim: s, ch: make(chan time.Time, 1)}
	if d <= 0 {
		t.ch <- s.sched.Now()
		return t
	}
	t.ev = s.sched.After(d, func(time.Time) { s.due = t })
	return t
}

// Advance moves virtual time forward by d, firing every timer whose
// deadline falls inside the window in deadline order (FIFO among equal
// deadlines). A timer armed by a receiver woken inside the window joins
// it if its deadline is inside it.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	target := s.sched.Now().Add(d)
	for s.sched.Len() > 0 && !s.sched.queue[0].at.After(target) {
		s.fire()
	}
	// A concurrent Advance may have moved time past target while the lock
	// was released; RunUntil never rewinds.
	s.sched.RunUntil(target)
	s.mu.Unlock()
}

// Step advances virtual time to the next pending timer deadline and fires
// it. It reports whether a timer was pending.
func (s *Sim) Step() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sched.Len() == 0 {
		return false
	}
	s.fire()
	return true
}

// fire runs the earliest event, which marks its timer due, and delivers
// the fire time with s.mu released: the buffered channel means the send
// can never block today, but dropping the lock first guarantees a
// receiver that wakes immediately and re-arms cannot deadlock against the
// driver even if the channel contract ever changes. The caller holds s.mu.
func (s *Sim) fire() {
	s.sched.Step()
	t, at := s.due, s.sched.Now()
	s.due = nil
	s.mu.Unlock()
	t.ch <- at
	s.mu.Lock()
}

// Pending reports how many timers are waiting to fire.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.Len()
}

// simTimer is a pending (or fired) one-shot timer on a Sim clock.
type simTimer struct {
	sim *Sim
	ev  *Event // nil for a timer that fired when armed
	ch  chan time.Time
}

func (t *simTimer) C() <-chan time.Time { return t.ch }

// Stop cancels the timer's event. Event.Cancel is nil-safe, so a timer
// that fired when armed reports false.
func (t *simTimer) Stop() bool {
	t.sim.mu.Lock()
	defer t.sim.mu.Unlock()
	return t.ev.Cancel()
}
