package simtime

import (
	"container/heap"
	"time"
)

// Scheduler is a deterministic discrete-event scheduler. Events are
// executed strictly in timestamp order (FIFO among equal timestamps) on the
// caller's goroutine, so simulations built on it are single-threaded and
// reproducible.
//
// Handlers may schedule further events; Run keeps going until the queue is
// empty or the optional horizon is reached.
type Scheduler struct {
	now   time.Time
	queue eventQueue
	seq   uint64
}

// Event is a scheduled callback handle. It can be cancelled while still
// queued; components that schedule a timeout per operation should Cancel on
// the fast path so completed operations stop leaking one-shot events.
type Event struct {
	at    time.Time
	seq   uint64
	fn    func(now time.Time)
	idx   int // heap index, -1 once run or cancelled
	sched *Scheduler
}

// Cancel removes the event from the queue in O(log n) and reports whether
// it was still pending. False means it already ran or was cancelled.
func (e *Event) Cancel() bool {
	if e == nil || e.idx < 0 {
		return false
	}
	s := e.sched
	heap.Remove(&s.queue, e.idx)
	e.idx = -1
	e.fn = nil
	return true
}

// NewScheduler returns a Scheduler whose virtual time starts at origin.
func NewScheduler(origin time.Time) *Scheduler {
	return &Scheduler{now: origin}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.now }

// At schedules fn to run at the absolute instant t. Instants in the past
// run at the current virtual time. The returned handle may be ignored or
// used to Cancel the event while it is still queued.
func (s *Scheduler) At(t time.Time, fn func(now time.Time)) *Event {
	if t.Before(s.now) {
		t = s.now
	}
	s.seq++
	ev := &Event{at: t, seq: s.seq, fn: fn, sched: s}
	heap.Push(&s.queue, ev)
	return ev
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func(now time.Time)) *Event {
	return s.At(s.now.Add(d), fn)
}

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return s.queue.Len() }

// Step executes the earliest pending event, advancing virtual time to its
// timestamp. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	if s.queue.Len() == 0 {
		return false
	}
	ev, ok := heap.Pop(&s.queue).(*Event)
	if !ok {
		return false
	}
	ev.idx = -1
	s.now = ev.at
	ev.fn(s.now)
	return true
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps not after the horizon, then sets
// virtual time to the horizon. Events beyond it stay queued.
func (s *Scheduler) RunUntil(horizon time.Time) {
	for s.queue.Len() > 0 && !s.queue[0].at.After(horizon) {
		s.Step()
	}
	if s.now.Before(horizon) {
		s.now = horizon
	}
}

// eventQueue is a min-heap ordered by (at, seq) with index tracking for
// O(log n) cancellation.
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at.Equal(q[j].at) {
		return q[i].seq < q[j].seq
	}
	return q[i].at.Before(q[j].at)
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}

func (q *eventQueue) Push(x any) {
	ev, ok := x.(*Event)
	if !ok {
		return
	}
	ev.idx = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
