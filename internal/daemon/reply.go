package daemon

import "sync"

// replies routes an answer arriving on a p2p handler to the one caller
// waiting under its key. The zero value is ready to use.
type replies[K comparable, V any] struct {
	mu      sync.Mutex
	waiting map[K]chan V
}

// wait registers for key's reply; call it before sending the request,
// and cancel once done.
func (r *replies[K, V]) wait(key K) (<-chan V, func()) {
	ch := make(chan V, 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.waiting == nil {
		r.waiting = make(map[K]chan V)
	}
	r.waiting[key] = ch
	return ch, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.waiting[key] == ch {
			delete(r.waiting, key)
		}
	}
}

// deliver hands v to key's waiter without blocking; a reply nobody
// waits for, or a second one, is dropped.
func (r *replies[K, V]) deliver(key K, v V) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case r.waiting[key] <- v:
	default:
	}
}
