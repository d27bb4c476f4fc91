package channel

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"bcwan/internal/chain"
	"bcwan/internal/durable"
)

// Store persists channel states in one append-only log, channels.log, in
// the durable package's CRC-framed format. Save appends the whole state
// as one JSON record under one fsync; Load replays the log, and the last
// record of each (ID, Role) wins — the payer and the payee of one channel
// may share a store. Every compactEvery appends the log is rewritten
// atomically with only those records.
//
// Both endpoints persist BEFORE acting on a state change: the payee saves
// the countersigned version before disclosing a key, and the payer saves
// a signed update before sending it, so a restart always knows the exact
// in-flight window.
type Store struct {
	log *durable.Log

	// mu guards the log and the fields below.
	mu      sync.Mutex
	closed  bool
	latest  [][]byte         // the newest record of each endpoint
	index   map[stateKey]int // position of an endpoint in latest
	appends int              // records appended since the last rewrite
}

// stateKey names one endpoint's state in a store.
type stateKey struct {
	id   chain.Hash
	role Role
}

// compactEvery is how many appends trigger a rewrite of the log.
const compactEvery = 64

// maxStateRecord bounds one encoded state.
const maxStateRecord = 64 << 10

var logMagic = []byte("BCWANCHAN1\n")

var errStoreClosed = errors.New("channel: store closed")

// OpenStore creates (if needed) and opens a channel state directory. A
// directory still holding a pre-log per-channel JSON state is refused:
// silently dropping a countersigned state would break the bounded-loss
// promise.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("channel: open store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("channel: open store: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			return nil, fmt.Errorf("channel: open store: %s is a pre-log channel state, which this version does not read",
				filepath.Join(dir, e.Name()))
		}
	}
	log, err := durable.OpenLog(filepath.Join(dir, "channels.log"), logMagic, maxStateRecord)
	if err != nil {
		return nil, fmt.Errorf("channel: open store: %w", err)
	}
	s := &Store{log: log}
	if _, err := s.Load(); err != nil {
		log.Close()
		return nil, err
	}
	return s, nil
}

// stateJSON is the record form of State: the funding id as hex, every
// other field under its tag.
type stateJSON struct {
	ID string `json:"id"`
	*State
}

// Save durably records a channel state: one append and one fsync. The
// protocol releases keys and signatures on the wire immediately after
// Save returns, so the state must survive power loss, not just a process
// crash.
func (s *Store) Save(st *State) error {
	rec, err := json.Marshal(stateJSON{ID: st.ID.String(), State: st})
	if err != nil {
		return fmt.Errorf("channel: marshal state: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errStoreClosed
	}
	// Rewrite before appending, so a failed rewrite leaves nothing new on
	// disk and the caller's state unchanged.
	if s.appends >= compactEvery {
		if err := s.log.Rewrite(s.latest); err != nil {
			return fmt.Errorf("channel: compact store: %w", err)
		}
		s.appends = 0
	}
	if err := s.log.Append(rec); err != nil {
		return fmt.Errorf("channel: save state: %w", err)
	}
	s.appends++
	k := stateKey{st.ID, st.Role}
	if i, ok := s.index[k]; ok {
		s.latest[i] = rec
	} else {
		s.index[k] = len(s.latest)
		s.latest = append(s.latest, rec)
	}
	return nil
}

// Load replays the log and returns the latest state of every endpoint in
// the store. A torn tail record is cut away; a record that passes its
// checksum but does not parse is an error.
func (s *Store) Load() ([]*State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errStoreClosed
	}
	recs, err := s.log.Replay()
	if err != nil {
		return nil, fmt.Errorf("channel: load store: %w", err)
	}
	var states []*State
	var latest [][]byte
	index := make(map[stateKey]int)
	for _, rec := range recs {
		j := stateJSON{State: new(State)}
		if err := json.Unmarshal(rec, &j); err != nil {
			return nil, fmt.Errorf("channel: parse state: %w", err)
		}
		st := j.State
		if st.ID, err = chain.HashFromString(j.ID); err != nil {
			return nil, fmt.Errorf("channel: bad state id: %w", err)
		}
		k := stateKey{st.ID, st.Role}
		if i, ok := index[k]; ok {
			states[i], latest[i] = st, rec
			continue
		}
		index[k] = len(states)
		states = append(states, st)
		latest = append(latest, rec)
	}
	s.latest, s.index, s.appends = latest, index, len(recs)
	return states, nil
}

// Syncs returns how many append fsyncs the store has issued.
func (s *Store) Syncs() uint64 { return s.log.Syncs() }

// Close closes the log. Every returned Save is already durable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}
