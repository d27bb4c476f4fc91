package daemon

import (
	"errors"
	"sync"
	"testing"
)

// Tests for the store's append path: one fsync per returned
// AppendBlock (sequential and concurrent writers), the closed-store
// error, the fresh-directory sync window, and torn-tail crash recovery.

func TestSequentialAppendsSyncOncePerRecord(t *testing.T) {
	c, _, _ := storedChain(t, 5)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := st.Syncs()
	appendBest(t, st, c, 1, 5)
	if syncs := st.Syncs() - base; syncs != 5 {
		t.Fatalf("5 sequential appends issued %d fsyncs, want 5", syncs)
	}
}

func TestConcurrentAppendsEachSync(t *testing.T) {
	const n = 8
	c, genesis, miners := storedChain(t, n)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	base := st.Syncs()
	var wg sync.WaitGroup
	for h := int64(1); h <= n; h++ {
		b, ok := c.BlockAt(h)
		if !ok {
			t.Fatalf("missing height %d", h)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.AppendBlock(b); err != nil {
				t.Errorf("append: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := st.LogRecords(); got != n {
		t.Fatalf("LogRecords = %d, want %d", got, n)
	}
	if syncs := st.Syncs() - base; syncs != n {
		t.Fatalf("%d concurrent appends issued %d fsyncs, want one each", n, syncs)
	}

	// Everything a returned AppendBlock promised must replay, whatever
	// order the goroutines reached the log in.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	replica := freshReplica(t, genesis, miners)
	loaded, err := st2.Load(replica)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != n || replica.Height() != n {
		t.Fatalf("reloaded %d blocks to height %d, want %d", loaded, replica.Height(), n)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	c, _, _ := storedChain(t, 1)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := c.BlockAt(1)
	if err := st.AppendBlock(b); !errors.Is(err, errStoreClosed) {
		t.Fatalf("append after close: %v, want errStoreClosed", err)
	}
}

func TestFreshStoreSyncsDirectory(t *testing.T) {
	// A crash between creating blocks.log and the first compaction must
	// not lose the file: the directory entry has to be durable the
	// moment OpenStore returns. Assert through the syncDir hook that a
	// fresh store fsyncs its directory — the crash window the seed left
	// open (it only synced the directory on snapshot rename).
	var mu sync.Mutex
	var synced []string
	dirSyncHook = func(dir string) {
		mu.Lock()
		synced = append(synced, dir)
		mu.Unlock()
	}
	defer func() { dirSyncHook = nil }()

	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	fresh := len(synced)
	mu.Unlock()
	if fresh == 0 || synced[0] != dir {
		t.Fatalf("fresh OpenStore issued no directory sync (saw %v)", synced)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening an existing store must not pay the directory sync again.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	mu.Lock()
	reopen := len(synced) - fresh
	mu.Unlock()
	if reopen != 0 {
		t.Fatalf("reopening an existing store issued %d directory syncs, want 0", reopen)
	}
}

func TestCrashMidBatchTruncatesTornTail(t *testing.T) {
	c, genesis, miners := storedChain(t, 6)
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Records 1..4 returned durable, then a crash mid-write of record 5
	// leaves a torn tail.
	appendBest(t, st, c, 1, 4)
	b5, _ := c.BlockAt(5)
	if err := st.CrashForTest(b5, 13); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBlock(b5); !errors.Is(err, errStoreClosed) {
		t.Fatalf("append after crash: %v, want errStoreClosed", err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	replica := freshReplica(t, genesis, miners)
	loaded, err := st2.Load(replica)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 4 || replica.Height() != 4 {
		t.Fatalf("recovered %d blocks to height %d, want the 4 returned records", loaded, replica.Height())
	}
	// The torn tail is gone: appending the lost block again must leave
	// a cleanly replayable log.
	if err := st2.AppendBlock(b5); err != nil {
		t.Fatal(err)
	}
	b6, _ := c.BlockAt(6)
	if err := st2.AppendBlock(b6); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	replica2 := freshReplica(t, genesis, miners)
	if _, err := st3.Load(replica2); err != nil {
		t.Fatal(err)
	}
	if replica2.Height() != 6 {
		t.Fatalf("post-recovery height %d, want 6", replica2.Height())
	}
}
