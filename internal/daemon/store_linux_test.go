package daemon

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestStoreRewritesAfterFailedAppend makes one append fail with EFBIG
// under a file-size limit. No checkpoint can vouch for the lost block, so
// the next compaction rewrites the log from the chain in memory, and a
// restart restores every block.
func TestStoreRewritesAfterFailedAppend(t *testing.T) {
	c, genesis, miners := storedChain(t, 6)
	dir := t.TempDir()
	st := openTestStore(t, dir)
	if _, err := st.Load(freshReplica(t, genesis, miners)); err != nil {
		t.Fatal(err)
	}
	appendBest(t, st, c, 1, 3)
	info, err := os.Stat(filepath.Join(dir, "blocks.log"))
	if err != nil {
		t.Fatal(err)
	}
	var saved syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &saved); err != nil {
		t.Fatal(err)
	}
	limited := saved
	limited.Cur = uint64(info.Size()) + 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limited); err != nil {
		t.Skipf("cannot lower RLIMIT_FSIZE: %v", err)
	}
	b4, _ := c.BlockAt(4)
	err = st.AppendBlock(b4)
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &saved); rerr != nil {
		t.Fatalf("restore RLIMIT_FSIZE: %v", rerr)
	}
	if err == nil {
		t.Fatal("append past the size limit succeeded")
	}
	appendBest(t, st, c, 5, 6)
	if err := st.Compact(c); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	restored := freshReplica(t, genesis, miners)
	if loaded, err := openTestStore(t, dir).Load(restored); err != nil || loaded != 6 || restored.Tip().ID() != c.Tip().ID() {
		t.Fatalf("reload: %d blocks (%v), want all 6", loaded, err)
	}
}
