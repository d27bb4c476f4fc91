package chain

import (
	"fmt"
	"testing"

	"bcwan/internal/script"
)

// trueLock and falseLock are minimal locking scripts whose outcome does
// not depend on signatures, so verifier mechanics can be tested without
// wallets.
var (
	trueLock  = script.NewBuilder().AddInt64(1).Script()
	falseLock = script.NewBuilder().AddInt64(0).Script()
)

// verifierTestTx builds an n-input transaction spending distinct fake
// outpoints.
func verifierTestTx(n int) *Tx {
	tx := &Tx{Version: 1, Outputs: []TxOut{{Value: 1, Lock: trueLock}}}
	for i := 0; i < n; i++ {
		tx.Inputs = append(tx.Inputs, TxIn{Prev: OutPoint{TxID: Hash{0xaa, byte(i)}, Index: uint32(i)}})
	}
	return tx
}

func jobsFor(tx *Tx, lock script.Script) []verifyJob {
	jobs := make([]verifyJob, len(tx.Inputs))
	for i := range tx.Inputs {
		jobs[i] = verifyJob{tx: tx, txIdx: 0, inputIdx: i, lock: lock}
	}
	return jobs
}

func TestVerifyJobsSequentialAndParallelAgree(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		v := newVerifier()
		v.workers = workers
		if err := v.verifyJobs(jobsFor(verifierTestTx(17), trueLock)); err != nil {
			t.Fatalf("workers=%d: valid jobs rejected: %v", workers, err)
		}
		if err := v.verifyJobs(jobsFor(verifierTestTx(17), falseLock)); err == nil {
			t.Fatalf("workers=%d: failing jobs accepted", workers)
		}
	}
}

func TestVerifyJobsUsesCache(t *testing.T) {
	v := newVerifier()
	v.workers = 2
	cache := v.Cache()
	tx := verifierTestTx(4)
	if err := v.verifyJobs(jobsFor(tx, trueLock)); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 4 {
		t.Fatalf("cache entries = %d, want 4", cache.Len())
	}
	for _, j := range jobsFor(tx, trueLock) {
		if !cache.Contains(j.key()) {
			t.Fatalf("input %d not cached", j.inputIdx)
		}
	}
	// A different lock script must miss: the cache key commits to the
	// locking script, not just the txid/input pair.
	if cache.Contains(verifyJob{tx: tx, inputIdx: 0, lock: falseLock}.key()) {
		t.Fatal("cache hit for a different locking script")
	}
}

func TestSigCacheLRUEviction(t *testing.T) {
	cache := NewSigCache(3)
	keys := make([]sigCacheKey, 5)
	for i := range keys {
		keys[i] = sigCacheKey{TxID: Hash{byte(i + 1)}, Index: 0, Lock: Hash{0xff}}
	}
	cache.Add(keys[0])
	cache.Add(keys[1])
	cache.Add(keys[2])
	// Refresh key 0 so key 1 is now the oldest.
	if !cache.Contains(keys[0]) {
		t.Fatal("key 0 missing")
	}
	cache.Add(keys[3])
	if cache.Contains(keys[1]) {
		t.Fatal("least recently used entry not evicted")
	}
	for _, want := range []int{0, 2, 3} {
		if !cache.Contains(keys[want]) {
			t.Fatalf("key %d evicted unexpectedly", want)
		}
	}
	if cache.Len() != 3 {
		t.Fatalf("len = %d, want 3", cache.Len())
	}
}

// TestRunParallelReportsLowestFailure checks that when exactly one job
// fails, the reported error names that job's block position, keeping
// rejection messages stable regardless of worker scheduling.
func TestRunParallelReportsLowestFailure(t *testing.T) {
	good := verifierTestTx(8)
	bad := verifierTestTx(1)
	jobs := []verifyJob{{tx: bad, txIdx: 0, inputIdx: 0, lock: falseLock}}
	for i := range good.Inputs {
		jobs = append(jobs, verifyJob{tx: good, txIdx: 1, inputIdx: i, lock: trueLock})
	}
	pos, err := runParallel(jobs, 4)
	if err == nil || pos != 0 {
		t.Fatalf("failing job set: position %d, error %v", pos, err)
	}
	want := fmt.Sprintf("tx 0 (%s)", bad.ID())
	if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
		t.Fatalf("error %q does not lead with %q", got, want)
	}
}

// TestConnectTxVerifiedMatchesConnectTx pins the single-transaction
// contract: the fee a good spend pays, and the rejection of a spend
// whose script fails.
func TestConnectTxVerifiedMatchesConnectTx(t *testing.T) {
	utxo := NewUTXOSet()
	fund := &Tx{
		Version: 1,
		Inputs:  []TxIn{{Prev: OutPoint{Index: coinbaseIndex}}},
		Outputs: []TxOut{{Value: 100, Lock: trueLock}, {Value: 50, Lock: falseLock}},
	}
	if err := utxo.ApplyTx(fund, 0); err != nil {
		t.Fatal(err)
	}
	spendGood := &Tx{
		Version: 1,
		Inputs:  []TxIn{{Prev: OutPoint{TxID: fund.ID(), Index: 0}}},
		Outputs: []TxOut{{Value: 90, Lock: trueLock}},
	}
	spendBad := &Tx{
		Version: 1,
		Inputs:  []TxIn{{Prev: OutPoint{TxID: fund.ID(), Index: 1}}},
		Outputs: []TxOut{{Value: 40, Lock: trueLock}},
	}
	v := newVerifier()
	for _, tc := range []struct {
		name    string
		tx      *Tx
		fee     uint64
		wantErr bool
	}{{"good", spendGood, 10, false}, {"bad", spendBad, 0, true}} {
		fee, err := ConnectTxVerified(utxo.Clone(), tc.tx, 1, 0, true, v)
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err %v, want error %v", tc.name, err, tc.wantErr)
		}
		if fee != tc.fee {
			t.Fatalf("%s: fee %d, want %d", tc.name, fee, tc.fee)
		}
	}
}
