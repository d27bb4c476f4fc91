package chain

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"bcwan/internal/script"
)

// verifyJob is one deferred script verification: input index inputIdx of
// tx must satisfy the locking script lock. txIdx tags the job with the
// transaction's position in its block for error reporting.
type verifyJob struct {
	tx       *Tx
	txIdx    int
	inputIdx int
	lock     script.Script
}

// run executes the script pair. Script execution depends only on the
// transaction and the locking script — never on UTXO state — which is
// what makes deferring and parallelizing it safe. A failure carries the
// block-position context connectBlock reports UTXO-level failures with.
func (j verifyJob) run() error {
	if err := j.tx.VerifyInput(j.inputIdx, j.lock); err != nil {
		return fmt.Errorf("tx %d (%s): %w", j.txIdx, j.tx.ID(), err)
	}
	return nil
}

// key returns the job's signature-cache key.
func (j verifyJob) key() sigCacheKey {
	return sigCacheKey{TxID: j.tx.ID(), Index: uint32(j.inputIdx), Lock: lockHash(j.lock)}
}

// Verifier runs script verification jobs on a worker pool as wide as the
// schedulable CPUs, short-circuiting past work recorded in its signature
// cache.
//
// One Verifier is shared by every consumer that validates the same chain
// — block connect, reorg replay, mempool admission and block building —
// so a script pair verified at mempool entry is not re-verified when its
// block connects.
type Verifier struct {
	workers int
	cache   *SigCache
}

// newVerifier creates a verifier with an empty DefaultSigCacheSize cache.
// Its width is GOMAXPROCS, read once here.
func newVerifier() *Verifier {
	return &Verifier{workers: poolWidth(), cache: NewSigCache(DefaultSigCacheSize)}
}

// poolWidth is the fan-out of every verification pool in the package.
func poolWidth() int { return runtime.GOMAXPROCS(0) }

// Cache returns the shared signature cache.
func (v *Verifier) Cache() *SigCache { return v.cache }

// verifyJobs runs every job, returning nil only if all pass. Cache hits
// are skipped; successes are recorded.
func (v *Verifier) verifyJobs(jobs []verifyJob) error {
	if len(jobs) == 0 {
		return nil
	}
	// Cache pass: drop jobs whose exact (txid, input, lock) triple
	// verified before. Done up front so the pool sizes itself to the
	// residual work.
	pending := make([]verifyJob, 0, len(jobs))
	for _, j := range jobs {
		if !v.cache.Contains(j.key()) {
			pending = append(pending, j)
		}
	}
	// Every job below the first failure passed.
	passed, err := runParallel(pending, v.workers)
	for _, j := range pending[:passed] {
		v.cache.Add(j.key())
	}
	return err
}

// runParallel runs jobs on min(workers, len(jobs)) goroutines — on the
// caller's goroutine when that is one — with first-error cancellation:
// once any job fails, workers stop picking up new jobs. Jobs are claimed
// in index order and every claimed job finishes, so every job below a
// failure has run; the lowest-index failure is therefore exact and is
// returned with its index. All passing returns (len(jobs), nil).
func runParallel[J interface{ run() error }](jobs []J, workers int) (int, error) {
	workers = min(workers, len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			if err := j.run(); err != nil {
				return i, err
			}
		}
		return len(jobs), nil
	}
	var (
		next   atomic.Int64 // index of the next unclaimed job
		failed atomic.Bool  // cancellation flag
		wg     sync.WaitGroup

		errMu    sync.Mutex
		firstErr error
		firstPos = len(jobs)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if err := jobs[i].run(); err != nil {
					failed.Store(true)
					errMu.Lock()
					if i < firstPos {
						firstPos, firstErr = i, err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstPos, firstErr
}
