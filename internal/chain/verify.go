package chain

import (
	"fmt"
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
// what makes deferring and parallelizing it safe.
func (j verifyJob) run() error {
	return j.tx.VerifyInput(j.inputIdx, j.lock)
}

// key returns the job's signature-cache key.
func (j verifyJob) key() sigCacheKey {
	return sigCacheKey{TxID: j.tx.ID(), Index: uint32(j.inputIdx), Lock: lockHash(j.lock)}
}

// wrap attaches block-position context to a verification failure, in the
// same shape connectBlock reports UTXO-level failures.
func (j verifyJob) wrap(err error) error {
	return fmt.Errorf("tx %d (%s): %w", j.txIdx, j.tx.ID(), err)
}

// Verifier runs script verification jobs, optionally fanning them out to
// a bounded worker pool and short-circuiting past work recorded in a
// shared signature cache. The zero-value-equivalent NewVerifier(0, nil)
// reproduces the seed's sequential, uncached behavior exactly.
//
// One Verifier is shared by every consumer that validates the same chain
// — block connect, reorg replay, mempool admission and block building —
// so a script pair verified at mempool entry is not re-verified when its
// block connects.
type Verifier struct {
	workers int
	cache   *SigCache
}

// NewVerifier creates a verifier. workers is the fan-out width for one
// batch of jobs: 0 (or 1) verifies sequentially on the caller's
// goroutine, preserving deterministic error order for the Fig. 5
// ablation; n > 1 verifies on min(n, len(jobs)) goroutines with
// first-error cancellation. cache may be nil to disable memoization.
func NewVerifier(workers int, cache *SigCache) *Verifier {
	return &Verifier{workers: workers, cache: cache}
}

// Cache returns the shared signature cache (nil when disabled).
func (v *Verifier) Cache() *SigCache {
	if v == nil {
		return nil
	}
	return v.cache
}

// verifyJobs runs every job, returning nil only if all pass. Cache hits
// are skipped; successes are recorded. A nil Verifier degrades to the
// sequential uncached path.
func (v *Verifier) verifyJobs(jobs []verifyJob) error {
	if len(jobs) == 0 {
		return nil
	}
	var cache *SigCache
	workers := 0
	if v != nil {
		cache, workers = v.cache, v.workers
	}

	// Cache pass: drop jobs whose exact (txid, input, lock) triple
	// verified before. Done up front so the pool sizes itself to the
	// residual work.
	pending := jobs
	if cache != nil {
		pending = make([]verifyJob, 0, len(jobs))
		for _, j := range jobs {
			if !cache.Contains(j.key()) {
				pending = append(pending, j)
			}
		}
	}
	if len(pending) == 0 {
		return nil
	}

	if workers <= 1 || len(pending) == 1 {
		for _, j := range pending {
			if err := j.run(); err != nil {
				return j.wrap(err)
			}
			if cache != nil {
				cache.Add(j.key())
			}
		}
		return nil
	}
	return runParallel(pending, workers, cache)
}

// runParallel fans jobs out to a worker pool with first-error
// cancellation: once any job fails, workers stop picking up new jobs.
// Among the failures observed before cancellation, the lowest-position
// one is reported, keeping messages stable for a given invalid block.
func runParallel(jobs []verifyJob, workers int, cache *SigCache) error {
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var (
		next   atomic.Int64 // index of the next unclaimed job
		failed atomic.Bool  // cancellation flag
		wg     sync.WaitGroup

		errMu    sync.Mutex
		firstErr error
		firstPos = len(jobs)
	)
	record := func(pos int, err error) {
		failed.Store(true)
		errMu.Lock()
		if pos < firstPos {
			firstPos, firstErr = pos, err
		}
		errMu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				if err := j.run(); err != nil {
					record(i, j.wrap(err))
					return
				}
				if cache != nil {
					cache.Add(j.key())
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
