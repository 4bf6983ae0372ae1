// Package par is the repository's one worker pool. Every fan-out in the
// emulator, the experiments and the services runs through For, so they all
// share one job-claiming scheme, one worker-count default and one panic
// contract.
//
// Callers keep results deterministic the same way everywhere: fn(i) writes
// only to slot i of a caller-owned slice, and the caller folds the slots in
// index order after For returns, so output is identical at any worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count setting for n jobs: 0 or less means
// GOMAXPROCS, and the result is capped to the range [1, n].
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// For calls fn(i) for every i in [0, n) on Workers(workers, n) goroutines
// and returns once every call has returned. Jobs are claimed in index order
// off a shared counter. With one worker the calls run inline on the
// caller's goroutine, in index order.
//
// If a call panics, the remaining workers stop claiming jobs, and once the
// running calls finish For re-raises the panic of the lowest panicking
// index with its original value. Every index below that one was claimed
// before it, so the serial and parallel paths fail at the same index.
func For(n, workers int, fn func(i int)) {
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p := &pool{first: n}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.work(n, fn)
	}
	p.wg.Wait()
	if p.first < n {
		panic(p.value)
	}
}

// pool is the state one parallel For call shares between its workers.
type pool struct {
	next  atomic.Int64
	stop  atomic.Bool
	wg    sync.WaitGroup
	mu    sync.Mutex
	first int // lowest panicking index; n while no job has panicked
	value any // the panic value of index first
}

// work claims and runs jobs until they run out or one panics.
func (p *pool) work(n int, fn func(i int)) {
	defer p.wg.Done()
	i := -1
	defer func() {
		if v := recover(); v != nil {
			p.stop.Store(true)
			p.mu.Lock()
			if i < p.first {
				p.first, p.value = i, v
			}
			p.mu.Unlock()
		}
	}()
	for !p.stop.Load() {
		if i = int(p.next.Add(1)) - 1; i >= n {
			return
		}
		fn(i)
	}
}
