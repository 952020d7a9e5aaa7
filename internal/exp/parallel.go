package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The sweep runner exploits the fact that every simulation is hermetic: a
// run builds its own sim.Engine with its own seeded RNG and touches no
// package-level mutable state, so independent (seed, config) jobs may
// execute concurrently without changing any result. Determinism is
// preserved structurally, not by luck: callers pre-enumerate the full job
// list up front (the enumeration order is the sequential loop order), each
// job writes into its own index-addressed slot, and results are merged
// sequentially in job-index order afterwards. Every floating-point
// addition therefore happens in exactly the order the sequential code used,
// and the output is bit-identical for any worker count. See DESIGN.md
// "Performance architecture".

// workerCount is the process-wide worker pool size for RunParallel.
var workerCount atomic.Int32

func init() { workerCount.Store(int32(runtime.GOMAXPROCS(0))) }

// SetWorkers sets how many simulations RunParallel may run concurrently.
// n ≤ 1 restores fully sequential execution (jobs run inline on the
// caller's goroutine, in job order).
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	workerCount.Store(int32(n))
}

// Workers returns the current worker pool size.
func Workers() int { return int(workerCount.Load()) }

// defaultShards is the package-default worker count for one simulation's
// component engines (SetShards), used when Spec.Shards is 0.
var defaultShards = 1

// SetShards sets the package-default number of worker goroutines that
// advance one simulation's component engines, for specs that leave
// Spec.Shards at 0; n < 1 means 1. Output is identical for any value.
func SetShards(n int) { defaultShards = max(n, 1) }

// workers resolves the spec's per-simulation worker count.
func (s *Spec) workers() int {
	n := s.Shards
	if n == 0 {
		n = defaultShards
	}
	return max(n, 1)
}

// simsRun counts completed simulations process-wide, for throughput
// reporting (effective simulations/sec in cmd/mpccbench).
var simsRun atomic.Uint64

// SimsRun returns the number of simulations completed so far.
func SimsRun() uint64 { return simsRun.Load() }

// countSim records one completed simulation.
func countSim() { simsRun.Add(1) }

// RunParallel executes job(0) … job(n-1), each exactly once. With Workers()
// ≤ 1 (or n ≤ 1) the jobs run inline in index order — byte-for-byte the
// sequential behavior. Otherwise min(Workers(), n) goroutines pull indices
// from a shared counter; jobs must be independent and must communicate
// results only through index-addressed slots (e.g. results[i]), never by
// appending to shared state. RunParallel returns when every job has
// finished. A panicking job propagates to the caller.
func RunParallel(n int, job func(i int)) {
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
					// Drain remaining indices so sibling workers exit.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
