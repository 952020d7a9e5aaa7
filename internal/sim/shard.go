package sim

import (
	"sync"
	"sync/atomic"
)

// ShardSeed derives the deterministic RNG seed for shard index i of a
// simulation seeded with seed. Shard 0 keeps the raw seed so a one-shard
// run is bit-identical to a plain single-engine run; the remaining shards
// mix the index with a 64-bit odd constant (golden-ratio, the usual
// splitmix increment) so neighboring shards get uncorrelated streams.
func ShardSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return seed ^ int64(uint64(i)*0x9E3779B97F4A7C15)
}

// Group advances engines that share no state — the per-component engines
// of a partitioned topology — on up to a set number of worker goroutines.
// Each engine stays strictly sequential, so the worker count only changes
// which goroutine runs an engine, never any engine's event order.
type Group struct {
	engines []*Engine
	workers int
}

// NewGroup groups independent engines; it runs them sequentially until
// SetWorkers says otherwise.
func NewGroup(engines ...*Engine) *Group { return &Group{engines: engines, workers: 1} }

// SetWorkers sets how many goroutines Run may use; n < 1 means 1.
func (g *Group) SetWorkers(n int) { g.workers = n }

// Run calls Engine.Run(horizon) on every engine (horizon 0 runs each until
// idle) and returns when all have finished. A panic on a worker goroutine
// is re-raised on the caller once every worker has stopped.
func (g *Group) Run(horizon Time) {
	w := min(g.workers, len(g.engines))
	if w <= 1 {
		for _, e := range g.engines {
			e.Run(horizon)
		}
		return
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		panics = make([]any, w)
	)
	wg.Add(w)
	for k := range panics {
		go func() {
			defer wg.Done()
			defer func() { panics[k] = recover() }()
			for i := int(next.Add(1)) - 1; i < len(g.engines); i = int(next.Add(1)) - 1 {
				g.engines[i].Run(horizon)
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
