package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lesm/internal/obs"
)

// Opts selects the execution policy an engine call runs under.
type Opts struct {
	// P is the maximum number of concurrent workers; <= 0 means
	// runtime.GOMAXPROCS(0).
	P int
	// Ctx cancels work between chunks; nil means context.Background().
	Ctx context.Context
	// Obs, when non-nil, receives one PoolStats per parallel pass
	// (chunk wait/exec latencies, pass wall time). The nil path costs
	// a single pointer check per pass; timing never influences chunk
	// boundaries or execution order, so determinism is unaffected.
	Obs obs.PoolObserver
}

// Workers resolves P to the effective worker count.
func (o Opts) Workers() int {
	if o.P > 0 {
		return o.P
	}
	return runtime.GOMAXPROCS(0)
}

// Context resolves Ctx, defaulting to context.Background().
func (o Opts) Context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Err reports the cancellation state without doing any work.
func (o Opts) Err() error { return o.Context().Err() }

// Chunk-count policy. The number of chunks a range is split into depends
// only on the item count n — never on P — so chunk boundaries, and with
// them the grouping of floating-point additions in ordered reductions, are
// identical at any parallelism level.
//
// The policy is n-dependent so large inputs expose enough chunks to keep
// >16-core machines busy, while the MaxChunks ceiling bounds the memory
// spent on per-chunk accumulators (at most MaxChunks live copies; CATHY's
// E-step scratch, for example, is O(topics x nodes) per chunk):
//
//	n < MinChunks             -> n chunks (one item each)
//	otherwise                 -> clamp(n/MinChunkItems, MinChunks, MaxChunks)
const (
	// MinChunks is the chunk-count floor for ranges of at least MinChunks
	// items; smaller ranges get one chunk per item.
	MinChunks = 16
	// MinChunkItems is the target number of items per chunk once the floor
	// is exceeded; more chunks than n/MinChunkItems would spend more time
	// on scheduling and accumulator merging than on work.
	MinChunkItems = 8
	// MaxChunks is the ceiling on the chunk count, bounding per-chunk
	// accumulator memory and reduction cost. It is the effective worker
	// ceiling for very large inputs.
	MaxChunks = 256
)

// NumChunks returns the number of chunks the policy above assigns to n
// items. It is a pure function of n, never of P.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	if n < MinChunks {
		return n
	}
	c := n / MinChunkItems
	if c < MinChunks {
		c = MinChunks
	}
	if c > MaxChunks {
		c = MaxChunks
	}
	return c
}

// NumChunksCapped is NumChunks clamped to at most max chunks, for engines
// whose per-chunk accumulators are too large for the default policy
// (CATHY's E-step scratch, STROD's vocabulary-sized moment accumulators,
// the Gibbs samplers' delta tables). Like NumChunks it is a pure function
// of n — the cap must be a constant or itself n-derived, never P-derived,
// or determinism is lost. Pair it with ForChunksN / MapReduceN.
func NumChunksCapped(n, max int) int {
	nc := NumChunks(n)
	if nc > max {
		nc = max
	}
	return nc
}

// The collapsed-Gibbs sampler chunk policy, shared by internal/lda and
// internal/tng: clamp(n/SamplerMinItems, 1, SamplerMaxChunks), lowered
// further until the per-chunk accumulators fit SamplerCellBudget.
// Deliberately coarser than the default policy, for two reasons.
// Statistically, counts are stale across chunks within a sweep (the
// AD-LDA trade), so fewer/bigger chunks keep a sampler closer to fully
// collapsed Gibbs — and the small corpora where staleness hurts most are
// exactly the ones that get few chunks. In memory, each chunk carries
// count-delta tables of O(cells) ints, so the chunk ceiling bounds the
// live table count while still exposing 64-way parallelism for corpora of
// 2048+ documents, and the cell budget (~0.5 GB of ints when saturated)
// makes a huge vocabulary shed parallelism instead of multiplying the
// serial sampler's memory.
const (
	// SamplerMinItems is the target documents per sampler chunk.
	SamplerMinItems = 32
	// SamplerMaxChunks caps the sampler chunk count (and with it the
	// number of live delta tables).
	SamplerMaxChunks = 64
	// SamplerCellBudget caps the total delta-table cells across chunks.
	SamplerCellBudget = 1 << 26
)

// SamplerChunks returns the sampler policy's chunk count for n documents
// whose per-chunk accumulators hold cells cells each. Like NumChunks it is
// a pure function of the problem shape, never of P — the determinism
// contract's requirement. Pair it with ForChunksN.
func SamplerChunks(n, cells int) int {
	nc := n / SamplerMinItems
	if nc < 1 {
		nc = 1
	}
	if nc > SamplerMaxChunks {
		nc = SamplerMaxChunks
	}
	if cells > 0 {
		if byMem := SamplerCellBudget / cells; nc > byMem {
			nc = byMem
			if nc < 1 {
				nc = 1
			}
		}
	}
	return nc
}

// ChunkBoundsN returns the half-open item range [lo, hi) of chunk c when n
// items are split into nc chunks. Chunks differ in size by at most one
// item. The intermediate products run in 64 bits so corpus-scale n cannot
// overflow on 32-bit platforms.
func ChunkBoundsN(n, nc, c int) (lo, hi int) {
	return int(int64(c) * int64(n) / int64(nc)), int(int64(c+1) * int64(n) / int64(nc))
}

// ForChunks splits [0, n) into the deterministic chunking of NumChunks /
// ChunkBoundsN and calls fn(c, lo, hi) once per chunk on up to o.Workers()
// goroutines. fn must only touch state that is disjoint per chunk (or per
// item). Cancellation is checked between chunks; ForChunks returns the
// context error if the run was cut short, in which case some chunks may not
// have executed.
func ForChunks(o Opts, n int, fn func(c, lo, hi int)) error {
	return ForChunksN(o, n, NumChunks(n), fn)
}

// ForChunksN is ForChunks with an explicit chunk count nc, for callers
// whose per-chunk accumulators are too large for the default policy
// (CATHY's E-step scratch, STROD's moment accumulators). nc is clamped
// to [1, n]; it must be a pure function of n (never of P) or determinism
// is lost.
func ForChunksN(o Opts, n, nc int, fn func(c, lo, hi int)) error {
	if n <= 0 {
		return o.Err()
	}
	if nc > n {
		nc = n
	}
	if nc < 1 {
		nc = 1
	}
	return runChunks(o, n, nc, min(o.Workers(), nc), func(_, c, lo, hi int) { fn(c, lo, hi) })
}

// runChunks runs fn over the nc chunks of [0, n) on w workers, w in
// [1, nc]: worker g calls fn(g, c, lo, hi) for each chunk c = [lo, hi)
// it dequeues. The Sweeper indexes its worker slots by g.
func runChunks(o Opts, n, nc, w int, fn func(g, c, lo, hi int)) error {
	ctx := o.Context()
	// The observed path lives in its own function: forChunksRun's fn must
	// stay single-assignment, because a variable that is both reassigned and
	// captured by the worker closures is forced into a heap cell on every
	// call — charging even the unobserved serial path one allocation per
	// pass (the Gibbs sweep loops, which pass their closures built once
	// straight to runChunks, are gated to zero by
	// TestNilRecorderSweepAllocFree).
	if o.Obs != nil {
		return forChunksObserved(o, ctx, n, nc, w, fn)
	}
	return forChunksRun(ctx, n, nc, w, fn)
}

// forChunksObserved wraps fn with per-chunk timing and emits one PoolStats
// when the pass finishes (including a cancelled pass: the partial timings
// are still a faithful record of what ran). Wait is the delay from pass
// start to a chunk's dequeue — on the serial path that degenerates to
// cumulative position, which is exactly the head-of-line delay a chunk
// experienced.
func forChunksObserved(o Opts, ctx context.Context, n, nc, w int, fn func(g, c, lo, hi int)) error {
	start := time.Now()
	var waitNS, execNS atomic.Int64
	defer func() {
		o.Obs.RecordPool(obs.PoolStats{
			Chunks: nc, Workers: w,
			Wait: time.Duration(waitNS.Load()),
			Exec: time.Duration(execNS.Load()),
			Wall: time.Since(start),
		})
	}()
	return forChunksRun(ctx, n, nc, w, func(g, c, lo, hi int) {
		t0 := time.Now()
		waitNS.Add(int64(t0.Sub(start)))
		fn(g, c, lo, hi)
		execNS.Add(int64(time.Since(t0)))
	})
}

// forChunksRun executes the pass. fn is deliberately a parameter and never
// reassigned, so the worker closures capture it by value and the serial
// path performs no allocation.
func forChunksRun(ctx context.Context, n, nc, w int, fn func(g, c, lo, hi int)) error {
	if w <= 1 {
		for c := 0; c < nc; c++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			lo, hi := ChunkBoundsN(n, nc, c)
			fn(0, c, lo, hi)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for ctx.Err() == nil {
				c := int(next.Add(1)) - 1
				if c >= nc {
					return
				}
				lo, hi := ChunkBoundsN(n, nc, c)
				fn(g, c, lo, hi)
			}
		}(g)
	}
	wg.Wait()
	return ctx.Err()
}

// For runs fn(lo, hi) over the deterministic chunking of [0, n) on up to
// o.Workers() goroutines. Use it when iterations write disjoint outputs and
// no reduction is needed.
func For(o Opts, n int, fn func(lo, hi int)) error {
	return ForChunks(o, n, func(_, lo, hi int) { fn(lo, hi) })
}

// MapReduce runs mapChunk over every chunk of [0, n) in parallel, then
// merges the per-chunk accumulators in chunk order, which keeps
// floating-point reductions bit-identical at any parallelism level. newAcc
// allocates one accumulator (called once per chunk); merge folds src into
// dst. The merged result is the chunk-0 accumulator. When n == 0 it returns
// a fresh accumulator.
func MapReduce[T any](o Opts, n int, newAcc func() T, mapChunk func(acc T, c, lo, hi int), merge func(dst, src T)) (T, error) {
	return MapReduceN(o, n, NumChunks(n), newAcc, mapChunk, merge)
}

// MapReduceN is MapReduce with an explicit chunk count nc, for callers
// whose accumulators are too large for the default policy (CATHY's E-step
// scratch and STROD's vocabulary-sized moment accumulators cap nc to bound
// the number of live copies). nc is clamped to [1, n]; it must be a pure
// function of n (never of P) or determinism is lost.
func MapReduceN[T any](o Opts, n, nc int, newAcc func() T, mapChunk func(acc T, c, lo, hi int), merge func(dst, src T)) (T, error) {
	if n <= 0 {
		return newAcc(), o.Err()
	}
	if nc > n {
		nc = n
	}
	if nc < 1 {
		nc = 1
	}
	accs := make([]T, nc)
	err := ForChunksN(o, n, nc, func(c, lo, hi int) {
		accs[c] = newAcc()
		mapChunk(accs[c], c, lo, hi)
	})
	if err != nil {
		var zero T
		return zero, err
	}
	for c := 1; c < nc; c++ {
		merge(accs[0], accs[c])
	}
	return accs[0], nil
}
