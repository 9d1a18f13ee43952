package par

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lesm/internal/obs"
)

func TestChunkBoundsCoverRange(t *testing.T) {
	for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 1000, 1001} {
		nc := NumChunks(n)
		covered := 0
		prev := 0
		for c := 0; c < nc; c++ {
			lo, hi := ChunkBoundsN(n, nc, c)
			if lo != prev {
				t.Fatalf("n=%d chunk %d: lo=%d, want %d", n, c, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d chunk %d: hi=%d < lo=%d", n, c, hi, lo)
			}
			covered += hi - lo
			prev = hi
		}
		if covered != n {
			t.Fatalf("n=%d: chunks cover %d items", n, covered)
		}
	}
}

// TestNumChunksPolicy pins the n-dependent chunk-count policy: one chunk
// per item below the floor, then n/MinChunkItems clamped to
// [MinChunks, MaxChunks]. The count is a pure function of n — there is no
// P anywhere in the signature — which is what keeps chunk boundaries (and
// ordered reductions) identical at every parallelism level.
func TestNumChunksPolicy(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0},
		{1, 1},
		{15, 15},
		{16, MinChunks},
		{100, MinChunks},
		{MinChunks * MinChunkItems, MinChunks},
		{1000, 125},
		{MaxChunks * MinChunkItems, MaxChunks},
		{1 << 20, MaxChunks},
	} {
		if got := NumChunks(tc.n); got != tc.want {
			t.Fatalf("NumChunks(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// Scaling past the old 16-chunk ceiling: a large input must expose
	// enough chunks to keep a >16-core machine busy.
	if got := NumChunks(10000); got <= 16 {
		t.Fatalf("NumChunks(10000) = %d, want > 16", got)
	}
	// Monotone non-decreasing, so growing inputs never lose parallelism.
	prev := 0
	for n := 0; n <= 4096; n++ {
		if c := NumChunks(n); c < prev {
			t.Fatalf("NumChunks not monotone at n=%d: %d < %d", n, c, prev)
		} else {
			prev = c
		}
	}
}

func TestForChunksNCoversRangeWithExplicitCount(t *testing.T) {
	for _, tc := range []struct{ n, nc int }{
		{100, 7}, {100, 1}, {100, 1000}, {7, 3}, {1, 5},
	} {
		seen := make([]int32, tc.n)
		var mu sync.Mutex
		maxChunk := -1
		err := ForChunksN(Opts{P: 4}, tc.n, tc.nc, func(c, lo, hi int) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			if c > maxChunk {
				maxChunk = c
			}
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d nc=%d: index %d visited %d times", tc.n, tc.nc, i, c)
			}
		}
		wantChunks := tc.nc
		if wantChunks > tc.n {
			wantChunks = tc.n
		}
		if maxChunk != wantChunks-1 {
			t.Fatalf("n=%d nc=%d: max chunk index %d, want %d", tc.n, tc.nc, maxChunk, wantChunks-1)
		}
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 8, 33} {
		const n = 977
		seen := make([]int32, n)
		var mu sync.Mutex
		err := For(Opts{P: p}, n, func(lo, hi int) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("P=%d: index %d visited %d times", p, i, c)
			}
		}
	}
}

// TestMapReduceDeterministicAcrossP is the load-bearing property: a
// floating-point reduction must be bit-identical at every parallelism level.
func TestMapReduceDeterministicAcrossP(t *testing.T) {
	const n = 10000
	xs := make([]float64, n)
	for i := range xs {
		// Values spread over magnitudes so summation order matters.
		xs[i] = 1.0 / float64(1+i*i%977)
	}
	sum := func(p int) float64 {
		s, err := MapReduce(Opts{P: p}, n,
			func() *float64 { f := 0.0; return &f },
			func(acc *float64, _, lo, hi int) {
				for i := lo; i < hi; i++ {
					*acc += xs[i]
				}
			},
			func(dst, src *float64) { *dst += *src })
		if err != nil {
			t.Fatal(err)
		}
		return *s
	}
	want := sum(1)
	for _, p := range []int{2, 3, 8, 64} {
		if got := sum(p); got != want {
			t.Fatalf("P=%d: sum %v != P=1 sum %v", p, got, want)
		}
	}
}

func TestCancelledContextReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	var mu sync.Mutex
	start := time.Now()
	err := For(Opts{P: 4, Ctx: ctx}, 1<<20, func(lo, hi int) {
		mu.Lock()
		ran++
		mu.Unlock()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// An already-cancelled context must not start every chunk; with P=4 at
	// most a few chunks can slip in before the workers observe the cancel.
	if ran >= NumChunks(1<<20) {
		t.Fatalf("all %d chunks ran despite cancelled context", ran)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancelled For did not return promptly")
	}
}

func TestMidFlightCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	err := ForChunks(Opts{P: 2, Ctx: ctx}, 1000, func(c, lo, hi int) {
		once.Do(cancel) // cancel from inside the first chunk that runs
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestOptsDefaults(t *testing.T) {
	var o Opts
	if o.Workers() < 1 {
		t.Fatalf("Workers() = %d", o.Workers())
	}
	if o.Context() == nil || o.Err() != nil {
		t.Fatal("default context should be non-nil and live")
	}
}

// TestNumChunksCappedSmallN pins the cap's behavior on serving-sized
// inputs: when n is below the cap (tiny /infer batches) the cap must not
// inflate the chunk count, and n == 0 must stay 0 — a request with no
// documents schedules no work.
func TestNumChunksCappedSmallN(t *testing.T) {
	for _, tc := range []struct{ n, cap, want int }{
		{0, 64, 0},
		{0, 1, 0},
		{1, 64, 1},
		{3, 64, 3},
		{15, 64, 15},
		{15, 4, 4},
		{16, 64, 16},
		{200, 64, 25}, // NumChunks(200) = 25, under the cap
		{10000, 64, 64},
		{10000, 1, 1},
	} {
		if got := NumChunksCapped(tc.n, tc.cap); got != tc.want {
			t.Fatalf("NumChunksCapped(%d, %d) = %d, want %d", tc.n, tc.cap, got, tc.want)
		}
	}
}

// TestChunkBoundsNTinyRanges covers the n < nc and n == 0 corners the
// serving path hits with tiny batches: every chunking must still partition
// [0, n) exactly, and empty ranges must yield only empty chunks.
func TestChunkBoundsNTinyRanges(t *testing.T) {
	for _, tc := range []struct{ n, nc int }{
		{0, 1}, {0, 4}, {1, 1}, {1, 4}, {2, 7}, {3, 64}, {5, 5}, {7, 3},
	} {
		prev := 0
		for c := 0; c < tc.nc; c++ {
			lo, hi := ChunkBoundsN(tc.n, tc.nc, c)
			if lo != prev || hi < lo || hi > tc.n {
				t.Fatalf("ChunkBoundsN(%d, %d, %d) = [%d, %d), prev end %d", tc.n, tc.nc, c, lo, hi, prev)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d nc=%d: chunks cover %d items", tc.n, tc.nc, prev)
		}
	}
}

// TestForChunksNEmptyAndTiny: n == 0 runs nothing (and still reports
// cancellation); n < nc clamps to one chunk per item.
func TestForChunksNEmptyAndTiny(t *testing.T) {
	calls := 0
	if err := ForChunksN(Opts{}, 0, 64, func(c, lo, hi int) { calls++ }); err != nil || calls != 0 {
		t.Fatalf("n=0: calls=%d err=%v", calls, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForChunksN(Opts{Ctx: ctx}, 0, 4, func(c, lo, hi int) {}); err == nil {
		t.Fatal("n=0 with cancelled ctx should surface the context error")
	}
	var mu sync.Mutex
	seen := map[int]int{}
	if err := ForChunksN(Opts{P: 8}, 3, 64, func(c, lo, hi int) {
		mu.Lock()
		for i := lo; i < hi; i++ {
			seen[i]++
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 1 || seen[2] != 1 {
		t.Fatalf("n<nc visit counts = %v", seen)
	}
}

// poolCollector records every PoolStats a pass emits.
type poolCollector struct {
	mu    sync.Mutex
	stats []obs.PoolStats
}

func (p *poolCollector) RecordPool(s obs.PoolStats) {
	p.mu.Lock()
	p.stats = append(p.stats, s)
	p.mu.Unlock()
}

// TestForChunksPoolObserver: an attached observer receives exactly one
// PoolStats per pass, carrying the pass's chunk and worker counts and
// non-negative latencies, on both the serial and the parallel path — and
// the observer never changes which chunks run or their boundaries.
func TestForChunksPoolObserver(t *testing.T) {
	for _, p := range []int{1, 4} {
		pc := &poolCollector{}
		var mu sync.Mutex
		bounds := map[int][2]int{}
		if err := ForChunksN(Opts{P: p, Obs: pc}, 100, 8, func(c, lo, hi int) {
			mu.Lock()
			bounds[c] = [2]int{lo, hi}
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		if len(pc.stats) != 1 {
			t.Fatalf("P=%d: observer got %d PoolStats, want 1", p, len(pc.stats))
		}
		s := pc.stats[0]
		if s.Chunks != 8 {
			t.Fatalf("P=%d: Chunks = %d, want 8", p, s.Chunks)
		}
		wantW := p
		if s.Workers != wantW {
			t.Fatalf("P=%d: Workers = %d, want %d", p, s.Workers, wantW)
		}
		if s.Wait < 0 || s.Exec < 0 || s.Wall <= 0 {
			t.Fatalf("P=%d: nonsensical latencies %+v", p, s)
		}
		if len(bounds) != 8 {
			t.Fatalf("P=%d: %d chunks ran, want 8", p, len(bounds))
		}
		for c := 0; c < 8; c++ {
			lo, hi := ChunkBoundsN(100, 8, c)
			if bounds[c] != [2]int{lo, hi} {
				t.Fatalf("P=%d chunk %d: bounds %v, want [%d %d]", p, c, bounds[c], lo, hi)
			}
		}
	}
}

// TestForChunksPoolObserverCancelled: a cancelled pass still emits its
// PoolStats — the partial timings are a faithful record of what ran.
func TestForChunksPoolObserverCancelled(t *testing.T) {
	pc := &poolCollector{}
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err := ForChunksN(Opts{P: 1, Ctx: ctx, Obs: pc}, 100, 8, func(c, lo, hi int) {
		ran++
		if c == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("chunks run before cancellation = %d, want 3", ran)
	}
	if len(pc.stats) != 1 {
		t.Fatalf("cancelled pass emitted %d PoolStats, want 1", len(pc.stats))
	}
}
