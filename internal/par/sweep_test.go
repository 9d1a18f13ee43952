package par

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"lesm/internal/rng"
)

func TestDeltaMergeVisitsTouchedCells(t *testing.T) {
	d := NewDelta(8)
	d.Add(3, 2)
	d.Add(5, 1)
	d.Add(3, -1)
	d.Add(6, 1)
	d.Add(6, -1) // touched, back to zero
	acc := NewAcc(8, 3)
	acc.add(5, 1)
	d.FoldInto(&acc)
	for i, c := range d.Cells {
		if c != 0 || d.touched[i] {
			t.Fatalf("live cell %d not reset: count %d, touched %v", i, c, d.touched[i])
		}
	}
	if len(d.dirty) != 0 {
		t.Fatalf("live dirty list holds %d cells after the fold", len(d.dirty))
	}
	dst := []int{1, 1, 1, 1, 1, 1, 1, 1}
	n := 0
	for s := 0; s < 3; s++ {
		n += acc.MergeStripe(dst, s)
	}
	if n != 3 {
		t.Fatalf("merged %d pairs, want 3 (the zero cell is never folded)", n)
	}
	if want := []int{1, 1, 1, 2, 1, 3, 1, 1}; !reflect.DeepEqual(dst, want) {
		t.Fatalf("dst = %v, want %v", dst, want)
	}
	for s := 0; s < 3; s++ {
		if n := acc.MergeStripe(dst, s); n != 0 {
			t.Fatalf("second merge of stripe %d visited %d pairs, want 0", s, n)
		}
	}
}

// TestAccStripesMergeEachCellOnce checks the stripe split: every folded
// cell is listed in exactly one stripe, the stripes are contiguous cell
// ranges in stripe order, none is empty when there are at least as many
// cells as stripes, and a nil destination discards.
func TestAccStripesMergeEachCellOnce(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 1000, 12345} {
		for stripes := 1; stripes <= 9; stripes++ {
			d, acc := NewDelta(n), NewAcc(n, stripes)
			for i := n - 1; i >= 0; i-- {
				d.Add(i, i+1)
			}
			d.FoldInto(&acc)
			dst := make([]int, n)
			prevMax, merged := -1, 0
			for s := 0; s < stripes; s++ {
				l := acc.lists[s]
				if len(l) == 0 && n >= stripes {
					t.Fatalf("n=%d stripes=%d: stripe %d is empty", n, stripes, s)
				}
				for _, p := range l {
					if p.cell <= prevMax {
						t.Fatalf("n=%d stripes=%d: stripe %d lists cell %d at or below stripe %d's cells", n, stripes, s, p.cell, s-1)
					}
				}
				for _, p := range l {
					prevMax = max(prevMax, p.cell)
				}
				merged += acc.MergeStripe(dst, s)
			}
			if merged != n {
				t.Fatalf("n=%d stripes=%d: merged %d pairs, want %d", n, stripes, merged, n)
			}
			for i, c := range dst {
				if c != i+1 {
					t.Fatalf("n=%d stripes=%d: cell %d holds %d, want %d (merged once)", n, stripes, i, c, i+1)
				}
			}
			acc.add(n-1, 5)
			for s := 0; s < stripes; s++ {
				acc.MergeStripe(nil, s)
			}
			if dst[n-1] != n {
				t.Fatalf("n=%d stripes=%d: a discarding merge wrote cell %d", n, stripes, n-1)
			}
			for s := 0; s < stripes; s++ {
				if len(acc.lists[s]) != 0 {
					t.Fatalf("n=%d stripes=%d: a discarding merge left stripe %d with %d pairs", n, stripes, s, len(acc.lists[s]))
				}
			}
		}
	}
}

// toyState is a worker slot of the toy sampler: a live chunk delta and
// the pass accumulator.
type toyState struct {
	live Delta
	acc  Acc
}

// newToySweeper returns the toy sampler's driver over global: a Sweeper
// whose slots fold their live delta at each chunk's end and merge their
// accumulators into global.
func newToySweeper(o Opts, n int, global []int) *Sweeper[toyState] {
	return NewSweeper(o, n, len(global), 7,
		func(stripes int) toyState {
			return toyState{NewDelta(len(global)), NewAcc(len(global), stripes)}
		},
		func(s *toyState) { s.live.FoldInto(&s.acc) },
		func(s *toyState, stripe int, discard bool) int {
			dst := global
			if discard {
				dst = nil
			}
			return s.acc.MergeStripe(dst, stripe)
		})
}

// toyVisit returns the toy sampler's document kernel: it moves one count
// to a cell drawn from the document's stream and shifted by what the
// chunk sees there, the frozen global count plus the chunk's own change,
// as a Gibbs kernel reads them.
func toyVisit(global []int) func(s *toyState, st *rng.Stream, doc int) {
	return func(s *toyState, st *rng.Stream, doc int) {
		i := st.Intn(len(global))
		s.live.Add((i+global[i]+s.live.Cells[i]+doc)%len(global), 1)
	}
}

// sweepTable runs passes of the toy sampler on a Sweeper at parallelism p
// and returns the global table after the passes.
func sweepTable(t *testing.T, p, n, passes int) []int {
	t.Helper()
	global := make([]int, 16)
	sw := newToySweeper(Opts{P: p}, n, global)
	visit := toyVisit(global)
	for sweep := 0; sweep < passes; sweep++ {
		if err := sw.Pass(uint64(sweep), visit, nil); err != nil {
			t.Fatal(err)
		}
	}
	return global
}

// perChunkTable is the reference for sweepTable: the delayed-update
// passes written out with one delta per chunk, merged after the pass.
func perChunkTable(n, passes int) []int {
	global := make([]int, 16)
	nc := min(SamplerChunks(n, len(global)), n)
	for sweep := 0; sweep < passes; sweep++ {
		deltas := make([][]int, nc)
		for c := range deltas {
			own := make([]int, len(global))
			lo, hi := ChunkBoundsN(n, nc, c)
			for doc := lo; doc < hi; doc++ {
				st := rng.NewStream(7, uint64(doc), uint64(sweep))
				i := st.Intn(len(global))
				own[(i+global[i]+own[i]+doc)%len(global)]++
			}
			deltas[c] = own
		}
		for _, own := range deltas {
			for i, c := range own {
				global[i] += c
			}
		}
	}
	return global
}

func TestSweeperDeterministicAcrossP(t *testing.T) {
	const n = 200 // SamplerChunks gives 6 chunks
	want := sweepTable(t, 1, n, 4)
	total := 0
	for _, c := range want {
		total += c
	}
	if total != 4*n {
		t.Fatalf("table holds %d counts, want %d", total, 4*n)
	}
	for _, p := range []int{2, 8} {
		if got := sweepTable(t, p, n, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("P=%d table %v, want %v", p, got, want)
		}
	}
}

// TestSweeperMatchesPerChunkDeltas checks the worker slots against the
// per-chunk reference at P=1, 2 and 8, with more chunks than workers and
// chunks of uneven size: a chunk must see only its own changes, however
// the chunks are dealt to the workers.
func TestSweeperMatchesPerChunkDeltas(t *testing.T) {
	for _, n := range []int{203, 1001} { // 6 chunks of 33-34 docs, 31 of 32-33
		want := perChunkTable(n, 5)
		for _, p := range []int{1, 2, 8} {
			if got := sweepTable(t, p, n, 5); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d P=%d: table %v, want the per-chunk reference %v", n, p, got, want)
			}
		}
	}
}

func TestSweeperSlotsAndStats(t *testing.T) {
	for _, tc := range []struct{ n, cells, p, chunks, slots int }{
		{0, 10, 4, 0, 0}, {1, 10, 4, 1, 1}, {200, 10, 1, 6, 1}, {200, 10, 4, 6, 4},
		{200, 10, 8, 6, 6}, {4096, 10, 2, SamplerMaxChunks, 2},
		{4096, SamplerCellBudget / 2, 8, 2, 2},
	} {
		sw := NewSweeper(Opts{P: tc.p}, tc.n, tc.cells, 1, func(int) int { return 0 },
			func(*int) {}, func(*int, int, bool) int { return 0 })
		if len(sw.Slots) != tc.slots || sw.Chunks() != tc.chunks {
			t.Fatalf("n=%d cells=%d P=%d: %d slots, %d chunks, want %d and %d",
				tc.n, tc.cells, tc.p, len(sw.Slots), sw.Chunks(), tc.slots, tc.chunks)
		}
	}
	global := make([]int, 4)
	sw := newToySweeper(Opts{P: 2}, 100, global) // 3 chunks on 2 slots
	sw.Stats = &PassStats{}
	if err := sw.Pass(1, func(s *toyState, _ *rng.Stream, doc int) { s.live.Add(doc%4, 1) }, nil); err != nil {
		t.Fatal(err)
	}
	if want := []int{25, 25, 25, 25}; !reflect.DeepEqual(global, want) {
		t.Fatalf("global = %v, want %v", global, want)
	}
	// Each of the 3 chunks folds the 4 cells once.
	if sw.Stats.Cells != 12 || sw.Stats.Wall <= 0 || sw.Stats.Merge > sw.Stats.Wall {
		t.Fatalf("stats %+v, want 12 pairs and a merge inside the wall time", *sw.Stats)
	}
}

func TestSweeperEndAndCancel(t *testing.T) {
	merged := 0
	newSw := func(o Opts) *Sweeper[int] {
		return NewSweeper(o, 100, 4, 1, func(int) int { return 0 }, func(*int) {},
			func(s *int, _ int, discard bool) int {
				if !discard {
					merged += *s
				}
				*s = 0
				return 0
			})
	}
	visit := func(s *int, _ *rng.Stream, _ int) { *s++ }
	boom := errors.New("end failed")
	ended := false
	err := newSw(Opts{P: 2}).Pass(1, visit, func() error {
		if merged != 0 {
			t.Error("end ran after the merge")
		}
		ended = true
		return boom
	})
	if !errors.Is(err, boom) || !ended || merged != 0 {
		t.Fatalf("end error: err=%v ended=%v merged=%d, want the end error and no merge", err, ended, merged)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := newSw(Opts{P: 2, Ctx: ctx}).Pass(1, visit, nil); !errors.Is(err, context.Canceled) || merged != 0 {
		t.Fatalf("cancelled pass: err=%v merged=%d, want context.Canceled and no merge", err, merged)
	}
}

// switchCtx is a context whose cancellation can be switched off again,
// so one Sweeper can run a pass after a cancelled one.
type switchCtx struct {
	context.Context
	off atomic.Bool
}

func (c *switchCtx) Err() error {
	if c.off.Load() {
		return context.Canceled
	}
	return nil
}

// TestSweeperCleanAfterAbort cuts pass 1 short, by a cancellation after
// the first chunk and by an end-hook error, and checks that the globals
// are unchanged and that the passes run next on the same Sweeper give the
// table of a fresh run.
func TestSweeperCleanAfterAbort(t *testing.T) {
	const n = 203
	want := perChunkTable(n, 3)
	for _, p := range []int{1, 2} {
		for _, abort := range []string{"cancel", "end"} {
			global := make([]int, 16)
			ctx := &switchCtx{Context: context.Background()}
			sw := newToySweeper(Opts{P: p, Ctx: ctx}, n, global)
			visit := toyVisit(global)
			if err := sw.Pass(0, visit, nil); err != nil {
				t.Fatal(err)
			}
			before := append([]int(nil), global...)
			_, secondChunk := ChunkBoundsN(n, sw.Chunks(), 0)
			visits := 0
			var end func() error
			boom := errors.New("end failed")
			if abort == "cancel" {
				end = func() error { t.Error("end ran in a cancelled pass"); return nil }
			} else {
				end = func() error { return boom }
			}
			err := sw.Pass(1, func(s *toyState, st *rng.Stream, doc int) {
				visits++
				if abort == "cancel" && doc == secondChunk {
					ctx.off.Store(true)
				}
				visit(s, st, doc)
			}, end)
			if abort == "cancel" && !errors.Is(err, context.Canceled) || abort == "end" && !errors.Is(err, boom) {
				t.Fatalf("P=%d %s: err = %v", p, abort, err)
			}
			if visits == 0 || !reflect.DeepEqual(global, before) {
				t.Fatalf("P=%d %s: %d visits, globals %v, want some visits and the globals %v", p, abort, visits, global, before)
			}
			ctx.off.Store(false)
			for sweep := 1; sweep < 3; sweep++ {
				if err := sw.Pass(uint64(sweep), visit, nil); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(global, want) {
				t.Fatalf("P=%d %s: table %v after the aborted pass, want a fresh run's %v", p, abort, global, want)
			}
		}
	}
}
