package par

import (
	"context"
	"errors"
	"reflect"
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
	dst := []int{1, 1, 1, 1, 1, 1, 1, 1}
	if n := d.MergeInto(dst); n != 3 {
		t.Fatalf("merged %d cells, want 3", n)
	}
	if want := []int{1, 1, 1, 2, 1, 2, 1, 1}; !reflect.DeepEqual(dst, want) {
		t.Fatalf("dst = %v, want %v", dst, want)
	}
	for i, c := range d.Cells {
		if c != 0 || d.touched[i] {
			t.Fatalf("cell %d not reset: count %d, touched %v", i, c, d.touched[i])
		}
	}
	if n := d.MergeInto(dst); n != 0 {
		t.Fatalf("second merge visited %d cells, want 0", n)
	}
}

// sweepTable runs passes of a toy sampler on a Sweeper at parallelism p:
// each document adds a stream-drawn cell to its chunk's delta, reading
// the frozen global table as a Gibbs kernel would. It returns the global
// table after the passes.
func sweepTable(t *testing.T, p, n, passes int) []int {
	t.Helper()
	global := make([]int, 16)
	sw := NewSweeper(Opts{P: p}, n, len(global), 7,
		func() Delta { return NewDelta(len(global)) },
		func(d *Delta) int { return d.MergeInto(global) })
	visit := func(d *Delta, st *rng.Stream, doc int) {
		i := st.Intn(len(global))
		d.Add((i+global[i]+doc)%len(global), 1)
	}
	for sweep := 0; sweep < passes; sweep++ {
		if err := sw.Pass(uint64(sweep), visit, nil); err != nil {
			t.Fatal(err)
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

func TestSweeperSlotsAndStats(t *testing.T) {
	for _, tc := range []struct{ n, cells, slots int }{
		{0, 10, 0}, {1, 10, 1}, {200, 10, 6}, {4096, 10, SamplerMaxChunks},
		{4096, SamplerCellBudget / 2, 2},
	} {
		sw := NewSweeper(Opts{P: 1}, tc.n, tc.cells, 1, func() int { return 0 }, func(*int) int { return 0 })
		if len(sw.Slots) != tc.slots {
			t.Fatalf("n=%d cells=%d: %d slots, want %d", tc.n, tc.cells, len(sw.Slots), tc.slots)
		}
	}
	merged := 0
	sw := NewSweeper(Opts{P: 2}, 100, 4, 1, func() int { return 0 },
		func(s *int) int { merged += *s; c := *s; *s = 0; return c })
	sw.Stats = &PassStats{}
	if err := sw.Pass(1, func(s *int, _ *rng.Stream, _ int) { *s++ }, nil); err != nil {
		t.Fatal(err)
	}
	if merged != 100 || sw.Stats.Cells != 100 || sw.Stats.Wall <= 0 || sw.Stats.Merge > sw.Stats.Wall {
		t.Fatalf("merged %d, stats %+v", merged, *sw.Stats)
	}
}

func TestSweeperEndAndCancel(t *testing.T) {
	merged := 0
	newSw := func(o Opts) *Sweeper[int] {
		return NewSweeper(o, 100, 4, 1, func() int { return 0 },
			func(s *int) int { merged += *s; *s = 0; return 0 })
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
