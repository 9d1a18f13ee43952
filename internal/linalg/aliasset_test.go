package linalg

import (
	"math"
	"testing"

	"lesm/internal/par"
)

// buildSet runs the Reset/Put/Build protocol over a dense column-major
// matrix m[col][id], skipping zeros.
func buildSet(t *testing.T, s *AliasSet, m [][]float64) {
	t.Helper()
	s.Reset(len(m))
	for c, col := range m {
		for id, w := range col {
			if w > 0 {
				s.Put(c, int32(id), w)
			}
		}
	}
	if err := s.Build(par.Opts{}); err != nil {
		t.Fatal(err)
	}
}

func TestAliasSetBuild(t *testing.T) {
	m := [][]float64{
		{0, 3, 0, 1.5, 0.25}, // mixed zeros and weights
		{},                   // no entries at all
		{0, 0, 0, 0, 0},      // all-zero column
		{7},                  // single entry
		{0, 0},               // trailing empty column, closed by Build
	}
	var s AliasSet
	buildSet(t, &s, m)

	if s.Cols() != 5 {
		t.Fatalf("Cols() = %d, want 5", s.Cols())
	}
	for c, col := range m {
		wantMass := 0.0
		for _, w := range col {
			wantMass += w
		}
		if math.Abs(s.Mass[c]-wantMass) > 1e-12 {
			t.Fatalf("Mass[%d] = %v, want %v", c, s.Mass[c], wantMass)
		}
	}
	// Empty columns draw nothing; non-empty columns draw only stored ids
	// with the right long-run frequencies (exact via the grid trick: the
	// alias draw partitions [0,1) into n equal columns).
	if !s.Tab[1].Empty() || !s.Tab[2].Empty() || !s.Tab[4].Empty() {
		t.Fatal("empty columns must yield empty tables")
	}
	const grid = 1 << 16
	hist := make([]float64, 5)
	for i := 0; i < grid; i++ {
		hist[s.Tab[0].Draw((float64(i)+0.5)/grid)]++
	}
	for id, w := range m[0] {
		got := hist[id] / grid
		want := w / s.Mass[0]
		if math.Abs(got-want) > 2e-3 {
			t.Fatalf("column 0 id %d drawn with frequency %v, want %v", id, got, want)
		}
	}
}

// TestAliasSetReuseAcrossBuilds pins the in-place rebuild contract the MH
// sampler relies on: a rebuild with different contents (including a
// different column count) must fully supersede the previous build, with
// the backing storage reused.
func TestAliasSetReuseAcrossBuilds(t *testing.T) {
	var s AliasSet
	buildSet(t, &s, [][]float64{{1, 2, 3}, {4, 5}})
	buildSet(t, &s, [][]float64{{0, 9}})
	if s.Cols() != 1 {
		t.Fatalf("Cols() = %d after rebuild, want 1", s.Cols())
	}
	if s.Mass[0] != 9 {
		t.Fatalf("Mass[0] = %v after rebuild, want 9", s.Mass[0])
	}
	if s.Tab[0].Draw(0.37) != 1 {
		t.Fatal("rebuilt single-entry column must always draw id 1")
	}
}
