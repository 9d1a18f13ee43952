package linalg

import (
	"math"
	"testing"
)

// TestAliasExactDistributionSmall verifies the table exactly on small
// outcome sets: the built (prob, alias) pair induces a closed-form
// probability per outcome (column i keeps prob[i]/n, donates the rest to
// alias[i]); that measure must equal weights/total up to float rounding,
// for a battery of shapes including zeros and extreme skew.
func TestAliasExactDistributionSmall(t *testing.T) {
	cases := [][]float64{
		{1},
		{1, 1},
		{1, 0},
		{0.25, 0.75},
		{3, 1, 2},
		{0, 0, 5, 0},
		{1e-9, 1, 1e9},
		{2, 2, 2, 2, 2},
		{0.1, 0.2, 0.3, 0.4, 0, 1.5},
	}
	for ci, weights := range cases {
		a := NewAlias(weights)
		total := 0.0
		for _, w := range weights {
			total += w
		}
		if math.Abs(a.Total-total) > 1e-12*total {
			t.Fatalf("case %d: Total = %v, want %v", ci, a.Total, total)
		}
		mass := a.Mass()
		for i, w := range weights {
			want := w / total
			if math.Abs(mass[i]-want) > 1e-12 {
				t.Fatalf("case %d outcome %d: table mass %v, want %v", ci, i, mass[i], want)
			}
		}
	}
}

// TestAliasDrawGridMatchesMass drives Draw over an exhaustive fine grid of
// uniform variates and checks the empirical outcome frequencies against
// the table's analytic mass — exercising the one-uniform column+threshold
// decoding path, not just the construction.
func TestAliasDrawGridMatchesMass(t *testing.T) {
	weights := []float64{3, 0, 1, 2, 0.5}
	a := NewAlias(weights)
	const grid = 200000
	counts := make([]int, len(weights))
	for i := 0; i < grid; i++ {
		u := (float64(i) + 0.5) / grid
		counts[a.Draw(u)]++
	}
	for i, w := range weights {
		want := w / a.Total
		got := float64(counts[i]) / grid
		// The grid quantizes each column boundary to 1/grid; n columns
		// contribute at most n boundary cells of error per outcome.
		if math.Abs(got-want) > float64(2*len(weights))/grid {
			t.Fatalf("outcome %d: grid frequency %v, want %v", i, got, want)
		}
	}
}

// TestAliasGoodnessOfFitLargeK draws from a 500-outcome power-law table
// with a deterministic PRNG and applies a chi-square test against the
// expected counts (threshold ~ df + 4*sqrt(2*df), far beyond the 99.9th
// percentile — the test guards against gross bias, not noise).
func TestAliasGoodnessOfFitLargeK(t *testing.T) {
	const k = 500
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = 1 / float64(i+1)
	}
	a := NewAlias(weights)
	const draws = 2_000_000
	counts := make([]int, k)
	// SplitMix64, inlined to keep linalg dependency-free.
	s := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / (1 << 53)
	}
	for i := 0; i < draws; i++ {
		counts[a.Draw(next())]++
	}
	chi2 := 0.0
	for i, w := range weights {
		exp := w / a.Total * draws
		d := float64(counts[i]) - exp
		chi2 += d * d / exp
	}
	df := float64(k - 1)
	if limit := df + 4*math.Sqrt(2*df); chi2 > limit {
		t.Fatalf("chi-square %v exceeds %v (df %v): alias draws are biased", chi2, limit, df)
	}
}

// TestAliasOutcomeMapping checks the sparse-outcome form used by the
// Gibbs samplers (CSC segments with explicit topic ids) and backing-store
// reuse.
func TestAliasOutcomeMapping(t *testing.T) {
	out := []int32{7, 2, 9}
	weights := []float64{1, 2, 1}
	prob := make([]float64, 3)
	alias := make([]int32, 3)
	var b AliasBuilder
	a := b.Build(out, weights, prob, alias)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		u := (float64(i) + 0.5) / 1000
		got := a.Draw(u)
		if got != 7 && got != 2 && got != 9 {
			t.Fatalf("Draw returned %d, not an outcome id", got)
		}
		seen[got] = true
	}
	if len(seen) != 3 {
		t.Fatalf("outcomes seen = %v, want all of 7, 2, 9", seen)
	}
}

// TestAliasEmpty: a table over no weights, or over zero weights, has no
// drawable mass (Total 0), which is how callers tell it from a table they
// may draw from.
func TestAliasEmpty(t *testing.T) {
	if a := NewAlias(nil); a.Total != 0 {
		t.Fatalf("nil-weight table has Total %v", a.Total)
	}
	if a := NewAlias([]float64{0, 0}); a.Total != 0 {
		t.Fatalf("zero-weight table has Total %v", a.Total)
	}
	var b AliasBuilder
	if a := b.Build(nil, []float64{1}, nil, nil); a.Total != 1 {
		t.Fatalf("singleton table has Total %v, want 1", a.Total)
	}
}
