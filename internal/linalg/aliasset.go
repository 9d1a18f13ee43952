package linalg

import (
	"sort"

	"lesm/internal/par"
)

// AliasSet is a family of Walker alias tables over the columns of a sparse
// nonnegative matrix held in CSC form — one table per column, all backed by
// four shared arrays sized to the matrix's nonzeros. The MH Gibbs core
// uses it over the vocabulary (column = word, entry id = topic) and keeps
// two instances double-buffered so a background rebuild never blocks a
// sweep (see internal/lda/mh.go).
//
// A build is three passes over the owner's nonzeros:
//
//	s.Reset(cols)                  // clear tallies, keep backing storage
//	s.Count(col)   per nonzero     // tally column sizes
//	s.Layout()                     // offsets + array sizing
//	s.Put(col, id, weight)         // fill, ids ascending per column
//	s.Build(o)                     // per-column table builds on the pool
//
// Each column's table build is independent, so Build parallelizes without
// affecting the result; the whole set is a pure function of the Put calls.
type AliasSet struct {
	// Mass[c] is column c's total weight — the MH core's proposal
	// normalizer, weighed against the uniform smoothing arm.
	Mass []float64
	// Tab[c] is column c's alias table; its Draw returns entry ids.
	Tab []Alias

	cols int
	cnt  []int
	off  []int

	ids     []int32
	weights []float64
	prob    []float64
	alias   []int32
}

// Cols returns the column count of the last Reset.
func (s *AliasSet) Cols() int { return s.cols }

// Reset prepares the set for a new build over cols columns, retaining all
// backing storage from earlier builds.
func (s *AliasSet) Reset(cols int) {
	s.cols = cols
	if cap(s.Mass) < cols {
		s.Mass = make([]float64, cols)
		s.Tab = make([]Alias, cols)
		s.cnt = make([]int, cols)
		s.off = make([]int, cols+1)
	}
	s.Mass = s.Mass[:cols]
	s.Tab = s.Tab[:cols]
	s.cnt = s.cnt[:cols]
	s.off = s.off[:cols+1]
	for c := range s.cnt {
		s.cnt[c] = 0
	}
}

// Count tallies one nonzero of column col during the counting pass.
func (s *AliasSet) Count(col int) { s.cnt[col]++ }

// Layout turns the tallies into column offsets and sizes the shared entry
// arrays. cnt is reused as the fill cursor for Put. Offsets are int, not
// int32: the nonzero count is bounded by the owner's token count, and a
// production-scale fit can push that past 2^31 — an int32 accumulator
// would wrap and index the shared arrays negatively.
func (s *AliasSet) Layout() {
	s.off[0] = 0
	for c := 0; c < s.cols; c++ {
		s.off[c+1] = s.off[c] + s.cnt[c]
		s.cnt[c] = 0
	}
	nnz := s.off[s.cols]
	if cap(s.ids) < nnz {
		s.ids = make([]int32, nnz)
		s.weights = make([]float64, nnz)
		s.prob = make([]float64, nnz)
		s.alias = make([]int32, nnz)
	}
	s.ids = s.ids[:nnz]
	s.weights = s.weights[:nnz]
	s.prob = s.prob[:nnz]
	s.alias = s.alias[:nnz]
}

// Put appends entry (id, weight) to column col during the fill pass. Ids
// must arrive in ascending order within each column — Weight binary-
// searches them — which row-major scans of a (row=id, col) matrix produce
// naturally.
func (s *AliasSet) Put(col int, id int32, weight float64) {
	i := s.off[col] + s.cnt[col]
	s.cnt[col]++
	s.ids[i] = id
	s.weights[i] = weight
}

// Build constructs every column's alias table on the shared pool and
// records the column masses. Columns with no entries get the empty table
// (Mass 0).
func (s *AliasSet) Build(o par.Opts) error {
	return par.For(o, s.cols, func(lo, hi int) {
		var b AliasBuilder
		for c := lo; c < hi; c++ {
			f, e := s.off[c], s.off[c+1]
			if f == e {
				s.Tab[c] = Alias{}
				s.Mass[c] = 0
				continue
			}
			s.Tab[c] = b.Build(s.ids[f:e], s.weights[f:e], s.prob[f:e], s.alias[f:e])
			s.Mass[c] = s.Tab[c].Total
		}
	})
}

// Weight returns the weight column col assigned to id at build time, 0
// when the column has no such entry. O(log n_col) — the MH samplers call
// it to evaluate their stale proposal density at arbitrary ids.
func (s *AliasSet) Weight(col int, id int32) float64 {
	f, e := s.off[col], s.off[col+1]
	ids := s.ids[f:e]
	i := sort.Search(len(ids), func(j int) bool { return ids[j] >= id })
	if i < len(ids) && ids[i] == id {
		return s.weights[f+i]
	}
	return 0
}
