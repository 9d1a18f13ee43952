package linalg

import "lesm/internal/par"

// AliasSet is a family of Walker alias tables over the columns of a sparse
// nonnegative matrix held in CSC form — one table per column, all backed by
// four shared arrays sized to the matrix's nonzeros. The MH Gibbs core
// uses it over the vocabulary (column = word, entry id = topic) and
// rebuilds one instance in place at a pass boundary every AliasRefresh
// sweeps (see internal/lda/mh.go).
//
// A build is one pass over the owner's nonzeros, column by column:
//
//	s.Reset(cols)                  // clear, keep backing storage
//	s.Put(col, id, weight)         // append, columns in ascending order
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
	// off[c] is column c's first entry; it grows as Put opens columns and
	// Build closes the rest. Offsets are int, not int32: the nonzero count
	// is bounded by the owner's token count, and a production-scale fit
	// can push that past 2^31 — an int32 offset would wrap and index the
	// shared arrays negatively.
	off []int

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
		s.off = make([]int, 0, cols+1)
	}
	s.Mass = s.Mass[:cols]
	s.Tab = s.Tab[:cols]
	s.off = append(s.off[:0], 0)
	s.ids = s.ids[:0]
	s.weights = s.weights[:0]
}

// Put appends entry (id, weight) to column col. Columns must arrive in
// ascending order; columns skipped over stay empty. Within a column the
// entries keep their arrival order, and the table built from them
// depends on that order (the build is deterministic in its input order),
// so an owner that needs reproducible tables must Put in a fixed order.
func (s *AliasSet) Put(col int, id int32, weight float64) {
	for len(s.off) <= col {
		s.off = append(s.off, len(s.ids))
	}
	s.ids = append(s.ids, id)
	s.weights = append(s.weights, weight)
}

// Build closes the columns after the last Put, constructs every column's
// alias table on the shared pool and records the column masses. Columns
// with no entries get the empty table (Mass 0).
func (s *AliasSet) Build(o par.Opts) error {
	nnz := len(s.ids)
	for len(s.off) <= s.cols {
		s.off = append(s.off, nnz)
	}
	if cap(s.prob) < nnz {
		s.prob = make([]float64, nnz)
		s.alias = make([]int32, nnz)
	}
	s.prob = s.prob[:nnz]
	s.alias = s.alias[:nnz]
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
