package store

import (
	"fmt"
	"math"
	"sync/atomic"

	"lesm/internal/lda"
	"lesm/internal/par"
)

// FoldIn is the optional `foldin` section: fold-in's per-word alias
// tables (lda.FoldInTables) over α·φ for the snapshot's topics at one
// document prior Alpha. Fold-in freezes the model, so the tables are
// a pure function of the topics section and Alpha; storing them lets a
// server adopt them straight from the mapping instead of building K·V
// cells of tables on its heap at every load. The arrays are word-major
// and decode zero-copy on a mapped snapshot.
type FoldIn struct {
	Alpha float64
	K, V  int
	// Mass is V long; Prob and Alias are V·K long, word w's table at
	// [w·K, (w+1)·K).
	Mass  []float64
	Prob  []float64
	Alias []int32
}

// NewFoldIn is the section for a model FoldInModel froze at prior alpha:
// its word-proposal tables, built first if the model has none. The
// section shares the tables' storage with the model.
func NewFoldIn(fm *lda.FoldInModel, alpha float64) *FoldIn {
	tab := fm.Tables()
	return &FoldIn{Alpha: alpha, K: fm.K(), V: fm.V(), Mass: tab.Mass, Prob: tab.Prob, Alias: tab.Alias}
}

// FoldInModel freezes the snapshot's topics for fold-in at document prior
// alpha. It is the one place that decides how stored topics become an
// lda.FoldInModel; the server (internal/serve) and lesm.Artifact.Infer
// both go through it, so a served snapshot and an in-process artifact
// sample against the same model.
//
// With Gibbs count tables, fold-in samples against their exact smoothed
// distribution (NKV+Beta)/(NK+V·Beta). When Phi holds exactly that
// distribution, bit for bit — a Gibbs fit's own Phi always does — the
// model reads Phi's rows in place (on a mapped snapshot, straight from
// the mapping) instead of deriving a heap copy; the check is one pass
// with no allocation. Otherwise, and when Phi is absent, φ is derived
// from the counts. Without counts (STROD models) fold-in samples against
// Phi directly.
//
// The foldin section's tables are adopted only when they were built at
// this alpha, bit for bit, and for the model's K and V; in every other
// case (no section, another alpha) fold-in builds its own.
// The snapshot must have passed Validate. FoldInModel returns nil when
// the snapshot has no topics or they carry neither counts nor Phi.
func (s *Snapshot) FoldInModel(alpha float64) *lda.FoldInModel {
	var fm *lda.FoldInModel
	switch t := s.Topics; {
	case t == nil:
		return nil
	case t.NKV != nil && t.NK != nil:
		if lda.PhiMatchesCounts(t.Phi, t.NKV, t.NK, t.Beta) {
			fm = lda.NewFoldInModel(t.Phi, alpha)
		} else {
			fm = lda.FoldInModelFromCounts(t.NKV, t.NK, alpha, t.Beta)
		}
	case t.Phi != nil:
		fm = lda.NewFoldInModel(t.Phi, alpha)
	default:
		return nil
	}
	if f := s.FoldIn; f != nil && math.Float64bits(f.Alpha) == math.Float64bits(alpha) &&
		f.K == fm.K() && f.V == fm.V() {
		fm.UseTables(lda.FoldInTables{Mass: f.Mass, Prob: f.Prob, Alias: f.Alias})
	}
	return fm
}

func encodeFoldIn(e *enc, f *FoldIn) {
	e.grow(3*8 + 8 + 8*len(f.Mass) + 8 + 8*len(f.Prob) + 8 + 4*len(f.Alias) + pad8(4*len(f.Alias)))
	e.f64(f.Alpha)
	e.i64(int64(f.K))
	e.i64(int64(f.V))
	e.floats(f.Mass)
	e.floats(f.Prob)
	e.int32s(f.Alias)
}

func decodeFoldIn(d *dec) *FoldIn {
	return &FoldIn{
		Alpha: d.f64("foldin alpha"),
		K:     int(d.i64("foldin K")),
		V:     int(d.i64("foldin V")),
		Mass:  d.floats("foldin mass"),
		Prob:  d.floats("foldin prob"),
		Alias: d.int32s("foldin alias"),
	}
}

// Validate checks the foldin section against the topics section it was
// built for: matching K and V, array lengths that fit them, a positive
// finite Alpha, finite non-negative masses, probabilities in [0, 1] and
// alias entries in [0, K). A CRC-valid file that breaks any of these
// could otherwise draw a topic out of range inside a fold-in.
func (f *FoldIn) Validate(t *Topics) error {
	if t == nil {
		return fmt.Errorf("store: foldin section without a topics section")
	}
	if f.K != t.K || f.V != t.V {
		return fmt.Errorf("store: foldin tables are K=%d V=%d, topics K=%d V=%d", f.K, f.V, t.K, t.V)
	}
	if f.K < 0 || f.V < 0 || len(f.Mass) != f.V || !fitsTable(len(f.Prob), f.K, f.V) || len(f.Alias) != len(f.Prob) {
		return fmt.Errorf("store: foldin arrays (mass %d, prob %d, alias %d) do not fit K=%d V=%d", len(f.Mass), len(f.Prob), len(f.Alias), f.K, f.V)
	}
	if !(f.Alpha > 0) || math.IsInf(f.Alpha, 0) {
		return fmt.Errorf("store: foldin alpha = %v, need a positive finite prior", f.Alpha)
	}
	// The value scans read all three arrays, so they run on the pool, a
	// range of words per task. Only a failed scan is repeated serially, to
	// name the first bad value in the order below.
	var bad atomic.Bool
	par.For(par.Opts{}, f.V, func(lo, hi int) {
		if !f.rowsValid(lo, hi) {
			bad.Store(true)
		}
	})
	if !bad.Load() {
		return nil
	}
	for w, m := range f.Mass {
		if !massValid(m) {
			return fmt.Errorf("store: foldin mass[%d] = %v, need finite and >= 0", w, m)
		}
	}
	for i, p := range f.Prob {
		if !probValid(p) {
			return fmt.Errorf("store: foldin prob[%d] = %v, need [0, 1]", i, p)
		}
	}
	for i, a := range f.Alias {
		if a < 0 || int(a) >= f.K {
			return fmt.Errorf("store: foldin alias[%d] = %d out of range [0, %d)", i, a, f.K)
		}
	}
	return nil
}

// rowsValid reports whether the masses of words [lo, hi) and their table
// entries are all in range.
func (f *FoldIn) rowsValid(lo, hi int) bool {
	for _, m := range f.Mass[lo:hi] {
		if !massValid(m) {
			return false
		}
	}
	for _, p := range f.Prob[lo*f.K : hi*f.K] {
		if !probValid(p) {
			return false
		}
	}
	for _, a := range f.Alias[lo*f.K : hi*f.K] {
		if a < 0 || int(a) >= f.K {
			return false
		}
	}
	return true
}

func massValid(m float64) bool { return m >= 0 && !math.IsInf(m, 0) }

func probValid(p float64) bool { return p >= 0 && p <= 1 }

// fitsTable reports whether n == k·v for non-negative k and v, without
// overflowing on corrupt shapes.
func fitsTable(n, k, v int) bool {
	if k == 0 || v == 0 {
		return n == 0
	}
	return n%v == 0 && n/v == k
}
