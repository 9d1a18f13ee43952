package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"lesm/internal/lda"
	"lesm/internal/store"
)

// servedFromMapping writes snap, opens it through the mmap path and
// serves it, returning the server and the mapped snapshot it serves.
func servedFromMapping(t *testing.T, snap *store.Snapshot, opt Options) (*Server, *store.Snapshot) {
	t.Helper()
	path := t.TempDir() + "/model.lesm"
	if err := store.Write(path, snap); err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := LoadSnapshot(path, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(mapped, opt)
	if err != nil {
		closer.Close()
		t.Fatal(err)
	}
	s.AdoptCloser(closer)
	t.Cleanup(func() { s.Close() })
	return s, mapped
}

// TestMappedFoldInAliasesPhi: a mapped Gibbs snapshot folds in against
// its stored Phi rows, not a heap copy derived from the counts, because
// the fit's Phi is bit for bit the counts' smoothed distribution. A
// snapshot whose counts disagree with its Phi must fold in against the
// counts, so there the rows are derived.
func TestMappedFoldInAliasesPhi(t *testing.T) {
	s, snap := servedFromMapping(t, testSnapshot(t), Options{})
	fm := s.cur.Load().foldIn
	for k, row := range fm.PhiLike {
		if &row[0] != &snap.Topics.Phi[k][0] {
			t.Fatalf("fold-in phi row %d is a copy, not the mapped Phi row", k)
		}
	}

	skewed := testSnapshot(t)
	skewed.Topics.NKV[0][3]++
	skewed.Topics.NK[0]++
	s, snap = servedFromMapping(t, skewed, Options{})
	fm = s.cur.Load().foldIn
	tp := snap.Topics
	want := lda.FoldInModelFromCounts(tp.NKV, tp.NK, lda.DefaultFoldInAlpha, tp.Beta)
	for k, row := range fm.PhiLike {
		if &row[0] == &snap.Topics.Phi[k][0] {
			t.Fatalf("fold-in phi row %d aliases a Phi that disagrees with the counts", k)
		}
		for w, p := range row {
			if p != want.PhiLike[k][w] {
				t.Fatalf("phi[%d][%d] = %v, counts give %v", k, w, p, want.PhiLike[k][w])
			}
		}
	}
}

// withFoldInSection gives snap the foldin section lesm.Save writes: the
// tables at lda.DefaultFoldInAlpha.
func withFoldInSection(snap *store.Snapshot) *store.Snapshot {
	snap.FoldIn = store.NewFoldIn(snap.FoldInModel(lda.DefaultFoldInAlpha), lda.DefaultFoldInAlpha)
	return snap
}

// wideSnapshot is a Gibbs snapshot wider than testSnapshot (K = 32,
// V = 96), carrying the foldin section lesm.Save writes.
func wideSnapshot(t *testing.T) *store.Snapshot {
	t.Helper()
	const k, v = 32, 96
	var docs [][]int
	for d := 0; d < 64; d++ {
		doc := make([]int, 24)
		for i := range doc {
			doc[i] = (d*7 + i*i) % v
		}
		docs = append(docs, doc)
	}
	m, err := lda.Run(docs, v, lda.Config{K: k, Seed: 5, Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	return withFoldInSection(&store.Snapshot{Topics: &store.Topics{
		K: k, V: v, Weight: m.Rho, Phi: m.Phi,
		Alpha: m.Alpha, Beta: m.Beta, NKV: m.NKV, NK: m.NK,
	}})
}

// TestFoldInSectionParity serves a snapshot three ways — adopting its
// foldin section, with the section removed (a file saved before small
// models got one), and at a fold-in prior other than the stored one —
// and each /infer theta must equal in-process lda.FoldIn on a model
// freshly built from the counts at the same prior. Only the first server
// may adopt the stored tables (they alias the mapping); the other two
// must build their own. It does so for the wide snapshot and, under
// "K=2/", for the small test snapshot (K = 2, V = 10).
func TestFoldInSectionParity(t *testing.T) {
	const seed, sweeps = 11, 6
	fixtures := []struct {
		prefix string
		snap   func(*testing.T) *store.Snapshot
		ids    [][]int
	}{
		{"", wideSnapshot, [][]int{{3, 8, 3, 40, 41, 95, 8}, {17}, {60, 61, 62, 63, 64, 65, 66, 67, 68}}},
		{"K=2/", func(t *testing.T) *store.Snapshot { return withFoldInSection(testSnapshot(t)) },
			[][]int{{3, 8, 3, 0, 5, 8}, {7}, {0, 1, 2, 5, 6, 7, 9}}},
	}
	for _, f := range fixtures {
		without := f.snap(t)
		without.FoldIn = nil
		cases := []struct {
			name  string
			snap  *store.Snapshot
			alpha float64
			adopt bool
		}{
			{"section", f.snap(t), 0, true},
			{"no section", without, 0, false},
			{"other alpha", f.snap(t), 0.3, false},
		}
		for _, c := range cases {
			t.Run(f.prefix+c.name, func(t *testing.T) {
				s, snap := servedFromMapping(t, c.snap, Options{Alpha: c.alpha})
				tab := s.cur.Load().foldIn.Tables()
				adopted := snap.FoldIn != nil && &tab.Prob[0] == &snap.FoldIn.Prob[0]
				if adopted != c.adopt {
					t.Fatalf("stored tables adopted = %v, want %v", adopted, c.adopt)
				}
				if !c.adopt && len(tab.Prob) != snap.Topics.K*snap.Topics.V {
					t.Fatalf("built %d table cells, want K·V = %d", len(tab.Prob), snap.Topics.K*snap.Topics.V)
				}
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				out := postJSON(t, ts.URL+"/infer", map[string]any{"seed": seed, "sweeps": sweeps, "ids": f.ids}, http.StatusOK)
				alpha := c.alpha
				if alpha == 0 {
					alpha = lda.DefaultFoldInAlpha
				}
				tp := snap.Topics
				fm := lda.FoldInModelFromCounts(tp.NKV, tp.NK, alpha, tp.Beta)
				exp, err := lda.FoldIn(fm, f.ids, lda.FoldInConfig{Seed: seed, Sweeps: sweeps})
				if err != nil {
					t.Fatal(err)
				}
				rows := out["theta"].([]any)
				for d, row := range rows {
					for k, x := range row.([]any) {
						if x.(float64) != exp[d][k] {
							t.Fatalf("theta[%d][%d] = %v, in-process fold-in gives %v", d, k, x, exp[d][k])
						}
					}
				}
			})
		}
	}
}
