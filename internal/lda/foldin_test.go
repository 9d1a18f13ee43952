package lda

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// foldInFixture fits a tiny two-topic model whose topics are cleanly
// separated: words 0-4 belong to topic A, words 5-9 to topic B.
func foldInFixture(t *testing.T) *Model {
	t.Helper()
	var docs [][]int
	for i := 0; i < 40; i++ {
		a := []int{0, 1, 2, 3, 4, 0, 1, 2}
		b := []int{5, 6, 7, 8, 9, 5, 6, 7}
		docs = append(docs, a, b)
	}
	m, err := Run(docs, 10, Config{K: 2, Seed: 3, Iters: 60})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelExportsSufficientStatistics(t *testing.T) {
	m := foldInFixture(t)
	if m.NKV == nil || m.NK == nil {
		t.Fatal("model missing NKV/NK sufficient statistics")
	}
	if m.Alpha <= 0 || m.Beta <= 0 {
		t.Fatalf("hyperparameters not echoed: alpha=%v beta=%v", m.Alpha, m.Beta)
	}
	// Phi must be the smoothed normalization of the counts.
	vb := float64(m.V) * m.Beta
	for k := range m.Phi {
		for w := range m.Phi[k] {
			want := (float64(m.NKV[k][w]) + m.Beta) / (float64(m.NK[k]) + vb)
			if math.Abs(m.Phi[k][w]-want) > 1e-12 {
				t.Fatalf("Phi[%d][%d] = %v, counts give %v", k, w, m.Phi[k][w], want)
			}
		}
	}
	// NK must be the row sums of NKV.
	for k, row := range m.NKV {
		sum := 0
		for _, c := range row {
			sum += c
		}
		if sum != m.NK[k] {
			t.Fatalf("NK[%d] = %d, row sum = %d", k, m.NK[k], sum)
		}
	}
}

func TestFoldInRecoversTopic(t *testing.T) {
	m := foldInFixture(t)
	// A small fold-in alpha keeps short documents' theta evidence-driven
	// (the fitting alpha 50/K would swamp a 6-token document).
	fm := FoldInModelFromCounts(m.NKV, m.NK, 0.1, m.Beta)
	theta, err := FoldIn(fm, [][]int{
		{0, 1, 2, 0, 1, 3},
		{5, 6, 7, 5, 8, 9},
	}, FoldInConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Which fitted topic is the "word 0-4" topic?
	topicA := 0
	if m.Phi[1][0] > m.Phi[0][0] {
		topicA = 1
	}
	if theta[0][topicA] < 0.7 {
		t.Fatalf("doc of topic-A words got theta %v", theta[0])
	}
	if theta[1][topicA] > 0.3 {
		t.Fatalf("doc of topic-B words got theta %v", theta[1])
	}
	for _, th := range theta {
		sum := 0.0
		for _, v := range th {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("theta not normalized: %v", th)
		}
	}
}

// TestFoldInDeterministicAcrossP is the serving determinism contract:
// identical (seed, doc index, tokens) must give bit-identical theta at any
// parallelism level.
func TestFoldInDeterministicAcrossP(t *testing.T) {
	m := foldInFixture(t)
	fm := FoldInModelFromCounts(m.NKV, m.NK, m.Alpha, m.Beta)
	docs := make([][]int, 97)
	for i := range docs {
		docs[i] = []int{i % 10, (i + 3) % 10, (2 * i) % 10, (i * i) % 10}
	}
	base, err := FoldIn(fm, docs, FoldInConfig{Seed: 5, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, runtime.GOMAXPROCS(0) + 3} {
		got, err := FoldIn(fm, docs, FoldInConfig{Seed: 5, P: p})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("fold-in differs at P=%d", p)
		}
	}
}

func TestFoldInIndependentOfBatchmates(t *testing.T) {
	m := foldInFixture(t)
	fm := FoldInModelFromCounts(m.NKV, m.NK, m.Alpha, m.Beta)
	doc := []int{0, 1, 5, 6, 2}
	solo, err := FoldIn(fm, [][]int{doc}, FoldInConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := FoldIn(fm, [][]int{doc, {7, 8, 9}, {0, 0, 0}}, FoldInConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solo[0], batch[0]) {
		t.Fatalf("doc 0 theta depends on batchmates: %v vs %v", solo[0], batch[0])
	}
}

func TestFoldInEdgeCases(t *testing.T) {
	m := foldInFixture(t)
	fm := FoldInModelFromCounts(m.NKV, m.NK, m.Alpha, m.Beta)
	// Empty batch.
	theta, err := FoldIn(fm, nil, FoldInConfig{Seed: 1})
	if err != nil || len(theta) != 0 {
		t.Fatalf("empty batch: theta=%v err=%v", theta, err)
	}
	// Empty doc and all-unknown doc fall back to the normalized prior.
	theta, err = FoldIn(fm, [][]int{{}, {999, 1000}}, FoldInConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range theta {
		for k, v := range th {
			want := fm.Alpha[k] / (fm.Alpha[0] + fm.Alpha[1])
			if math.Abs(v-want) > 1e-12 {
				t.Fatalf("prior fallback wrong: %v", th)
			}
		}
	}
	// Negative sweeps fall back to the default rather than silently
	// skipping every refinement sweep.
	neg, err := FoldIn(fm, [][]int{{0, 1, 2}}, FoldInConfig{Seed: 4, Sweeps: -1})
	if err != nil {
		t.Fatal(err)
	}
	def, err := FoldIn(fm, [][]int{{0, 1, 2}}, FoldInConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(neg, def) {
		t.Fatalf("negative sweeps diverged from default: %v vs %v", neg, def)
	}
	// Nil / empty model errors.
	if _, err := FoldIn(nil, [][]int{{0}}, FoldInConfig{}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := FoldIn(&FoldInModel{}, [][]int{{0}}, FoldInConfig{}); err == nil {
		t.Fatal("empty model accepted")
	}
}

func TestFoldInCancellation(t *testing.T) {
	m := foldInFixture(t)
	fm := FoldInModelFromCounts(m.NKV, m.NK, m.Alpha, m.Beta)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FoldIn(fm, [][]int{{0, 1}, {2, 3}}, FoldInConfig{Seed: 1, Ctx: ctx}); err == nil {
		t.Fatal("cancelled fold-in returned no error")
	}
}

func TestNewFoldInModelFromPhi(t *testing.T) {
	phi := [][]float64{{0.9, 0.1}, {0.1, 0.9}}
	fm := NewFoldInModel(phi, 0)
	if fm.K() != 2 || fm.V() != 2 {
		t.Fatalf("K=%d V=%d", fm.K(), fm.V())
	}
	if fm.Alpha[0] != 25 || fm.Alpha[1] != 25 {
		t.Fatalf("default alpha = %v", fm.Alpha)
	}
	theta, err := FoldIn(fm, [][]int{{0, 0, 0, 0, 0, 0, 0, 0}}, FoldInConfig{Seed: 2, Sweeps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if theta[0][0] <= theta[0][1] {
		t.Fatalf("phi-only fold-in ignored the evidence: %v", theta[0])
	}
}

// TestPhiIsFoldInPhi pins the invariant that lets a served Gibbs snapshot
// fold in against its stored Phi rows instead of a derived copy: for
// token and phrase fits, dense and MH, with the background topic on,
// Model.Phi is bit for bit the PhiLike FoldInModelFromCounts derives from
// the model's counts, and PhiMatchesCounts says so. One flipped bit or a
// changed beta must turn the check false.
func TestPhiIsFoldInPhi(t *testing.T) {
	for _, s := range []Sampler{SamplerDense, SamplerMH} {
		for _, phrases := range []bool{false, true} {
			cfg := goldenConfig(s, true, 2)
			var m *Model
			var err error
			if phrases {
				m, err = RunPhrases(goldenPhrases(), goldenV, cfg)
			} else {
				m, err = Run(goldenCorpus(), goldenV, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/phrases=%v", s, phrases)
			if len(m.Phi) != m.K+1 {
				t.Fatalf("%s: %d Phi rows, want K+1 = %d with the background topic", name, len(m.Phi), m.K+1)
			}
			want := FoldInModelFromCounts(m.NKV, m.NK, DefaultFoldInAlpha, m.Beta).PhiLike
			for k := range want {
				for w := range want[k] {
					if math.Float64bits(m.Phi[k][w]) != math.Float64bits(want[k][w]) {
						t.Fatalf("%s: Phi[%d][%d] = %v, counts give %v", name, k, w, m.Phi[k][w], want[k][w])
					}
				}
			}
			if !PhiMatchesCounts(m.Phi, m.NKV, m.NK, m.Beta) {
				t.Fatalf("%s: PhiMatchesCounts rejects the model's own Phi", name)
			}
			if PhiMatchesCounts(m.Phi, m.NKV, m.NK, 2*m.Beta) {
				t.Fatalf("%s: PhiMatchesCounts accepts Phi under another beta", name)
			}
			phi := make([][]float64, len(m.Phi))
			copy(phi, m.Phi)
			phi[1] = append([]float64(nil), m.Phi[1]...)
			phi[1][7] = math.Float64frombits(math.Float64bits(phi[1][7]) ^ 1)
			if PhiMatchesCounts(phi, m.NKV, m.NK, m.Beta) {
				t.Fatalf("%s: PhiMatchesCounts misses a one-bit difference", name)
			}
			if PhiMatchesCounts(m.Phi[:m.K], m.NKV, m.NK, m.Beta) {
				t.Fatalf("%s: PhiMatchesCounts accepts a Phi with a row missing", name)
			}
		}
	}
}

// TestPhiMatchesCountsFlippedCell: one flipped bit in any cell of a
// mostly-zero count table, in a zero-count or a counted cell, in the first
// or the last row, turns PhiMatchesCounts false, whatever the pool width.
func TestPhiMatchesCountsFlippedCell(t *testing.T) {
	const k, v, beta = 40, 300, 0.01
	nKV, nK := make([][]int, k), make([]int, k)
	for topic := range nKV {
		nKV[topic] = make([]int, v)
		for w := topic % 7; w < v; w += 7 {
			nKV[topic][w] = 1 + (w+topic)%5
			nK[topic] += nKV[topic][w]
		}
	}
	phi := FoldInModelFromCounts(nKV, nK, DefaultFoldInAlpha, beta).PhiLike
	cells := [][2]int{{0, 0}, {0, 1}, {k - 1, v - 1}, {17, 150}, {17, 17 % 7}, {k - 1, (k - 1) % 7}}
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			if !PhiMatchesCounts(phi, nKV, nK, beta) {
				t.Fatal("PhiMatchesCounts rejects the counts' own smoothing")
			}
			for _, c := range cells {
				row := phi[c[0]]
				flipped := append([]float64(nil), row...)
				flipped[c[1]] = math.Float64frombits(math.Float64bits(flipped[c[1]]) ^ 1)
				phi[c[0]] = flipped
				if PhiMatchesCounts(phi, nKV, nK, beta) {
					t.Errorf("cell (%d, %d), count %d: a one-bit difference passes", c[0], c[1], nKV[c[0]][c[1]])
				}
				phi[c[0]] = row
			}
		})
	}
}
