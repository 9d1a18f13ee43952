package lda

import (
	"context"
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

// TestFoldInBatchMatchesFoldIn is the coalescing correctness contract:
// merging documents from independent (seed, sweeps) requests into one
// FoldInBatch must reproduce each request's plain FoldIn output bit for
// bit, for both cores and at any parallelism level.
func TestFoldInBatchMatchesFoldIn(t *testing.T) {
	m := foldInFixture(t)
	fm := FoldInModelFromCounts(m.NKV, m.NK, DefaultFoldInAlpha, m.Beta)

	// Three "requests" with different seeds, sweep counts and doc counts,
	// including an empty doc and an unknown-token doc.
	reqs := []struct {
		seed   int64
		sweeps int
		docs   [][]int
	}{
		{seed: 7, sweeps: 30, docs: [][]int{{0, 1, 2, 3}, {5, 7, 8}}},
		{seed: 99, sweeps: 5, docs: [][]int{{9, 9, 9}, {}, {42, 0}}},
		{seed: 7, sweeps: 12, docs: [][]int{{4, 4, 1, 6}}},
	}
	for _, sampler := range []Sampler{SamplerMH, SamplerDense} {
		for _, p := range []int{1, 8} {
			var want [][][]float64
			for _, r := range reqs {
				theta, err := FoldIn(fm, r.docs, FoldInConfig{Seed: r.seed, Sweeps: r.sweeps, P: p, Sampler: sampler})
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, theta)
			}
			var batch []BatchDoc
			for _, r := range reqs {
				for i, d := range r.docs {
					batch = append(batch, BatchDoc{Tokens: d, Seed: r.seed, Index: uint64(i), Sweeps: r.sweeps})
				}
			}
			got, err := FoldInBatch(fm, batch, FoldInConfig{P: p, Sampler: sampler})
			if err != nil {
				t.Fatal(err)
			}
			at := 0
			for ri, r := range reqs {
				for i := range r.docs {
					if !reflect.DeepEqual(got[at], want[ri][i]) {
						t.Fatalf("sampler %q P=%d: request %d doc %d differs: coalesced %v, plain %v",
							sampler, p, ri, i, got[at], want[ri][i])
					}
					at++
				}
			}
		}
	}
}

// TestFoldInBatchDefaults pins BatchDoc.Sweeps <= 0 falling back to
// cfg.Sweeps, and batch-level validation matching FoldIn's.
func TestFoldInBatchDefaults(t *testing.T) {
	m := foldInFixture(t)
	fm := FoldInModelFromCounts(m.NKV, m.NK, DefaultFoldInAlpha, m.Beta)
	doc := []int{0, 1, 2}
	got, err := FoldInBatch(fm, []BatchDoc{{Tokens: doc, Seed: 5, Index: 0}}, FoldInConfig{Sweeps: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, err := FoldIn(fm, [][]int{doc}, FoldInConfig{Seed: 5, Sweeps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want[0]) {
		t.Fatalf("sweep fallback differs: %v vs %v", got[0], want[0])
	}
	if _, err := FoldInBatch(fm, nil, FoldInConfig{Sampler: "bogus"}); err == nil {
		t.Fatal("unknown sampler accepted")
	}
	if _, err := FoldInBatch(nil, nil, FoldInConfig{}); err == nil {
		t.Fatal("nil model accepted")
	}
}

// TestFoldInBatchCancellation mirrors TestFoldInCancellation for the
// batched entry point.
func TestFoldInBatchCancellation(t *testing.T) {
	m := foldInFixture(t)
	fm := FoldInModelFromCounts(m.NKV, m.NK, DefaultFoldInAlpha, m.Beta)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch := make([]BatchDoc, 64)
	for i := range batch {
		batch[i] = BatchDoc{Tokens: []int{0, 1, 2}, Seed: 1, Index: uint64(i)}
	}
	if _, err := FoldInBatch(fm, batch, FoldInConfig{Ctx: ctx}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
