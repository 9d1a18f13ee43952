package tng

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"lesm/internal/synth"
)

func TestRunProducesPhrases(t *testing.T) {
	ds := synth.Arxiv(synth.TextConfig{NumDocs: 800, Seed: 41})
	docs := make([][]int, len(ds.Corpus.Docs))
	for i, d := range ds.Corpus.Docs {
		docs[i] = d.Tokens
	}
	m, err := Run(docs, ds.Corpus.Vocab.Size(), Config{K: 5, Iters: 60, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Phi) != 5 {
		t.Fatalf("phi rows = %d", len(m.Phi))
	}
	phrases := m.TopicalPhrases(ds.Corpus, 15)
	multi := 0
	for _, topic := range phrases {
		if len(topic) == 0 {
			t.Fatal("empty topic")
		}
		for _, p := range topic {
			if strings.Contains(p.Display, " ") {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Fatal("TNG produced no multiword phrases")
	}
}

func TestStatusChainsShareTopic(t *testing.T) {
	ds := synth.Arxiv(synth.TextConfig{NumDocs: 300, Seed: 43})
	docs := make([][]int, len(ds.Corpus.Docs))
	for i, d := range ds.Corpus.Docs {
		docs[i] = d.Tokens
	}
	m, err := Run(docs, ds.Corpus.Vocab.Size(), Config{K: 4, Iters: 30, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	for d := range docs {
		for i := 1; i < len(docs[d]); i++ {
			if m.X[d][i] == 1 && m.Z[d][i] != m.Z[d][i-1] {
				t.Fatalf("doc %d pos %d: bigram continuation with different topic", d, i)
			}
		}
		if len(m.X[d]) > 0 && m.X[d][0] == 1 {
			t.Fatalf("doc %d starts with continuation status", d)
		}
	}
}

// TestRunDeterministicAcrossP pins the parallel-sampler contract the
// chunk/delta redesign brought over from internal/lda: chunk boundaries
// and per-document PRNG streams depend only on (seed, doc, sweep), and
// deltas merge in chunk order, so the fitted model must be bit-identical
// at P=1 and P=8.
func TestRunDeterministicAcrossP(t *testing.T) {
	ds := synth.Arxiv(synth.TextConfig{NumDocs: 300, Seed: 45})
	docs := make([][]int, len(ds.Corpus.Docs))
	for i, d := range ds.Corpus.Docs {
		docs[i] = d.Tokens
	}
	run := func(p int) *Model {
		m, err := Run(docs, ds.Corpus.Vocab.Size(), Config{K: 4, Iters: 20, Seed: 46, P: p})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	want := run(1)
	for _, p := range []int{2, 8} {
		if got := run(p); !reflect.DeepEqual(want, got) {
			t.Fatalf("P=%d model differs from P=1 model", p)
		}
	}
}

func TestRunValidatesInputs(t *testing.T) {
	if _, err := Run([][]int{{0}}, 3, Config{K: 0, Iters: 1}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := Run([][]int{{0}}, 0, Config{K: 2, Iters: 1}); err == nil {
		t.Fatal("empty vocabulary accepted")
	}
	if _, err := Run([][]int{{7}}, 3, Config{K: 2, Iters: 1}); err == nil {
		t.Fatal("out-of-range token accepted")
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"Alpha", Config{Alpha: -1}}, {"Alpha", Config{Alpha: inf}}, {"Alpha", Config{Alpha: nan}},
		{"Beta", Config{Beta: -inf}}, {"Beta", Config{Beta: inf}}, {"Beta", Config{Beta: nan}},
		{"Delta", Config{Delta: -0.5}}, {"Delta", Config{Delta: inf}}, {"Delta", Config{Delta: nan}},
		{"Gamma", Config{Gamma: -1}}, {"Gamma", Config{Gamma: inf}}, {"Gamma", Config{Gamma: nan}},
		{"Discount", Config{Discount: -0.1}}, {"Discount", Config{Discount: 1}}, {"Discount", Config{Discount: nan}},
		{"Iters", Config{Iters: -1}},
	} {
		tc.cfg.K = 2
		if _, err := Run([][]int{{0, 1}}, 3, tc.cfg); err == nil || !strings.Contains(err.Error(), "Config."+tc.name) {
			t.Fatalf("%+v: err=%v, want a Config.%s error", tc.cfg, err, tc.name)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	docs := [][]int{{0, 1, 2}, {1, 2, 0}}
	if m, err := Run(docs, 3, Config{K: 2, Iters: 10, Seed: 1, Ctx: ctx}); !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("model=%v err=%v, want nil model and context.Canceled", m, err)
	}
}
