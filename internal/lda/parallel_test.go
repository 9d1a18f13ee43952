// Parallel-sampler invariants, mirroring the top-level parallel_test.go:
// the Gibbs samplers chunk documents independently of the worker count,
// give every document its own (seed, doc, sweep) PRNG stream, and merge
// per-chunk count deltas in chunk order — so a fitted model must be
// bit-identical at Config.P = 1 and 8, and a cancelled context must
// surface promptly as an error.
package lda

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"lesm/internal/par"
)

// bigSynthCorpus builds a corpus large enough to span several sampler
// chunks (par.SamplerChunks asks for one chunk per 32 documents).
func bigSynthCorpus(nDocs int, seed int64) [][]int {
	docs, _ := synthCorpus(nDocs, 24, seed)
	return docs
}

func TestRunDeterministicAcrossP(t *testing.T) {
	docs := bigSynthCorpus(160, 41)
	run := func(p int) *Model {
		return Must(Run(docs, 10, Config{K: 3, Iters: 30, Seed: 42, Background: true, P: p}))
	}
	want := run(1)
	if nc := par.SamplerChunks(len(docs), 4*10); nc < 2 {
		t.Fatalf("corpus spans %d chunk(s); the test needs >= 2 to exercise delta merging", nc)
	}
	for _, p := range []int{2, 8} {
		got := run(p)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("P=%d model differs from P=1 model", p)
		}
	}
}

func TestRunPhrasesDeterministicAcrossP(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	docs := make([]PhraseDoc, 160)
	for d := range docs {
		top := d % 2
		var doc PhraseDoc
		for p := 0; p < 8; p++ {
			doc = append(doc, []int{top*6 + rng.Intn(3), top*6 + 3 + rng.Intn(3)})
		}
		docs[d] = doc
	}
	run := func(p int) *Model {
		return Must(RunPhrases(docs, 12, Config{K: 2, Iters: 30, Seed: 44, P: p}))
	}
	want := run(1)
	for _, p := range []int{2, 8} {
		got := run(p)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("P=%d model differs from P=1 model", p)
		}
	}
}

// TestRunIndependentOfWorkerScheduling stresses the pool: many workers on
// few chunks, repeated runs, all bitwise equal.
func TestRunIndependentOfWorkerScheduling(t *testing.T) {
	docs := bigSynthCorpus(96, 45)
	want := Must(Run(docs, 10, Config{K: 2, Iters: 10, Seed: 46, P: 1}))
	for trial := 0; trial < 5; trial++ {
		got := Must(Run(docs, 10, Config{K: 2, Iters: 10, Seed: 46, P: 7}))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: P=7 model differs from P=1 model", trial)
		}
	}
}

// TestSamplerChunksPolicy pins the sampler's chunk policy (shared with
// internal/tng via par.SamplerChunks): coarse doc chunks, a 64-chunk
// ceiling, and a delta-table cell budget that sheds parallelism on huge
// vocabularies instead of multiplying memory. All pure functions of the
// problem shape, never of P.
func TestSamplerChunksPolicy(t *testing.T) {
	if nc := par.SamplerChunks(2048, 5*100); nc != par.SamplerMaxChunks {
		t.Fatalf("SamplerChunks(2048, small vocab) = %d, want %d", nc, par.SamplerMaxChunks)
	}
	if nc := par.SamplerChunks(31, 5*100); nc != 1 {
		t.Fatalf("SamplerChunks(31) = %d, want 1", nc)
	}
	// 21 topics x 500k words = 10.5M cells per chunk: the budget allows
	// only a handful of live delta tables.
	nc := par.SamplerChunks(100000, 21*500000)
	if nc < 1 || nc*21*500000 > par.SamplerCellBudget {
		t.Fatalf("SamplerChunks huge-vocab = %d chunks, %d cells exceeds budget %d",
			nc, nc*21*500000, par.SamplerCellBudget)
	}
}

// TestEmptyCorpus pins the serial sampler's behaviour on degenerate input:
// no documents is not an error, just an empty model.
func TestEmptyCorpus(t *testing.T) {
	m := Must(Run(nil, 5, Config{K: 2, Iters: 10, Seed: 52}))
	if len(m.Phi) != 2 || len(m.Theta) != 0 || len(m.Z) != 0 {
		t.Fatalf("empty-corpus model malformed: %+v", m)
	}
	pm := Must(RunPhrases(nil, 5, Config{K: 2, Iters: 10, Seed: 53}))
	if len(pm.Phi) != 2 || len(pm.PhraseZ) != 0 {
		t.Fatalf("empty-corpus phrase model malformed: %+v", pm)
	}
}

func TestCancelledContextReturnsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	docs := bigSynthCorpus(160, 47)
	if m, err := Run(docs, 10, Config{K: 2, Iters: 30, Seed: 48, P: 4, Ctx: ctx}); !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("Run: model=%v err=%v, want nil model and context.Canceled", m, err)
	}
	pdocs := make([]PhraseDoc, 160)
	for d := range pdocs {
		pdocs[d] = PhraseDoc{{0, 1}, {2, 3}}
	}
	if m, err := RunPhrases(pdocs, 4, Config{K: 2, Iters: 30, Seed: 49, P: 4, Ctx: ctx}); !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("RunPhrases: model=%v err=%v, want nil model and context.Canceled", m, err)
	}
}

func TestMidSamplingCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	docs := bigSynthCorpus(160, 50)
	go cancel()
	_, err := Run(docs, 10, Config{K: 2, Iters: 10000, Seed: 51, P: 2, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
