// Gibbs-sampler benchmarks: dense vs MH core at Parallelism 1 and NumCPU
// over fixed-seed workloads, reporting tokens/sec so the perf trajectory
// stays comparable across BENCH_*.json files regardless of workload shape.
// `go test -bench 'LDA|FoldIn' -run '^$' ./internal/lda` regenerates the
// numbers recorded in BENCH_pr4.json / BENCH_pr6.json (those files also
// carry rows for the since-retired sparse core). The determinism guarantee
// means every variant of one core produces identical models at any P, so
// P1-vs-PN comparisons are pure wall clock; cross-core comparisons are
// over different (equally valid) trajectories of the same workload — see
// TestMHDensePerplexityParity for the quality gate. The K200 benches
// additionally report rebuilds/sweep, the amortization the MH core buys
// (1/AliasRefresh instead of one rebuild per sweep).
package lda

import (
	"math/rand"
	"runtime"
	"testing"
)

// reportTokensPerSec converts the benchmark's elapsed time into the
// sampler's end-to-end token throughput (init pass excluded: tokens
// sampled = corpus tokens x sweeps x iterations run).
func reportTokensPerSec(b *testing.B, tokensPerOp int) {
	b.ReportMetric(float64(tokensPerOp)*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
}

func benchLDA(b *testing.B, p int, sampler Sampler) {
	docs, _ := synthCorpus(2048, 64, 71)
	cfg := Config{K: 5, Iters: 50, Seed: 72, Background: true, P: p, Sampler: sampler}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(docs, 10, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportTokensPerSec(b, 2048*64*cfg.Iters)
}

// wideCorpus is the many-topic workload for the K >= 200 comparison: 32
// topic blocks over a 1000-word vocabulary with a 10% uniform noise
// floor, so fitted documents concentrate on few topics (K_d << K) the way
// real corpora do.
func wideCorpus(nDocs, docLen int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]int, nDocs)
	for d := range docs {
		top := d % 32
		doc := make([]int, docLen)
		for i := range doc {
			if rng.Float64() < 0.1 {
				doc[i] = rng.Intn(1000)
			} else {
				doc[i] = top*30 + rng.Intn(30)
			}
		}
		docs[d] = doc
	}
	return docs
}

func benchLDAK200(b *testing.B, sampler Sampler) {
	docs := wideCorpus(512, 64, 75)
	cfg := Config{K: 200, Alpha: 0.25, Iters: 20, Seed: 76, Sampler: sampler}
	rebuilds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Run(docs, 1000, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rebuilds = m.AliasRebuilds
	}
	reportTokensPerSec(b, 512*64*cfg.Iters)
	b.ReportMetric(float64(rebuilds)/float64(cfg.Iters), "rebuilds/sweep")
}

// zipfV is the vocabulary of the K200Zipf workload, about the size of a
// 12k-paper corpus's: a 200x12k int table is ~19 MB, far past the private
// caches, so the count-table layout shows in the sweep time.
const zipfV = 12000

// zipfCorpus draws words by Zipf rank (s = 1.07, the skew of the
// benchmark harness's synthetic vocabulary) over 40 topic blocks: a token
// takes its block's rank-r word with probability 0.8 and the corpus-wide
// rank-r word otherwise, so every block has its own head while the tail
// spans the whole vocabulary.
func zipfCorpus(nDocs, docLen int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.07, 1, zipfV-1)
	docs := make([][]int, nDocs)
	for d := range docs {
		offset := (d % 40) * (zipfV / 40)
		doc := make([]int, docLen)
		for i := range doc {
			r := int(zipf.Uint64())
			if rng.Float64() < 0.8 {
				r = (r + offset) % zipfV
			}
			doc[i] = r
		}
		docs[d] = doc
	}
	return docs
}

// benchLDAK200Zipf fits the MH core at K=200 over zipfCorpus. The
// document count keeps the sampler at 8 chunks, so the per-chunk delta
// tables stay bounded (~170 MB in all) while each is as wide as the
// global table.
func benchLDAK200Zipf(b *testing.B, p int) {
	docs := zipfCorpus(256, 128, 81)
	cfg := Config{K: 200, Alpha: 0.25, Iters: 60, Seed: 82, P: p, Sampler: SamplerMH}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(docs, zipfV, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportTokensPerSec(b, 256*128*cfg.Iters)
}

func benchPhraseLDA(b *testing.B, p int, sampler Sampler) {
	rng := rand.New(rand.NewSource(73))
	docs := make([]PhraseDoc, 2048)
	for d := range docs {
		top := d % 2
		var doc PhraseDoc
		for q := 0; q < 24; q++ {
			doc = append(doc, []int{top*6 + rng.Intn(3), top*6 + 3 + rng.Intn(3)})
		}
		docs[d] = doc
	}
	cfg := Config{K: 5, Iters: 50, Seed: 74, P: p, Sampler: sampler}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPhrases(docs, 12, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportTokensPerSec(b, 2048*24*2*cfg.Iters)
}

func benchFoldIn(b *testing.B, sampler Sampler) {
	// Frozen K=200 model over the wide corpus; 256 short query docs per
	// op, the serving-shaped workload.
	m := Must(Run(wideCorpus(512, 64, 77), 1000, Config{K: 200, Alpha: 0.25, Iters: 10, Seed: 78}))
	fm := FoldInModelFromCounts(m.NKV, m.NK, DefaultFoldInAlpha, m.Beta)
	fm.PrecomputeSparse() // pay the one-time alias build outside the timer
	rng := rand.New(rand.NewSource(79))
	docs := make([][]int, 256)
	for i := range docs {
		docs[i] = make([]int, 16)
		top := rng.Intn(32)
		for j := range docs[i] {
			docs[i][j] = top*30 + rng.Intn(30)
		}
	}
	cfg := FoldInConfig{Seed: 80, Sweeps: 30, Sampler: sampler}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FoldIn(fm, docs, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportTokensPerSec(b, 256*16*cfg.Sweeps)
}

func BenchmarkLDA_Dense_P1(b *testing.B) { benchLDA(b, 1, SamplerDense) }
func BenchmarkLDA_Dense_PN(b *testing.B) { benchLDA(b, runtime.NumCPU(), SamplerDense) }
func BenchmarkLDA_MH_P1(b *testing.B)    { benchLDA(b, 1, SamplerMH) }
func BenchmarkLDA_MH_PN(b *testing.B)    { benchLDA(b, runtime.NumCPU(), SamplerMH) }

func BenchmarkLDA_K200_Dense(b *testing.B) { benchLDAK200(b, SamplerDense) }
func BenchmarkLDA_K200_MH(b *testing.B)    { benchLDAK200(b, SamplerMH) }

func BenchmarkLDA_K200Zipf_P1(b *testing.B) { benchLDAK200Zipf(b, 1) }
func BenchmarkLDA_K200Zipf_PN(b *testing.B) { benchLDAK200Zipf(b, runtime.NumCPU()) }

func BenchmarkPhraseLDA_Dense_P1(b *testing.B) { benchPhraseLDA(b, 1, SamplerDense) }
func BenchmarkPhraseLDA_Dense_PN(b *testing.B) { benchPhraseLDA(b, runtime.NumCPU(), SamplerDense) }
func BenchmarkPhraseLDA_MH_P1(b *testing.B)    { benchPhraseLDA(b, 1, SamplerMH) }
func BenchmarkPhraseLDA_MH_PN(b *testing.B)    { benchPhraseLDA(b, runtime.NumCPU(), SamplerMH) }

func BenchmarkFoldIn_Dense(b *testing.B) { benchFoldIn(b, SamplerDense) }
func BenchmarkFoldIn_MH(b *testing.B)    { benchFoldIn(b, SamplerMH) }
