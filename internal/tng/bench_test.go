// TNG sampler benchmarks at Parallelism 1 and NumCPU over one fixed-seed
// workload, reporting tokens/sec. The fitted model is bit-identical at
// any P, so the pair compares wall clock only:
// `go test -run '^$' -bench TNG ./internal/tng`.
package tng

import (
	"runtime"
	"testing"

	"lesm/internal/synth"
)

func benchTNG(b *testing.B, p int) {
	ds := synth.Arxiv(synth.TextConfig{NumDocs: 1024, Seed: 51})
	docs := make([][]int, len(ds.Corpus.Docs))
	tokens := 0
	for i, d := range ds.Corpus.Docs {
		docs[i] = d.Tokens
		tokens += len(d.Tokens)
	}
	cfg := Config{K: 5, Iters: 20, Seed: 52, P: p}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(docs, ds.Corpus.Vocab.Size(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tokens)*float64(cfg.Iters)*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
}

func BenchmarkTNG_P1(b *testing.B) { benchTNG(b, 1) }
func BenchmarkTNG_PN(b *testing.B) { benchTNG(b, runtime.NumCPU()) }
