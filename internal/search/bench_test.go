package search

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"lesm/internal/textkit"
)

// benchTerms is the size of the served benchmark model's term dictionary
// (cmd/lesmbench, K=200 over 4,000 generated papers).
const benchTerms = 7652

// syllableWords returns n distinct pronounceable words (2–4 consonant-vowel
// syllables), none a stopword. One-edit variants of such words are usually
// other words of the list, which gives fuzzy search a dense neighbourhood.
// It is the generator of cmd/lesmbench's tail vocabulary, which makes up
// most of the served model's dictionary.
func syllableWords(rng *rand.Rand, n int) []string {
	const cons, vows = "bcdfghjklmnprstvwz", "aeiou"
	seen := map[string]bool{}
	out := make([]string, 0, n)
	var b strings.Builder
	for len(out) < n {
		b.Reset()
		for s := 2 + rng.Intn(3); s > 0; s-- {
			b.WriteByte(cons[rng.Intn(len(cons))])
			b.WriteByte(vows[rng.Intn(len(vows))])
		}
		w := b.String()
		if seen[w] || textkit.IsStopword(w) {
			continue
		}
		seen[w] = true
		out = append(out, w)
	}
	return out
}

// typo applies one edit (substitute, delete or insert a letter) to one
// token of text that MaxDist grants at least one edit; text without such a
// token is returned unchanged. The edited token keeps at least 3 letters,
// so it is itself granted an edit and still resolves. It is the typo
// generator of cmd/lesmbench's lookup workload.
func typo(rng *rand.Rand, text string) string {
	toks := strings.Fields(text)
	var cand []int
	for i, t := range toks {
		if MaxDist(t) > 0 {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return text
	}
	ti := cand[rng.Intn(len(cand))]
	b := []byte(toks[ti])
	pos := rng.Intn(len(b))
	letter := byte('a' + rng.Intn(26))
	switch op := rng.Intn(3); {
	case op == 0 || op == 1 && len(b) <= 3:
		b[pos] = letter
	case op == 1:
		b = append(b[:pos], b[pos+1:]...)
	default:
		b = append(b[:pos], append([]byte{letter}, b[pos:]...)...)
	}
	toks[ti] = string(b)
	return strings.Join(toks, " ")
}

// benchIndex builds the bench-shaped index (benchTerms syllable words) and
// n queries drawn from its words, each given one typo when typos is set.
func benchIndex(n int, typos bool) (*Index, []string) {
	rng := rand.New(rand.NewSource(1))
	words := syllableWords(rng, benchTerms)
	qs := make([]string, n)
	for i := range qs {
		qs[i] = words[rng.Intn(len(words))]
		if typos {
			qs[i] = typo(rng, qs[i])
		}
	}
	return Build(Source{Words: words}), qs
}

// benchHits keeps the benchmarked calls' results live.
var benchHits []Hit

func benchmarkSearch(b *testing.B, typos bool) {
	ix, qs := benchIndex(1000, typos)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHits = ix.Search(qs[i%len(qs)], 10)
	}
}

// BenchmarkSearchTypo times one-typo word queries, the fuzzy walk's path.
func BenchmarkSearchTypo(b *testing.B) { benchmarkSearch(b, true) }

// BenchmarkSearchExact times exact word queries, a dictionary binary search.
func BenchmarkSearchExact(b *testing.B) { benchmarkSearch(b, false) }

// benchSource is a served-model-shaped source: benchTerms syllable words,
// a third as many two- and three-word phrases over them, and a tenth as
// many authors, nine in ten labeled with a two-word name.
func benchSource() Source {
	rng := rand.New(rand.NewSource(1))
	words := syllableWords(rng, benchTerms)
	src := Source{Words: words}
	for i := 0; i < benchTerms/3; i++ {
		p := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		if rng.Intn(2) == 0 {
			p += " " + words[rng.Intn(len(words))]
		}
		src.Phrases = append(src.Phrases, Phrase{Display: p, Path: "o/1", Score: rng.Float64()})
	}
	for id := 0; id < benchTerms/10; id++ {
		a := Author{ID: id}
		if rng.Intn(10) != 0 {
			a.Label = strings.ToUpper(words[rng.Intn(len(words))][:1]) + words[rng.Intn(len(words))][1:] + " " + words[rng.Intn(len(words))]
		}
		src.Authors = append(src.Authors, a)
	}
	return src
}

// benchIndexes keeps the benchmarked builds live.
var benchIndexes *Index

// BenchmarkBuild times one index build over benchSource, the work a
// server does per generation on top of decoding the snapshot, and reports
// the heap one built index keeps live as retained-B/entry.
func BenchmarkBuild(b *testing.B) {
	src := benchSource()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchIndexes = Build(src)
	}
	b.StopTimer()
	benchIndexes = nil
	base := liveHeap()
	benchIndexes = Build(src)
	b.ReportMetric(float64(int64(liveHeap())-int64(base))/float64(benchIndexes.Entries()), "retained-B/entry")
}

// liveHeap is the live heap after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
