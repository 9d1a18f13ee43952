package kert

import (
	"math"
	"strings"
	"testing"

	"lesm/internal/core"
	"lesm/internal/lda"
	"lesm/internal/synth"
	"lesm/internal/textkit"
)

// miniSetup builds a tiny two-topic corpus where topic 0 contains the
// recurring phrase {support, vector, machines} and topic 1 the phrase
// {query, processing}.
func miniSetup() ([][]int, []Topic, *textkit.Vocabulary) {
	v := textkit.NewVocabulary()
	w := func(s string) int { return v.Add(s) }
	sup, vec, mac := w("support"), w("vector"), w("machines")
	que, pro := w("query"), w("processing")
	cls, dbs := w("classification"), w("databases")
	var docs [][]int
	for i := 0; i < 12; i++ {
		docs = append(docs, []int{sup, vec, mac, cls})
	}
	for i := 0; i < 12; i++ {
		docs = append(docs, []int{que, pro, dbs})
	}
	phi0 := make([]float64, v.Size())
	phi1 := make([]float64, v.Size())
	for _, id := range []int{sup, vec, mac, cls} {
		phi0[id] = 0.25
	}
	for _, id := range []int{que, pro, dbs} {
		phi1[id] = 1.0 / 3
	}
	topics := []Topic{{Phi: phi0, Rho: 0.5}, {Phi: phi1, Rho: 0.5}}
	return docs, topics, v
}

func TestMineFindsPatternsAndAttributesTopically(t *testing.T) {
	docs, topics, vocab := miniSetup()
	res := Mine(docs, topics, Config{MinSupport: 5, MaxLen: 3})
	// {support, vector, machines} must be found with support 12 and
	// assigned to topic 0.
	sup, _ := vocab.ID("support")
	vec, _ := vocab.ID("vector")
	mac, _ := vocab.ID("machines")
	pi, ok := res.index[setKey([]int{sup, vec, mac})]
	if !ok {
		t.Fatal("trigram pattern not mined")
	}
	p := res.Patterns[pi]
	if p.Count != 12 {
		t.Fatalf("count = %d", p.Count)
	}
	if p.Topical[0] < 11.9 || p.Topical[1] > 0.1 {
		t.Fatalf("trigram topical = %v", p.Topical)
	}
}

func TestTopicalFrequencySumsToTotal(t *testing.T) {
	docs, topics, _ := miniSetup()
	res := Mine(docs, topics, Config{MinSupport: 5, MaxLen: 3})
	for _, p := range res.Patterns {
		s := 0.0
		for _, f := range p.Topical {
			s += f
		}
		if math.Abs(s-float64(p.Count)) > 1e-9 {
			t.Fatalf("pattern %v: topical sums to %v, count %d", p.Words, s, p.Count)
		}
	}
}

func TestCompletenessFiltersSubPhrases(t *testing.T) {
	docs, topics, vocab := miniSetup()
	res := Mine(docs, topics, Config{MinSupport: 5, MaxLen: 3, Gamma: 0.5})
	ranked := res.Rank(0, FullKERT, vocab, 10)
	for _, p := range ranked {
		// {support, vector} always extends to the trigram, so it must be
		// filtered; same for any pair subset.
		if p.Display == "support vector" || p.Display == "vector machines" {
			t.Fatalf("incomplete phrase %q survived the gamma filter", p.Display)
		}
	}
	// Without completeness the pair comes back.
	noCom := Variant{UsePopularity: true, UsePurity: true, UseConcordance: true}
	ranked = res.Rank(0, noCom, vocab, 50)
	seenPair := false
	for _, p := range ranked {
		if strings.Count(p.Display, " ") == 1 && strings.Contains(p.Display, "vector") {
			seenPair = true
		}
	}
	if !seenPair {
		t.Fatal("KERT-com should retain incomplete sub-phrases")
	}
}

func TestDisplayOrderFollowsSurfaceOrder(t *testing.T) {
	docs, topics, vocab := miniSetup()
	res := Mine(docs, topics, Config{MinSupport: 5, MaxLen: 3})
	sup, _ := vocab.ID("support")
	vec, _ := vocab.ID("vector")
	mac, _ := vocab.ID("machines")
	pi, ok := res.index[setKey([]int{sup, vec, mac})]
	if !ok {
		t.Fatal("trigram pattern not mined")
	}
	if got := renderWords(res.Patterns[pi].Display, vocab); got != "support vector machines" {
		t.Fatalf("display = %q", got)
	}
}

func TestVariantsChangeRanking(t *testing.T) {
	ds := synth.DBLPTitles(synth.TextConfig{NumDocs: 1500, Seed: 21})
	m := lda.Must(lda.Run(corpusDocs(ds), ds.Corpus.Vocab.Size(),
		lda.Config{K: 6, Iters: 80, Seed: 22, Background: true}))
	topics := TopicsFromLDA(m)
	res := Mine(corpusDocs(ds), topics, Config{MinSupport: 5, MaxLen: 4, Background: true})
	rankAll := func(v Variant) [][]core.RankedPhrase {
		out := make([][]core.RankedPhrase, res.ContentTopics())
		for t := range out {
			out[t] = res.Rank(t, v, ds.Corpus.Vocab, 10)
		}
		return out
	}
	full := rankAll(FullKERT)
	pur := rankAll(Variant{UsePopularity: true, UseConcordance: true, UseCompleteness: true})
	if len(full) != 6 {
		t.Fatalf("topics = %d", len(full))
	}
	diff := false
	for t2 := range full {
		if len(full[t2]) == 0 {
			t.Fatalf("topic %d empty ranking", t2)
		}
		for i := range full[t2] {
			if i < len(pur[t2]) && full[t2][i].Display != pur[t2][i].Display {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("removing purity changed nothing — variant plumbing broken")
	}
}

func TestKERTPrefersPhrasesOverBaseline(t *testing.T) {
	ds := synth.DBLPTitles(synth.TextConfig{NumDocs: 1500, Seed: 23})
	m := lda.Must(lda.Run(corpusDocs(ds), ds.Corpus.Vocab.Size(),
		lda.Config{K: 6, Iters: 80, Seed: 24, Background: true}))
	topics := TopicsFromLDA(m)
	res := Mine(corpusDocs(ds), topics, Config{MinSupport: 5, MaxLen: 4, Background: true})
	kertMulti, baseMulti := 0, 0
	for t2 := 0; t2 < 6; t2++ {
		for i, p := range res.Rank(t2, FullKERT, ds.Corpus.Vocab, 10) {
			if i < 10 && strings.Contains(p.Display, " ") {
				kertMulti++
			}
		}
		for i, p := range res.KpRel(t2, ds.Corpus.Vocab, 10) {
			if i < 10 && strings.Contains(p.Display, " ") {
				baseMulti++
			}
		}
	}
	if kertMulti <= baseMulti {
		t.Fatalf("KERT multiword count %d <= kpRel %d; expected phrase preference", kertMulti, baseMulti)
	}
}

func corpusDocs(ds *synth.Dataset) [][]int {
	docs := make([][]int, len(ds.Corpus.Docs))
	for i, d := range ds.Corpus.Docs {
		docs[i] = d.Tokens
	}
	return docs
}
