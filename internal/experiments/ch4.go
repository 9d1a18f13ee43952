package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"lesm/internal/core"
	"lesm/internal/eval"
	"lesm/internal/kert"
	"lesm/internal/lda"
	"lesm/internal/synth"
	"lesm/internal/tng"
	"lesm/internal/topmine"
	"lesm/internal/turbotopics"
)

// kertSetup fits background LDA on a titles corpus and mines KERT patterns.
func kertSetup(ds *synth.Dataset, k int, seed int64) (*kert.Result, *lda.Model) {
	docs := tokensOf(ds)
	m := must(lda.Run(docs, ds.Corpus.Vocab.Size(), lda.Config{K: k, Iters: 150, Seed: seed, Background: true}))
	res := kert.Mine(docs, kert.TopicsFromLDA(m), kert.Config{MinSupport: 5, MaxLen: 4, Background: true})
	return res, m
}

// mlTopic returns the LDA topic index best aligned with the machine
// learning area under ground truth.
func mlTopic(ds *synth.Dataset, m *lda.Model) int {
	best, bestScore := 0, -1.0
	for t := 0; t < m.K; t++ {
		score := 0.0
		for _, w := range m.TopWords(t, 15) {
			aff := ds.Truth.WordAffinity(ds.Corpus.Vocab.Word(w))
			for l, v := range aff {
				if strings.Contains(ds.Truth.LeafName(l), "kernel") ||
					strings.Contains(ds.Truth.LeafName(l), "graphical") ||
					strings.Contains(ds.Truth.LeafName(l), "reinforcement") ||
					strings.Contains(ds.Truth.LeafName(l), "dimensionality") {
					score += v
				}
			}
		}
		if score > bestScore {
			best, bestScore = t, score
		}
	}
	return best
}

// kertVariants lists the Table 4.3/4.4 ranking methods.
func kertVariants() []struct {
	Name string
	V    kert.Variant
} {
	return []struct {
		Name string
		V    kert.Variant
	}{
		{"KERT-pop", kert.Variant{UsePurity: true, UseConcordance: true, UseCompleteness: true}},
		{"KERT-con", kert.Variant{UsePopularity: true, UsePurity: true, UseCompleteness: true}},
		{"KERT-com", kert.Variant{UsePopularity: true, UsePurity: true, UseConcordance: true}},
		{"KERT-pur", kert.Variant{UsePopularity: true, UseConcordance: true, UseCompleteness: true}},
		{"KERT", kert.FullKERT},
	}
}

// Table43 reproduces Table 4.3: top-10 phrases of the machine learning
// topic under each ranking variant and the kpRel baselines.
func Table43(scale float64) *Table {
	ds := synth.DBLPTitles(synth.TextConfig{NumDocs: scaled(5000, scale), Seed: 401})
	res, m := kertSetup(ds, 6, 402)
	t := &Table{ID: "table4.3", Title: "top-10 machine-learning phrases per method",
		Header: []string{"method", "top phrases"}}
	topic := mlTopic(ds, m)
	vocab := ds.Corpus.Vocab
	add := func(name string, ps []core.RankedPhrase) {
		var out []string
		for i, p := range ps {
			if i >= 10 {
				break
			}
			out = append(out, p.Display)
		}
		t.Rows = append(t.Rows, []string{name, strings.Join(out, " / ")})
	}
	add("kpRelInt*", res.KpRelInt(topic, vocab, 10))
	add("kpRel", res.KpRel(topic, vocab, 10))
	// KERT-pur here means "purity removed" (omega forced to concordance):
	// reproduce the paper's naming.
	vs := kertVariants()
	for _, v := range vs {
		add(v.Name, res.Rank(topic, v.V, vocab, 10))
	}
	t.Notes = append(t.Notes, "expected shape: baselines favor unigrams; KERT-pop worst; KERT-com leaks sub-phrases")
	return t
}

// Table44 reproduces Table 4.4: nKQM@{5,10,20} for the seven methods.
func Table44(scale float64) *Table {
	ds := synth.DBLPTitles(synth.TextConfig{NumDocs: scaled(5000, scale), Seed: 403})
	res, _ := kertSetup(ds, 6, 404)
	vocab := ds.Corpus.Vocab
	t := &Table{ID: "table4.4", Title: "nKQM@K (10 oracle judges, agreement weighted)",
		Header: []string{"method", "nKQM@5", "nKQM@10", "nKQM@20"}}
	collect := func(rank func(topic int) []core.RankedPhrase) [][]core.RankedPhrase {
		out := make([][]core.RankedPhrase, res.ContentTopics())
		for i := range out {
			out[i] = rank(i)
		}
		return out
	}
	methods := []struct {
		name   string
		topics [][]core.RankedPhrase
	}{
		{"kpRelInt*", collect(func(tp int) []core.RankedPhrase { return res.KpRelInt(tp, vocab, 30) })},
		{"kpRel", collect(func(tp int) []core.RankedPhrase { return res.KpRel(tp, vocab, 30) })},
	}
	for _, v := range kertVariants() {
		vv := v
		methods = append(methods, struct {
			name   string
			topics [][]core.RankedPhrase
		}{vv.Name, collect(func(tp int) []core.RankedPhrase { return res.Rank(tp, vv.V, vocab, 30) })})
	}
	for _, m := range methods {
		row := []string{m.name}
		for _, k := range []int{5, 10, 20} {
			row = append(row, f3(eval.NKQM(m.topics, ds.Truth, k, 10, 0.1, 405)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig42 reproduces Figure 4.2: mutual information at K on the labeled
// arXiv-style corpus for the criteria ablations.
func Fig42(scale float64) *Table {
	ds := synth.Arxiv(synth.TextConfig{NumDocs: scaled(4000, scale), Seed: 406})
	docs := tokensOf(ds)
	m := must(lda.Run(docs, ds.Corpus.Vocab.Size(), lda.Config{K: 5, Iters: 150, Seed: 407, Background: true}))
	res := kert.Mine(docs, kert.TopicsFromLDA(m), kert.Config{MinSupport: 5, MaxLen: 4, Background: true})
	vocab := ds.Corpus.Vocab
	methods := []struct {
		name string
		rank func(topic, n int) []core.RankedPhrase
	}{
		{"KERTpop+pur", func(tp, n int) []core.RankedPhrase {
			return res.Rank(tp, kert.Variant{UsePopularity: true, UsePurity: true}, vocab, n)
		}},
		{"KERT", func(tp, n int) []core.RankedPhrase { return res.Rank(tp, kert.FullKERT, vocab, n) }},
		{"KERTpop", func(tp, n int) []core.RankedPhrase {
			return res.Rank(tp, kert.Variant{UsePopularity: true}, vocab, n)
		}},
		{"kpRel", func(tp, n int) []core.RankedPhrase { return res.KpRel(tp, vocab, n) }},
		{"kpRelInt*", func(tp, n int) []core.RankedPhrase { return res.KpRelInt(tp, vocab, n) }},
		{"KERTpur", func(tp, n int) []core.RankedPhrase {
			return res.Rank(tp, kert.Variant{UsePurity: true}, vocab, n)
		}},
	}
	ks := []int{25, 50, 100, 200, 400}
	t := &Table{ID: "fig4.2", Title: "mutual information at K (labeled physics titles)"}
	t.Header = []string{"method"}
	for _, k := range ks {
		t.Header = append(t.Header, fmt.Sprintf("MI@%d", k))
	}
	for _, mth := range methods {
		row := []string{mth.name}
		for _, k := range ks {
			topics := make([][]core.RankedPhrase, res.ContentTopics())
			for tp := range topics {
				topics[tp] = mth.rank(tp, k)
			}
			row = append(row, f3(eval.MIAtK(topics, k, ds.Corpus, ds.Truth.DocLabel, 5)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "expected shape: pop+pur best, pur-only worst (Figure 4.2)")
	return t
}

// phraseMethodTopics runs the five Chapter 4 comparison methods on one
// corpus and returns per-method per-topic ranked phrases.
func phraseMethodTopics(ds *synth.Dataset, k int, seed int64) map[string][][]core.RankedPhrase {
	docs := tokensOf(ds)
	v := ds.Corpus.Vocab.Size()
	out := map[string][][]core.RankedPhrase{}

	// ToPMine.
	tm := must(topmine.Run(ds.Corpus, topmine.Config{MinSupport: 5, MaxLen: 5, Alpha: 3},
		lda.Config{K: k, Iters: 120, Seed: seed, Background: true}, topmine.RankConfig{TopN: 25}))
	out["ToPMine"] = tm.Topics

	// KERT.
	m := must(lda.Run(docs, v, lda.Config{K: k, Iters: 120, Seed: seed + 1, Background: true}))
	kr := kert.Mine(docs, kert.TopicsFromLDA(m), kert.Config{MinSupport: 5, MaxLen: 4, Background: true})
	topicsK := make([][]core.RankedPhrase, kr.ContentTopics())
	for tp := range topicsK {
		topicsK[tp] = kr.Rank(tp, kert.FullKERT, ds.Corpus.Vocab, 25)
	}
	out["KERT"] = topicsK

	// TNG.
	tm2 := must(tng.Run(docs, v, tng.Config{K: k, Iters: 100, Seed: seed + 2}))
	out["TNG"] = tm2.TopicalPhrases(ds.Corpus, 25)

	// PDLDA stand-in: TNG with a Pitman-Yor-style bigram discount (see tng docs).
	pd := must(tng.Run(docs, v, tng.Config{K: k, Iters: 100, Seed: seed + 3, Discount: 0.5}))
	out["PDLDA*"] = pd.TopicalPhrases(ds.Corpus, 25)

	// TurboTopics.
	plain := must(lda.Run(docs, v, lda.Config{K: k, Iters: 120, Seed: seed + 4}))
	out["Turbo"] = turbotopics.Run(ds.Corpus, plain, turbotopics.Config{MinCount: 5, Sig: 3}, 25)
	return out
}

// flatHierarchy wraps per-topic phrase lists as a single-level hierarchy so
// the intrusion evaluator can consume them.
func flatHierarchy(topics [][]core.RankedPhrase) *core.TopicNode {
	h := core.NewHierarchy()
	for _, ps := range topics {
		c := h.Root.AddChild()
		c.Phrases = ps
	}
	return h.Root
}

var phraseMethodOrder = []string{"PDLDA*", "ToPMine", "KERT", "TNG", "Turbo"}

// Fig43 reproduces Figure 4.3: phrase-intrusion performance of the five
// phrase mining methods on a short-text and a long-text corpus.
func Fig43(scale float64) *Table {
	t := &Table{ID: "fig4.3", Title: "phrase intrusion (avg fraction of questions correct)",
		Header: []string{"method", "titles", "abstracts"}}
	short := synth.DBLPTitles(synth.TextConfig{NumDocs: scaled(4000, scale), Seed: 408})
	long := synth.LongText(synth.DomainAbstracts, synth.TextConfig{NumDocs: scaled(1200, scale), Seed: 409})
	ms := phraseMethodTopics(short, 6, 410)
	ml := phraseMethodTopics(long, 5, 411)
	cfg := eval.IntrusionConfig{Questions: scaled(120, scale), Seed: 412}
	for _, name := range phraseMethodOrder {
		t.Rows = append(t.Rows, []string{name,
			f2(eval.PhraseIntrusion(flatHierarchy(ms[name]), short.Truth, cfg)),
			f2(eval.PhraseIntrusion(flatHierarchy(ml[name]), long.Truth, cfg)),
		})
	}
	return t
}

// rateTopics scores a method's topic lists for coherence and phrase quality
// with the ground-truth oracle (the Figure 4.4/4.5 expert panel).
func rateTopics(topics [][]core.RankedPhrase, truth *synth.Truth) (coherence, quality float64) {
	for _, ps := range topics {
		var affs [][]float64
		multi, trueMulti := 0.0, 0.0
		for i, p := range ps {
			if i >= 10 {
				break
			}
			affs = append(affs, truth.PhraseAffinity(p.Display))
			if strings.Contains(p.Display, " ") {
				multi++
				if truth.IsGeneratorPhrase(p.Display) {
					trueMulti++
				}
			}
		}
		// Coherence: mean pairwise cosine of affinity vectors.
		s, c := 0.0, 0
		for i := 0; i < len(affs); i++ {
			for j := i + 1; j < len(affs); j++ {
				s += cosineVec(affs[i], affs[j])
				c++
			}
		}
		if c > 0 {
			coherence += s / float64(c)
		}
		// Quality: well-formed multiword expressions out of all multiword
		// expressions, with a floor when no phrases were produced at all.
		if multi > 0 {
			quality += trueMulti / multi
		}
	}
	n := float64(len(topics))
	return coherence / n, quality / n
}

func cosineVec(a, b []float64) float64 {
	var ab, aa, bb float64
	for i := range a {
		ab += a[i] * b[i]
		aa += a[i] * a[i]
		bb += b[i] * b[i]
	}
	if aa == 0 || bb == 0 {
		return 0
	}
	return ab / math.Sqrt(aa*bb)
}

func zscores(vals []float64) []float64 {
	mean, n := 0.0, float64(len(vals))
	for _, v := range vals {
		mean += v
	}
	mean /= n
	va := 0.0
	for _, v := range vals {
		va += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(va / n)
	out := make([]float64, len(vals))
	for i, v := range vals {
		if sd > 0 {
			out[i] = (v - mean) / sd
		}
	}
	return out
}

func fig44or45(id, title string, scale float64, pick func(c, q float64) float64) *Table {
	t := &Table{ID: id, Title: title, Header: []string{"method", "titles (z)", "abstracts (z)"}}
	short := synth.DBLPTitles(synth.TextConfig{NumDocs: scaled(4000, scale), Seed: 413})
	long := synth.LongText(synth.DomainAbstracts, synth.TextConfig{NumDocs: scaled(1200, scale), Seed: 414})
	ms := phraseMethodTopics(short, 6, 415)
	ml := phraseMethodTopics(long, 5, 416)
	var shortVals, longVals []float64
	for _, name := range phraseMethodOrder {
		c, q := rateTopics(ms[name], short.Truth)
		shortVals = append(shortVals, pick(c, q))
		c, q = rateTopics(ml[name], long.Truth)
		longVals = append(longVals, pick(c, q))
	}
	zs, zl := zscores(shortVals), zscores(longVals)
	for i, name := range phraseMethodOrder {
		t.Rows = append(t.Rows, []string{name, f2(zs[i]), f2(zl[i])})
	}
	return t
}

// Fig44 reproduces Figure 4.4: topical coherence z-scores.
func Fig44(scale float64) *Table {
	return fig44or45("fig4.4", "topical coherence (oracle expert panel, z-scores)", scale,
		func(c, q float64) float64 { return c })
}

// Fig45 reproduces Figure 4.5: phrase quality z-scores.
func Fig45(scale float64) *Table {
	return fig44or45("fig4.5", "phrase quality (oracle expert panel, z-scores)", scale,
		func(c, q float64) float64 { return q })
}

// Fig46 reproduces Figure 4.6: the runtime split between phrase mining and
// phrase-constrained topic modeling as the corpus grows.
func Fig46(scale float64) *Table {
	t := &Table{ID: "fig4.6", Title: "runtime decomposition of ToPMine",
		Header: []string{"#docs", "phrase mining", "PhraseLDA"}}
	for _, n := range []int{500, 1000, 2000, 4000} {
		nd := scaled(n, scale)
		ds := synth.LongText(synth.DomainAbstracts, synth.TextConfig{NumDocs: nd, Seed: 417})
		start := time.Now()
		miner := topmine.MineFrequentPhrases(ds.Corpus.Docs, topmine.Config{MinSupport: 5, MaxLen: 5, Alpha: 3})
		part := miner.SegmentCorpus(ds.Corpus.Docs)
		mine := time.Since(start)
		start = time.Now()
		must(lda.RunPhrases(part, ds.Corpus.Vocab.Size(), lda.Config{K: 5, Iters: 100, Seed: 418}))
		model := time.Since(start)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", nd), ms(mine), ms(model)})
	}
	t.Notes = append(t.Notes, "expected shape: both grow linearly; topic modeling dominates mining by a wide factor")
	return t
}

// Table45 reproduces Table 4.5: end-to-end runtimes of the phrase mining
// methods across dataset sizes.
func Table45(scale float64) *Table {
	t := &Table{ID: "table4.5", Title: "method runtimes",
		Header: []string{"method", "titles-sample", "titles", "abstracts-sample", "abstracts"}}
	datasets := []*synth.Dataset{
		synth.DBLPTitles(synth.TextConfig{NumDocs: scaled(1000, scale), Seed: 419}),
		synth.DBLPTitles(synth.TextConfig{NumDocs: scaled(5000, scale), Seed: 420}),
		synth.LongText(synth.DomainAbstracts, synth.TextConfig{NumDocs: scaled(300, scale), Seed: 421}),
		synth.LongText(synth.DomainAbstracts, synth.TextConfig{NumDocs: scaled(1500, scale), Seed: 422}),
	}
	time1 := func(f func()) string {
		start := time.Now()
		f()
		return ms(time.Since(start))
	}
	methods := []struct {
		name string
		// skipLong marks methods intractable on long text, like the paper's
		// "NA=" entries ("the exponential number of patterns generated make
		// large long-text datasets intractable" — KERT on abstracts).
		skipLong bool
		run      func(ds *synth.Dataset)
	}{
		{"PDLDA*", false, func(ds *synth.Dataset) {
			must(tng.Run(tokensOf(ds), ds.Corpus.Vocab.Size(), tng.Config{K: 5, Iters: 100, Seed: 423, Discount: 0.5}))
		}},
		{"Turbo", false, func(ds *synth.Dataset) {
			m := must(lda.Run(tokensOf(ds), ds.Corpus.Vocab.Size(), lda.Config{K: 5, Iters: 100, Seed: 424}))
			turbotopics.Run(ds.Corpus, m, turbotopics.Config{}, 20)
		}},
		{"TNG", false, func(ds *synth.Dataset) {
			must(tng.Run(tokensOf(ds), ds.Corpus.Vocab.Size(), tng.Config{K: 5, Iters: 100, Seed: 425}))
		}},
		{"LDA", false, func(ds *synth.Dataset) {
			must(lda.Run(tokensOf(ds), ds.Corpus.Vocab.Size(), lda.Config{K: 5, Iters: 100, Seed: 426}))
		}},
		{"KERT", true, func(ds *synth.Dataset) {
			m := must(lda.Run(tokensOf(ds), ds.Corpus.Vocab.Size(), lda.Config{K: 5, Iters: 100, Seed: 427, Background: true}))
			kert.Mine(tokensOf(ds), kert.TopicsFromLDA(m), kert.Config{MinSupport: 5, MaxLen: 4, Background: true})
		}},
		{"ToPMine", false, func(ds *synth.Dataset) {
			must(topmine.Run(ds.Corpus, topmine.Config{MinSupport: 5, MaxLen: 5, Alpha: 3},
				lda.Config{K: 5, Iters: 100, Seed: 428}, topmine.RankConfig{}))
		}},
	}
	for _, m := range methods {
		row := []string{m.name}
		for di, ds := range datasets {
			if m.skipLong && di >= 2 {
				row = append(row, "n/a (intractable)")
				continue
			}
			d := ds
			row = append(row, time1(func() { m.run(d) }))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"PDLDA* is TNG with a Pitman-Yor-style discount on its bigram counts, a stand-in for PD-LDA without its hierarchical Pitman-Yor seating: its runtime is a lower bound on PD-LDA's",
		"Turbo is a simplified stand-in (docs/ARCHITECTURE.md, Stand-ins): its paper runtime is orders of magnitude worse; treat its row as a lower bound",
		"KERT's word-set mining blows up combinatorially on long documents, reproducing the paper's NA entries for KERT on abstracts")
	return t
}

// topMineShowcase renders a ToPMine run on one long-text domain (Tables
// 4.6-4.8): top unigrams (from PhraseLDA) and top multiword phrases.
func topMineShowcase(id, title string, domain synth.LongTextDomain, k int, scale float64, seed int64) *Table {
	ds := synth.LongText(domain, synth.TextConfig{NumDocs: scaled(1500, scale), Seed: seed})
	res := must(topmine.Run(ds.Corpus, topmine.Config{MinSupport: 5, MaxLen: 5, Alpha: 3},
		lda.Config{K: k, Iters: 150, Seed: seed + 1, Background: true}, topmine.RankConfig{TopN: 30}))
	t := &Table{ID: id, Title: title, Header: []string{"topic", "top unigrams", "top phrases"}}
	for tp := 0; tp < k; tp++ {
		var unis, phrases []string
		for _, w := range res.Model.TopWords(tp, 8) {
			unis = append(unis, ds.Corpus.Vocab.Word(w))
		}
		for _, p := range res.Topics[tp] {
			if strings.Contains(p.Display, " ") {
				phrases = append(phrases, p.Display)
			}
			if len(phrases) == 8 {
				break
			}
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("topic %d", tp+1),
			strings.Join(unis, " "), strings.Join(phrases, " / ")})
	}
	return t
}

// Table46 reproduces Table 4.6 (CS abstracts).
func Table46(scale float64) *Table {
	return topMineShowcase("table4.6", "ToPMine on CS abstracts", synth.DomainAbstracts, 5, scale, 429)
}

// Table47 reproduces Table 4.7 (AP news).
func Table47(scale float64) *Table {
	return topMineShowcase("table4.7", "ToPMine on AP-style news", synth.DomainAPNews, 5, scale, 430)
}

// Table48 reproduces Table 4.8 (Yelp reviews).
func Table48(scale float64) *Table {
	return topMineShowcase("table4.8", "ToPMine on Yelp-style reviews", synth.DomainYelp, 5, scale, 431)
}
