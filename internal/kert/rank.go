package kert

import (
	"math"
	"sort"

	"lesm/internal/core"
	"lesm/internal/textkit"
)

// Variant selects which criteria participate in the ranking function,
// reproducing the ablations of Section 4.4.1.
type Variant struct {
	// UsePopularity multiplies by kappa_pop (off = the KERT-pop ablation).
	UsePopularity bool
	// UsePurity includes the purity term with weight 1-omega (off = KERT-pur,
	// i.e. omega forced to 1).
	UsePurity bool
	// UseConcordance includes the concordance term with weight omega
	// (off = KERT-con, i.e. omega forced to 0).
	UseConcordance bool
	// UseCompleteness applies the gamma filter (off = KERT-com).
	UseCompleteness bool
}

// FullKERT enables all four criteria.
var FullKERT = Variant{true, true, true, true}

// scores holds a pattern's criterion values for one topic.
type scores struct {
	pop, pur, con, com float64
}

func (r *Result) criterion(pi, t int) scores {
	p := r.Patterns[pi]
	var s scores
	ft := p.Topical[t]
	s.pop = ft / r.Nt[t]
	// Purity: contrast against the worst mixing topic (Eq. 4.5).
	worst := math.Inf(-1)
	for u := range r.topics {
		if u == t {
			continue
		}
		mix := (ft + p.Topical[u]) / r.Njoint[t][u]
		if mix > worst {
			worst = mix
		}
	}
	if ft > 0 && worst > 0 {
		s.pur = math.Log(ft/r.Nt[t]) - math.Log(worst)
	} else if ft > 0 {
		s.pur = 0
	} else {
		s.pur = math.Inf(-1)
	}
	// Concordance (Eq. 4.1), on document-frequency probabilities.
	n := float64(r.NumDocs)
	s.con = math.Log(float64(p.Count) / n)
	for _, w := range p.Words {
		s.con -= math.Log(float64(r.wordCount[w]) / n)
	}
	// Completeness (Eq. 4.2), precomputed over one-word extensions.
	s.com = r.com[pi]
	return s
}

// computeCompleteness fills r.com: for every pattern P,
// 1 - max_{P' = P + one word, P' frequent} f(P')/f(P).
func (r *Result) computeCompleteness() {
	r.com = make([]float64, len(r.Patterns))
	maxExt := make([]float64, len(r.Patterns))
	sub := make([]int, 0, r.cfg.MaxLen)
	for qi := range r.Patterns {
		q := r.Patterns[qi]
		if len(q.Words) < 2 {
			continue
		}
		for drop := range q.Words {
			sub = sub[:0]
			for i, w := range q.Words {
				if i != drop {
					sub = append(sub, w)
				}
			}
			if pi, ok := r.index[setKey(sub)]; ok {
				if f := float64(q.Count) / float64(r.Patterns[pi].Count); f > maxExt[pi] {
					maxExt[pi] = f
				}
			}
		}
	}
	for pi := range r.com {
		r.com[pi] = 1 - maxExt[pi]
	}
}

// Quality computes the topical phrase quality of pattern pi in topic t under
// the given variant (Eq. 4.6).
func (r *Result) Quality(pi, t int, v Variant) float64 {
	s := r.criterion(pi, t)
	if v.UseCompleteness && s.com <= r.cfg.Gamma {
		return 0
	}
	inner := 0.0
	switch {
	case v.UsePurity && v.UseConcordance:
		inner = (1-r.cfg.Omega)*s.pur + r.cfg.Omega*s.con
	case v.UsePurity:
		inner = s.pur
	case v.UseConcordance:
		inner = s.con
	default:
		inner = 1
	}
	if v.UsePopularity {
		return s.pop * inner
	}
	return inner
}

// ContentTopics returns the number of rankable topics (background excluded).
func (r *Result) ContentTopics() int {
	k := len(r.topics)
	if r.cfg.Background {
		k--
	}
	return k
}

// Rank returns the topN patterns of topic t under the variant, rendered with
// the vocabulary.
func (r *Result) Rank(t int, v Variant, vocab *textkit.Vocabulary, topN int) []core.RankedPhrase {
	type cand struct {
		pi    int
		score float64
	}
	var cands []cand
	for pi := range r.Patterns {
		if r.Patterns[pi].Topical[t] < float64(r.cfg.MinSupport) {
			continue
		}
		sc := r.Quality(pi, t, v)
		if sc <= 0 || math.IsInf(sc, 0) || math.IsNaN(sc) {
			continue
		}
		cands = append(cands, cand{pi, sc})
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return setKey(r.Patterns[cands[a].pi].Words) < setKey(r.Patterns[cands[b].pi].Words)
	})
	if topN > 0 && len(cands) > topN {
		cands = cands[:topN]
	}
	out := make([]core.RankedPhrase, len(cands))
	for i, c := range cands {
		p := r.Patterns[c.pi]
		out[i] = core.RankedPhrase{
			Words:   p.Display,
			Display: renderWords(p.Display, vocab),
			Score:   c.score,
		}
	}
	return out
}

func renderWords(words []int, vocab *textkit.Vocabulary) string {
	s := ""
	for i, w := range words {
		if i > 0 {
			s += " "
		}
		s += vocab.Word(w)
	}
	return s
}

// KpRel ranks patterns by the relevance-only baseline of Zhao et al.
// (Section 4.4.1): per-word topical relevance combined multiplicatively over
// the pattern's constituents, which induces the unigram bias the paper
// reports.
func (r *Result) KpRel(t int, vocab *textkit.Vocabulary, topN int) []core.RankedPhrase {
	return r.kpBaseline(t, vocab, topN, false)
}

// KpRelInt ranks with the kpRelInt* variant: kpRel multiplied by an
// interestingness factor reimplemented as the pattern's relative corpus
// frequency (the paper's footnote 3 substitution for re-tweets).
func (r *Result) KpRelInt(t int, vocab *textkit.Vocabulary, topN int) []core.RankedPhrase {
	return r.kpBaseline(t, vocab, topN, true)
}

func (r *Result) kpBaseline(t int, vocab *textkit.Vocabulary, topN int, interest bool) []core.RankedPhrase {
	phi := r.topics[t].Phi
	// Global word distribution for the contrast term.
	global := make([]float64, len(phi))
	total := 0.0
	for w, c := range r.wordCount {
		if w < len(global) {
			global[w] = float64(c)
			total += float64(c)
		}
	}
	for w := range global {
		global[w] /= math.Max(total, 1)
	}
	rel := func(w int) float64 {
		if w >= len(phi) || phi[w] <= 0 || global[w] <= 0 {
			return 1e-12
		}
		v := phi[w] * math.Log(phi[w]/global[w])
		if v < 1e-12 {
			return 1e-12
		}
		return v
	}
	type cand struct {
		pi    int
		score float64
	}
	var cands []cand
	for pi := range r.Patterns {
		p := r.Patterns[pi]
		if p.Topical[t] < float64(r.cfg.MinSupport) {
			continue
		}
		sc := 1.0
		for _, w := range p.Words {
			sc *= rel(w)
		}
		if interest {
			sc *= float64(p.Count) / float64(r.NumDocs)
		}
		cands = append(cands, cand{pi, sc})
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return setKey(r.Patterns[cands[a].pi].Words) < setKey(r.Patterns[cands[b].pi].Words)
	})
	if topN > 0 && len(cands) > topN {
		cands = cands[:topN]
	}
	out := make([]core.RankedPhrase, len(cands))
	for i, c := range cands {
		p := r.Patterns[c.pi]
		out[i] = core.RankedPhrase{Words: p.Display, Display: renderWords(p.Display, vocab), Score: c.score}
	}
	return out
}
