package lda

// PhraseDoc is a document partitioned into a bag of phrases (each phrase a
// word-id sequence), the output form of ToPMine's segmentation step.
type PhraseDoc [][]int

// RunPhrases fits the phrase-constrained LDA of Section 4.4.3: each phrase
// instance receives a single topic shared by all of its words, sampled from
//
//	p(z=k) ∝ (n_dk + α) · Π_i (n_k,w_i + β + c_i) / (n_k + Vβ + i)
//
// where c_i counts earlier occurrences of word w_i inside the same phrase.
// Sampling one topic per multi-word phrase is also why PhraseLDA often runs
// faster than token-level LDA (Table 4.5).
//
// Like Run, sweeps execute as chunked document passes on the shared
// parallel runtime with per-document (Seed, doc, sweep) PRNG streams and
// integer delta merging, so the model is bit-identical at any
// Config.P. The MH core applies to single-word phrases — for those the
// conditional is exactly token LDA's, so they go through the alias
// proposals at O(1) per phrase; multi-word phrases keep the dense
// O(K·len) product (the proposal split does not factor across a product
// of word likelihoods) while reading counts through the same chunk state.
// Since segmented corpora are dominated by unigram phrases, the MH win
// carries over. RunPhrases returns an error when the config or a token id
// is invalid, or when Config.Ctx is cancelled.
func RunPhrases(docs []PhraseDoc, v int, cfg Config) (*Model, error) {
	f, err := newFit("phraselda", phraseDocs(docs), v, cfg)
	if err != nil {
		return nil, err
	}
	kernel := f.densePhraseKernel(docs)
	if f.core == SamplerMH {
		kernel = f.mhPhraseKernel(docs)
	}
	if err := f.run(kernel); err != nil {
		return nil, err
	}

	// Expand phrase assignments to token assignments for the summary.
	flat := make([][]int, f.d)
	zTok := make([][]int, f.d)
	for di, doc := range docs {
		for pi, phrase := range doc {
			for _, w := range phrase {
				flat[di] = append(flat[di], w)
				zTok[di] = append(zTok[di], f.z[di][pi])
			}
		}
	}
	m := f.summarize(flat, zTok)
	m.PhraseZ = f.z
	return m, nil
}

// samplePhrase draws a topic for one (already-removed) phrase from the
// dense product conditional, reading effective counts (global + own-chunk
// delta) by direct indexing — this is the innermost loop of both phrase
// cores, shared so the dense/MH A/B can never desynchronize on the
// phrase math (the in-phrase duplicate-word correction c and the
// position-shifted denominator). Consumes exactly one PRNG step.
func samplePhrase(phrase []int, nDK, nK []int, nKV []int, dl *delta,
	alpha []float64, beta, vb float64, probs []float64, rng *stream) int {
	kTotal := len(alpha)
	total := 0.0
	for kk := 0; kk < kTotal; kk++ {
		p := float64(nDK[kk]) + alpha[kk]
		for i, w := range phrase {
			// c counts earlier in-phrase occurrences of w.
			c := 0
			for j := 0; j < i; j++ {
				if phrase[j] == w {
					c++
				}
			}
			cell := w*kTotal + kk
			p *= (float64(nKV[cell]+dl.kv.Cells[cell]) + beta + float64(c)) /
				(float64(nK[kk]+dl.k[kk]) + vb + float64(i))
		}
		probs[kk] = p
		total += p
	}
	r := rng.Float64() * total
	for kk := 0; kk < kTotal; kk++ {
		r -= probs[kk]
		if r <= 0 {
			return kk
		}
	}
	return kTotal - 1
}

// densePhraseKernel samples every phrase of a document from the dense
// product conditional over really-removed counts.
func (f *fit) densePhraseKernel(docs []PhraseDoc) docKernel {
	zP, nDK, nKV, nK, alpha, beta := f.z, f.nDK, f.nKV, f.nK, f.alpha, f.cfg.Beta
	vb := float64(f.v) * beta
	return func(ch *chunk, rng *stream, di int) {
		dl, probs := &ch.dl, ch.probs
		doc := docs[di]
		for pi, phrase := range doc {
			kOld := zP[di][pi]
			k := kOld
			nDK[di][k] -= len(phrase)
			for _, w := range phrase {
				dl.add(k, w, -1)
			}
			k = samplePhrase(phrase, nDK[di], nK, nKV, dl, alpha, beta, vb, probs, rng)
			if k != kOld {
				dl.ctr.changed += int64(len(phrase))
			}
			zP[di][pi] = k
			nDK[di][k] += len(phrase)
			for _, w := range phrase {
				dl.add(k, w, 1)
			}
		}
	}
}
