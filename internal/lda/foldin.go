package lda

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lesm/internal/linalg"
	"lesm/internal/obs"
	"lesm/internal/par"
)

// Fold-in inference: estimate document-topic distributions for unseen
// documents against a *fixed* fitted model (Griffiths & Steyvers' query
// sampling). The topic-word statistics never change during fold-in, so
// documents are fully independent of each other — the sampler
// parallelizes over documents with no shared mutable state, and every
// document's trajectory is a pure function of (Seed, doc index). This is
// the inference mode the serving daemon (internal/serve) runs per request.
//
// The MH core's word proposal is the prior part α_k·φ_kw of the
// conditional p(k) ∝ (n_dk + α_k)·φ_kw, served by one Walker alias table
// per word, built lazily once per model and cached (the model is
// immutable, so unlike the fitting side the tables never go stale and the
// proposal is exact). FoldInConfig.Sampler picks the core; auto resolves
// it per model exactly as fitting does.

// DefaultFoldInAlpha is the document prior fold-in consumers should reach
// for when the caller doesn't supply one. The *fitting* default (50/K) is
// calibrated for estimating topic-word counts over whole training
// documents; folded-in query documents are typically a handful of tokens,
// and a 50/K prior bounds their theta to near-uniform regardless of
// content. 0.1 keeps short-document estimates evidence-driven.
const DefaultFoldInAlpha = 0.1

// FoldInModel is the frozen topic side of fold-in: the per-topic word
// likelihoods and the document prior. Treat a model as immutable once it
// has served a FoldIn call (the MH core caches per-word alias tables
// derived from it).
type FoldInModel struct {
	// PhiLike[k][w] is the fixed p(w | topic k) each token is scored
	// against. Rows must share one length V; tokens with id >= V are
	// ignored.
	PhiLike [][]float64
	// Alpha[k] is the Dirichlet document prior (uniform in practice, but
	// kept per-topic so a background topic's inflated prior survives).
	Alpha []float64

	// Lazily-built MH machinery: per-word alias tables over the prior part
	// α_k·φ_kw of the conditional, plus their masses, plus one table over
	// α alone (the doc proposal's prior arm). ~2 extra words of memory per
	// (topic, word) cell, paid only when the MH core is first used.
	aliasOnce sync.Once
	qMass     []float64
	qTab      []linalg.Alias
	alphaTab  *linalg.Alias
}

// NewFoldInModel freezes explicit topic-word distributions (e.g. a STROD
// model's Phi) with a uniform symmetric prior alpha (default 50/K).
func NewFoldInModel(phi [][]float64, alpha float64) *FoldInModel {
	k := len(phi)
	if alpha <= 0 {
		alpha = 50 / float64(max(k, 1))
	}
	av := make([]float64, k)
	for i := range av {
		av[i] = alpha
	}
	return &FoldInModel{PhiLike: phi, Alpha: av}
}

// FoldInModelFromCounts freezes a Gibbs model's sufficient statistics:
// PhiLike[k][w] = (nKV[k][w]+beta) / (nK[k]+V*beta), the exact smoothed
// distribution the fitting sampler would have used on its next sweep.
func FoldInModelFromCounts(nKV [][]int, nK []int, alpha, beta float64) *FoldInModel {
	k := len(nKV)
	if beta <= 0 {
		beta = 0.01
	}
	phi := make([][]float64, k)
	for t := range nKV {
		v := len(nKV[t])
		vb := float64(v) * beta
		row := make([]float64, v)
		for w, c := range nKV[t] {
			row[w] = (float64(c) + beta) / (float64(nK[t]) + vb)
		}
		phi[t] = row
	}
	return NewFoldInModel(phi, alpha)
}

// K returns the number of topics.
func (fm *FoldInModel) K() int { return len(fm.PhiLike) }

// V returns the vocabulary size (0 for an empty model).
func (fm *FoldInModel) V() int {
	if len(fm.PhiLike) == 0 {
		return 0
	}
	return len(fm.PhiLike[0])
}

// validate rejects malformed models up front instead of panicking deep in
// the per-document sampler.
func (fm *FoldInModel) validate() error {
	if fm == nil || fm.K() == 0 {
		return errors.New("lda: fold-in against an empty model")
	}
	v := fm.V()
	for k, row := range fm.PhiLike {
		if len(row) != v {
			return fmt.Errorf("lda: FoldInModel.PhiLike row %d has length %d, want %d (rows must share one vocabulary)", k, len(row), v)
		}
	}
	if len(fm.Alpha) != fm.K() {
		return fmt.Errorf("lda: FoldInModel has %d topics but %d Alpha entries", fm.K(), len(fm.Alpha))
	}
	for k, a := range fm.Alpha {
		if a < 0 || math.IsNaN(a) {
			return fmt.Errorf("lda: FoldInModel.Alpha[%d] = %v, need >= 0", k, a)
		}
	}
	return nil
}

// ensureAlias builds the per-word alias tables over α_k·φ_kw once. The
// build is O(K·V) and the result is cached for the model's lifetime —
// serving pays it on the first MH /infer, not per request.
func (fm *FoldInModel) ensureAlias() {
	fm.aliasOnce.Do(func() {
		k, v := fm.K(), fm.V()
		fm.qMass = make([]float64, v)
		fm.qTab = make([]linalg.Alias, v)
		prob := make([]float64, k*v)
		alias := make([]int32, k*v)
		weights := make([]float64, k)
		var b linalg.AliasBuilder
		for w := 0; w < v; w++ {
			for t := 0; t < k; t++ {
				weights[t] = fm.Alpha[t] * fm.PhiLike[t][w]
			}
			fm.qTab[w] = b.Build(nil, weights, prob[w*k:(w+1)*k], alias[w*k:(w+1)*k])
			fm.qMass[w] = fm.qTab[w].Total
		}
		fm.alphaTab = linalg.NewAlias(fm.Alpha)
	})
}

// PrecomputeSparse eagerly builds the MH core's cached per-word alias
// tables (normally built lazily on the first MH FoldIn call), so a
// long-lived server pays the O(K·V) build at startup instead of on its
// first request. Safe to call concurrently; a no-op after the first build.
// (The name predates the MH core; it keeps it for existing callers.)
func (fm *FoldInModel) PrecomputeSparse() { fm.ensureAlias() }

// FoldInConfig parameterizes FoldIn.
type FoldInConfig struct {
	// Sweeps is the number of Gibbs sweeps per document (default 30 —
	// fold-in mixes fast because the topic side is frozen).
	Sweeps int
	// Seed keys the per-document PRNG streams: document i of the batch
	// samples from the (Seed, i, sweep) SplitMix64 stream, so results are
	// a pure function of (Seed, i, tokens) at any parallelism level.
	Seed int64
	// P bounds the worker count (0 = GOMAXPROCS).
	P int
	// Sampler selects the sampling core. SamplerAuto resolves per workload
	// exactly as in fitting (dense below the K/V thresholds, MH above; see
	// Sampler.ResolveFor). Both cores sample the same per-token conditional
	// — the fold-in model is frozen, so the MH core's proposal tables are
	// exact and acceptance only reshapes the trajectory, never the
	// stationary distribution.
	Sampler Sampler
	// Ctx cancels the batch between document chunks (nil = background).
	Ctx context.Context
	// Rec, when non-nil, receives one aggregate obs.SweepStats per
	// fold-in batch (Engine "foldin": token visits, changed fraction,
	// MH accept rates, batch wall time) plus pool telemetry. Recording
	// is observational only — thetas are bit-identical with Rec set or
	// nil — and must be safe for concurrent use (a serving process
	// records many batches at once).
	Rec obs.Recorder
}

func (c FoldInConfig) withDefaults() FoldInConfig {
	if c.Sweeps <= 0 {
		c.Sweeps = 30
	}
	return c
}

// FoldIn estimates theta[d][k] for each document against the frozen model.
// Unknown token ids (>= V) are skipped; a document with no usable token
// gets the normalized prior. Because the model is fixed, each document is
// sampled independently on the shared pool — bit-identical output at any
// cfg.P, and identical for a given (Seed, doc index, tokens) regardless of
// what else is in the batch.
func FoldIn(fm *FoldInModel, docs [][]int, cfg FoldInConfig) ([][]float64, error) {
	w, err := newFoldInWorkload(fm, cfg)
	if err != nil {
		return nil, err
	}
	return w.run(len(docs), func(i int) ([]int, int64, uint64, int) {
		return docs[i], w.cfg.Seed, uint64(i), w.cfg.Sweeps
	})
}

// BatchDoc is one document of a heterogeneous fold-in batch. Its sampling
// trajectory is keyed by its own (Seed, Index) pair — not by its position
// in the batch — so a coalescing server can merge documents from
// independent requests into one sweep batch without changing any
// request's result.
type BatchDoc struct {
	// Tokens are the document's vocabulary ids; ids outside [0, V) are
	// skipped exactly as in FoldIn.
	Tokens []int
	// Seed and Index key the document's PRNG streams: the document draws
	// from the (Seed, Index, sweep) streams, making its theta identical to
	// document Index of a FoldIn batch run with FoldInConfig.Seed = Seed.
	Seed  int64
	Index uint64
	// Sweeps overrides cfg.Sweeps for this document when > 0, so requests
	// with different sweep counts can share a batch.
	Sweeps int
}

// FoldInBatch is FoldIn over documents that do not share one (seed,
// position) keying — the request-coalescing entry point the serving layer
// uses to merge concurrent /infer requests into a single batch on the
// shared pool. theta[i] is bit-identical to what FoldIn would return for
// docs[i].Tokens at index docs[i].Index under seed docs[i].Seed, at any
// cfg.P and regardless of batch composition.
func FoldInBatch(fm *FoldInModel, docs []BatchDoc, cfg FoldInConfig) ([][]float64, error) {
	w, err := newFoldInWorkload(fm, cfg)
	if err != nil {
		return nil, err
	}
	return w.run(len(docs), func(i int) ([]int, int64, uint64, int) {
		d := docs[i]
		if d.Sweeps > 0 {
			return d.Tokens, d.Seed, d.Index, d.Sweeps
		}
		return d.Tokens, d.Seed, d.Index, w.cfg.Sweeps
	})
}

// foldInWorkload is the validated, core-resolved state one fold-in batch
// shares across its workers; foldInScratch is the per-worker part.
type foldInWorkload struct {
	fm       *FoldInModel
	cfg      FoldInConfig
	core     Sampler
	alphaSum float64
	k, v     int
}

type foldInScratch struct {
	nDK  []int
	vals []float64
	// ctr tallies this worker chunk's sampling events; absorbed into
	// the batch aggregate (and only read at all) when a Recorder is
	// attached to the batch.
	ctr sweepCounters
}

// parOpts is the batch's runtime policy, with pool telemetry attached
// when a Recorder is.
func (w *foldInWorkload) parOpts() par.Opts {
	o := par.Opts{P: w.cfg.P, Ctx: w.cfg.Ctx}
	if w.cfg.Rec != nil {
		o.Obs = w.cfg.Rec
	}
	return o
}

// run folds in n documents on the shared pool — the one batch driver
// behind FoldIn and FoldInBatch. doc(i) names document i's tokens, its
// (seed, index) stream key and its sweep count.
func (w *foldInWorkload) run(n int, doc func(i int) (tokens []int, seed int64, index uint64, sweeps int)) ([][]float64, error) {
	agg := newFoldInAgg(w.cfg.Rec)
	theta := make([][]float64, n)
	err := par.For(w.parOpts(), n, func(lo, hi int) {
		sc := w.newScratch()
		for di := lo; di < hi; di++ {
			toks, seed, index, sweeps := doc(di)
			theta[di] = w.doc(sc, toks, seed, index, sweeps)
		}
		agg.absorb(&sc.ctr)
	})
	if err != nil {
		return nil, err
	}
	agg.emit(n, w.cfg.Sweeps)
	return theta, nil
}

// foldInAgg accumulates a batch's counters across workers and emits the
// single Engine-"foldin" record. nil (no Recorder) no-ops everywhere.
type foldInAgg struct {
	rec   obs.Recorder
	start time.Time

	tokens, changed                    atomic.Int64
	wordProp, wordAcc, docProp, docAcc atomic.Int64
}

func newFoldInAgg(rec obs.Recorder) *foldInAgg {
	if rec == nil {
		return nil
	}
	return &foldInAgg{rec: rec, start: time.Now()}
}

func (a *foldInAgg) absorb(c *sweepCounters) {
	if a == nil {
		return
	}
	a.tokens.Add(c.tokens)
	a.changed.Add(c.changed)
	a.wordProp.Add(c.wordProp)
	a.wordAcc.Add(c.wordAcc)
	a.docProp.Add(c.docProp)
	a.docAcc.Add(c.docAcc)
}

// emit publishes the batch record: Tokens counts token visits across
// all sweeps including each document's init pass, SweepTime is the
// batch wall time.
func (a *foldInAgg) emit(docs, sweeps int) {
	if a == nil {
		return
	}
	a.rec.RecordSweep(obs.SweepStats{
		Engine: "foldin", Sweep: sweeps, Sweeps: sweeps, Docs: docs,
		Tokens: a.tokens.Load(), Changed: a.changed.Load(),
		WordProposals: a.wordProp.Load(), WordAccepts: a.wordAcc.Load(),
		DocProposals: a.docProp.Load(), DocAccepts: a.docAcc.Load(),
		SweepTime:     time.Since(a.start),
		LogLikelihood: math.NaN(),
	})
}

func newFoldInWorkload(fm *FoldInModel, cfg FoldInConfig) (*foldInWorkload, error) {
	if err := fm.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Sampler.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	w := &foldInWorkload{
		fm: fm, cfg: cfg, k: fm.K(), v: fm.V(),
		core: cfg.Sampler.ResolveFor(fm.K(), fm.V()),
	}
	if w.core == SamplerMH {
		fm.ensureAlias()
	}
	for _, a := range fm.Alpha {
		w.alphaSum += a
	}
	return w, nil
}

func (w *foldInWorkload) newScratch() *foldInScratch {
	return &foldInScratch{nDK: make([]int, w.k), vals: make([]float64, w.k)}
}

// doc samples one document through the workload's core. The (seed, index,
// sweeps) triple fully determines the trajectory. Unknown token ids are
// dropped; a document without usable tokens gets the normalized prior.
func (w *foldInWorkload) doc(sc *foldInScratch, doc []int, seed int64, index uint64, sweeps int) []float64 {
	for t := range sc.nDK {
		sc.nDK[t] = 0
	}
	toks := make([]int, 0, len(doc))
	for _, tok := range doc {
		if tok >= 0 && tok < w.v {
			toks = append(toks, tok)
		}
	}
	sc.ctr.tokens += int64(len(toks)) * int64(sweeps+1)
	if w.core == SamplerMH {
		foldInDocMH(w.fm, toks, seed, index, sweeps, sc.nDK, w.alphaSum, &sc.ctr)
	} else {
		foldInDoc(w.fm, toks, seed, index, sweeps, sc.nDK, sc.vals, &sc.ctr)
	}
	return foldInTheta(w.fm, sc.nDK, len(toks), w.alphaSum)
}

// foldInDoc runs the dense per-document sampler over the usable tokens
// toks, leaving the document's topic counts in nDK (zeroed by the
// caller). probs is scratch of length K.
func foldInDoc(fm *FoldInModel, toks []int, seed int64, di uint64, sweeps int, nDK []int, probs []float64, ctr *sweepCounters) {
	k := len(nDK)
	z := make([]int, len(toks))
	// Initialization pass (sweep 0): sample from alpha * phi.
	rng := newStream(seed, di, 0)
	for i, w := range toks {
		total := 0.0
		for t := 0; t < k; t++ {
			p := fm.Alpha[t] * fm.PhiLike[t][w]
			probs[t] = p
			total += p
		}
		z[i] = drawIndex(&rng, probs, total)
		nDK[z[i]]++
	}

	for sweep := 1; sweep <= sweeps; sweep++ {
		rng := newStream(seed, di, uint64(sweep))
		for i, w := range toks {
			told := z[i]
			nDK[told]--
			total := 0.0
			for t := 0; t < k; t++ {
				p := (float64(nDK[t]) + fm.Alpha[t]) * fm.PhiLike[t][w]
				probs[t] = p
				total += p
			}
			z[i] = drawIndex(&rng, probs, total)
			if z[i] != told {
				ctr.changed++
			}
			nDK[z[i]]++
		}
	}
}

// foldInDocMH runs the per-document sampler through the MH kernel: per
// token one word proposal from the model's cached α·φ alias tables and one
// doc proposal over the document's own assignment slots + α, each accepted
// against the current conditional p(k) ∝ (n_dk + α_k)·φ_kw. Because the
// model is frozen, the word proposal is *exact* — q_w(k) ∝ α_k·φ_kw — so
// φ cancels from its acceptance ratio:
//
//	π = [(n_dt + α_t)·α_k] / [(n_dk + α_k)·α_t]
//
// leaving pure O(1) arithmetic per step (fitting-side MH loads a stale
// density from its retained build counts here instead). Same stationary
// conditional as the dense core, different trajectory. Arguments as for
// foldInDoc.
func foldInDocMH(fm *FoldInModel, toks []int, seed int64, di uint64, sweeps int, nDK []int, alphaSum float64, ctr *sweepCounters) {
	k := len(nDK)
	z := make([]int, len(toks))
	// Initialization pass (sweep 0): the conditional is exactly the prior
	// part α_k·φ_kw — a pure alias draw.
	rng := newStream(seed, di, 0)
	for i, w := range toks {
		var t int
		if fm.qMass[w] > 0 {
			t = fm.qTab[w].Draw(rng.Float64())
		} else {
			t = rng.Intn(k) // every topic scores zero: uniform fallback
		}
		z[i] = t
		nDK[t]++
	}

	slotMass := float64(len(toks))
	for sweep := 1; sweep <= sweeps; sweep++ {
		rng := newStream(seed, di, uint64(sweep))
		for i, w := range toks {
			kCur := z[i]
			kOld := kCur
			nDK[kCur]--

			// Word proposal. Exact (q ∝ α·φ), so φ cancels; a word whose
			// prior mass is all zero falls back to a uniform proposal, whose
			// acceptance keeps the full φ ratio.
			exact := fm.qMass[w] > 0
			var t int
			if exact {
				t = fm.qTab[w].Draw(rng.Float64())
			} else {
				t = rng.Intn(k)
			}
			if t != kCur {
				ctr.wordProp++
				var num, den float64
				if exact {
					num = (float64(nDK[t]) + fm.Alpha[t]) * fm.Alpha[kCur]
					den = (float64(nDK[kCur]) + fm.Alpha[kCur]) * fm.Alpha[t]
				} else {
					num = (float64(nDK[t]) + fm.Alpha[t]) * fm.PhiLike[t][w]
					den = (float64(nDK[kCur]) + fm.Alpha[kCur]) * fm.PhiLike[kCur][w]
				}
				if rng.Float64()*den < num {
					ctr.wordAcc++
					kCur = t
					z[i] = kCur
				}
			}

			// Doc proposal over the document's slots + α. Slot i holds the
			// incumbent, so for t ≠ kCur both the forward and the reverse
			// (destination-state) density indicators vanish — see
			// mhChunk.sampleToken for the detailed-balance argument.
			u := rng.Float64() * (slotMass + alphaSum)
			if u < slotMass {
				t = z[int(u)]
			} else {
				t = fm.alphaTab.Draw(rng.Float64())
			}
			if t != kCur {
				ctr.docProp++
				// q_d(y) ∝ n_dy + α_y is exactly the doc part of the
				// target, so the acceptance collapses to the word-
				// likelihood ratio φ_tw/φ_kw.
				if rng.Float64()*fm.PhiLike[kCur][w] < fm.PhiLike[t][w] {
					ctr.docAcc++
					kCur = t
					z[i] = kCur
				}
			}

			if kCur != kOld {
				ctr.changed++
			}
			nDK[kCur]++
		}
	}

}

// foldInTheta is the smoothed normalization both cores share.
func foldInTheta(fm *FoldInModel, nDK []int, nToks int, alphaSum float64) []float64 {
	out := make([]float64, len(nDK))
	denom := float64(nToks) + alphaSum
	for t := range nDK {
		out[t] = (float64(nDK[t]) + fm.Alpha[t]) / denom
	}
	return out
}

// drawIndex samples an index proportionally to probs (sum = total). A
// non-positive total (every topic scored zero) falls back to a uniform
// draw, consuming exactly one stream step either way so trajectories stay
// aligned.
func drawIndex(rng *stream, probs []float64, total float64) int {
	if total <= 0 {
		return rng.Intn(len(probs))
	}
	r := rng.Float64() * total
	for t, p := range probs {
		r -= p
		if r <= 0 {
			return t
		}
	}
	return len(probs) - 1
}
