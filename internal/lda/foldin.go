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
// Fold-in has one core, a Metropolis-Hastings kernel. Its word proposal
// is the prior part α_k·φ_kw of the conditional p(k) ∝ (n_dk + α_k)·φ_kw,
// served by one Walker alias table per word; the model is immutable, so
// unlike the fitting side the tables never go stale and the proposal is
// exact. The tables are a pure function of φ and α: they are built once
// per model and cached, or adopted ready-made from a snapshot
// (UseTables).

// DefaultFoldInAlpha is the document prior fold-in consumers should reach
// for when the caller doesn't supply one. The *fitting* default (50/K) is
// calibrated for estimating topic-word counts over whole training
// documents; folded-in query documents are typically a handful of tokens,
// and a 50/K prior bounds their theta to near-uniform regardless of
// content. 0.1 keeps short-document estimates evidence-driven.
const DefaultFoldInAlpha = 0.1

// FoldInModel is the frozen topic side of fold-in: the per-topic word
// likelihoods and the document prior. Treat a model as immutable once it
// has served a FoldIn call (fold-in caches per-word alias tables derived
// from it).
type FoldInModel struct {
	// PhiLike[k][w] is the fixed p(w | topic k) each token is scored
	// against. Rows must share one length V; tokens with id >= V are
	// ignored. The rows may alias read-only memory (a mapped snapshot):
	// fold-in never writes them.
	PhiLike [][]float64
	// Alpha[k] is the Dirichlet document prior (uniform in practice, but
	// kept per-topic so a background topic's inflated prior survives).
	Alpha []float64

	// The sampler's proposals: the per-word tables over the prior part
	// α_k·φ_kw of the conditional, plus one table over α alone (the doc
	// proposal's prior arm). Set once, by the first of ensureAlias (a build: 12 bytes
	// of heap per (topic, word) cell) and UseTables (adopted storage, e.g.
	// a mapped snapshot section: no heap).
	aliasOnce sync.Once
	tab       FoldInTables
	alphaTab  *linalg.Alias
}

// FoldInTables are fold-in's word proposals: for each word w, a Walker
// alias table over the K weights α_k·φ_kw, stored word-major in flat
// arrays so a token's draw reads one contiguous row and no per-word header
// exists.
type FoldInTables struct {
	// Mass[w] is Σ_k α_k·φ_kw (the table's Total); 0 marks a word whose
	// weights are all zero, which the sampler proposes uniformly instead.
	Mass []float64
	// Prob[w·K:(w+1)·K] and Alias[w·K:(w+1)·K] are word w's columns as
	// linalg.AliasBuilder.Build fills them (see linalg.DrawColumn).
	Prob  []float64
	Alias []int32
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
	beta = foldInBeta(beta)
	phi := make([][]float64, k)
	for t := range nKV {
		v := len(nKV[t])
		vb := float64(v) * beta
		row := make([]float64, v)
		for w, c := range nKV[t] {
			row[w] = smoothed(c, nK[t], beta, vb)
		}
		phi[t] = row
	}
	return NewFoldInModel(phi, alpha)
}

// foldInBeta is the topic-word smoothing FoldInModelFromCounts applies:
// beta, or 0.01 when beta is not positive.
func foldInBeta(beta float64) float64 {
	if beta <= 0 {
		return 0.01
	}
	return beta
}

// smoothed is one cell of the smoothed topic-word distribution,
// (n_kw+β)/(n_k+Vβ) with vb = V·β — the expression Model.Phi and
// FoldInModelFromCounts share, so the two agree bit for bit.
func smoothed(nkw, nk int, beta, vb float64) float64 {
	return (float64(nkw) + beta) / (float64(nk) + vb)
}

// PhiMatchesCounts reports whether phi holds, bit for bit, the
// distribution FoldInModelFromCounts(nKV, nK, _, beta) would derive. A
// Gibbs model's own Phi always does, so a caller holding both can freeze
// phi itself (NewFoldInModel) instead of a derived copy and sample
// identically. The rows are compared on the pool, a range of topics per
// task; a shape mismatch reports false.
func PhiMatchesCounts(phi [][]float64, nKV [][]int, nK []int, beta float64) bool {
	if len(phi) != len(nKV) || len(nK) != len(nKV) {
		return false
	}
	beta = foldInBeta(beta)
	var differ atomic.Bool
	par.For(par.Opts{}, len(nKV), func(lo, hi int) {
		for t := lo; t < hi && !differ.Load(); t++ {
			if !rowMatchesCounts(phi[t], nKV[t], nK[t], beta) {
				differ.Store(true)
			}
		}
	})
	return !differ.Load()
}

// rowMatchesCounts reports whether row holds, bit for bit, the smoothed
// distribution of one topic's counts. Most counts are zero, and a zero
// count's cell is the same quotient in every column, so it is computed
// once per row.
func rowMatchesCounts(row []float64, counts []int, nk int, beta float64) bool {
	if len(row) != len(counts) {
		return false
	}
	vb := float64(len(counts)) * beta
	zero := math.Float64bits(smoothed(0, nk, beta, vb))
	for w, c := range counts {
		want := zero
		if c != 0 {
			want = math.Float64bits(smoothed(c, nk, beta, vb))
		}
		if math.Float64bits(row[w]) != want {
			return false
		}
	}
	return true
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
		if !validPrior(a) {
			return fmt.Errorf("lda: FoldInModel.Alpha[%d] = %v, need finite >= 0", k, a)
		}
	}
	return nil
}

// ensureAlias builds the per-word alias tables over α_k·φ_kw once, unless
// UseTables supplied them first. The build is O(K·V) and the result is
// cached for the model's lifetime.
func (fm *FoldInModel) ensureAlias() {
	fm.aliasOnce.Do(func() {
		k, v := fm.K(), fm.V()
		fm.tab = FoldInTables{
			Mass:  make([]float64, v),
			Prob:  make([]float64, k*v),
			Alias: make([]int32, k*v),
		}
		weights := make([]float64, k)
		var b linalg.AliasBuilder
		for w := 0; w < v; w++ {
			for t := 0; t < k; t++ {
				weights[t] = fm.Alpha[t] * fm.PhiLike[t][w]
			}
			row := b.Build(nil, weights, fm.tab.Prob[w*k:(w+1)*k], fm.tab.Alias[w*k:(w+1)*k])
			fm.tab.Mass[w] = row.Total
		}
		fm.alphaTab = linalg.NewAlias(fm.Alpha)
	})
}

// PrecomputeSparse eagerly builds the model's cached per-word alias
// tables (otherwise built by the first FoldIn call), so a long-lived
// server pays the O(K·V) build at startup instead of on its first
// request. Safe to call concurrently; a no-op once the tables exist,
// built or adopted. (The name is that of a sampling core since deleted;
// it stays because cmd/lesmbench calls it.)
func (fm *FoldInModel) PrecomputeSparse() { fm.ensureAlias() }

// Tables returns the model's word-proposal tables, building them first
// if the model has none. The result is shared with the model and must
// not be modified.
func (fm *FoldInModel) Tables() FoldInTables {
	fm.ensureAlias()
	return fm.tab
}

// UseTables adopts ready-made word-proposal tables in place of the O(K·V)
// build, keeping their storage (which may be read-only, e.g. a mapped
// snapshot). They must be what Tables returns for a model with the same
// PhiLike and Alpha; then every FoldIn draws bit for bit as with built
// tables. Their values are trusted: every Alias entry must be in [0, K)
// and every Prob in [0, 1] (store.Snapshot.Validate checks a decoded
// snapshot section). UseTables ignores tables whose lengths do not fit
// the model's K and V, and it is a no-op once the model has tables.
func (fm *FoldInModel) UseTables(t FoldInTables) {
	k, v := fm.K(), fm.V()
	if len(t.Mass) != v || len(t.Prob) != k*v || len(t.Alias) != k*v {
		return
	}
	fm.aliasOnce.Do(func() {
		fm.tab = t
		fm.alphaTab = linalg.NewAlias(fm.Alpha)
	})
}

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
	return w.run(docs)
}

// foldInWorkload is the validated state one fold-in batch shares across
// its workers; foldInScratch is the per-worker part.
type foldInWorkload struct {
	fm       *FoldInModel
	cfg      FoldInConfig
	alphaSum float64
	k, v     int
}

type foldInScratch struct {
	nDK []int
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

// run folds in the documents on the shared pool, document i keyed by
// (cfg.Seed, i, cfg.Sweeps).
func (w *foldInWorkload) run(docs [][]int) ([][]float64, error) {
	agg := newFoldInAgg(w.cfg.Rec)
	theta := make([][]float64, len(docs))
	err := par.For(w.parOpts(), len(docs), func(lo, hi int) {
		sc := w.newScratch()
		for di := lo; di < hi; di++ {
			theta[di] = w.doc(sc, docs[di], uint64(di))
		}
		agg.absorb(&sc.ctr)
	})
	if err != nil {
		return nil, err
	}
	agg.emit(len(docs), w.cfg.Sweeps)
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
	fm.ensureAlias()
	w := &foldInWorkload{fm: fm, cfg: cfg.withDefaults(), k: fm.K(), v: fm.V()}
	for _, a := range fm.Alpha {
		w.alphaSum += a
	}
	return w, nil
}

func (w *foldInWorkload) newScratch() *foldInScratch {
	return &foldInScratch{nDK: make([]int, w.k)}
}

// doc samples document index. Its tokens and the (cfg.Seed, index,
// cfg.Sweeps) triple fully determine the trajectory. Unknown token ids are
// dropped; a document without usable tokens gets the normalized prior.
func (w *foldInWorkload) doc(sc *foldInScratch, doc []int, index uint64) []float64 {
	seed, sweeps := w.cfg.Seed, w.cfg.Sweeps
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
	foldInDocMH(w.fm, toks, seed, index, sweeps, sc.nDK, w.alphaSum, &sc.ctr)
	return foldInTheta(w.fm, sc.nDK, len(toks), w.alphaSum)
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
// density from its retained build counts here instead). toks are the
// document's usable tokens; the document's topic counts are left in nDK,
// which the caller zeroes.
func foldInDocMH(fm *FoldInModel, toks []int, seed int64, di uint64, sweeps int, nDK []int, alphaSum float64, ctr *sweepCounters) {
	k := len(nDK)
	z := make([]int, len(toks))
	// Initialization pass (sweep 0): the conditional is exactly the prior
	// part α_k·φ_kw — a pure alias draw.
	rng := newStream(seed, di, 0)
	for i, w := range toks {
		var t int
		if fm.tab.Mass[w] > 0 {
			t = fm.drawWord(w, k, rng.Float64())
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
			exact := fm.tab.Mass[w] > 0
			var t int
			if exact {
				t = fm.drawWord(w, k, rng.Float64())
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

// drawWord draws a topic from word w's table over α_k·φ_kw (k topics).
func (fm *FoldInModel) drawWord(w, k int, u float64) int {
	row := w * k
	return linalg.DrawColumn(fm.tab.Prob[row:row+k], fm.tab.Alias[row:row+k], u)
}

// foldInTheta is the smoothed normalization of a document's topic counts.
func foldInTheta(fm *FoldInModel, nDK []int, nToks int, alphaSum float64) []float64 {
	out := make([]float64, len(nDK))
	denom := float64(nToks) + alphaSum
	for t := range nDK {
		out[t] = (float64(nDK[t]) + fm.Alpha[t]) / denom
	}
	return out
}
