package lda

import (
	"context"
	"fmt"
	"math"

	"lesm/internal/obs"
	"lesm/internal/par"
)

// Sampler selects the Gibbs sampling core. Both cores honor the
// determinism contract (bit-identical models at any Config.P), but they
// consume the per-document PRNG streams differently, so they are two
// *different* deterministic trajectories with the same stationary
// behaviour.
type Sampler string

const (
	// SamplerAuto resolves per workload: SamplerDense below the topic/
	// vocabulary threshold where the MH core's proposal bookkeeping costs
	// more than the O(K) scan it avoids, SamplerMH above it. See
	// Sampler.ResolveFor.
	SamplerAuto Sampler = ""
	// SamplerDense is the classic O(K)-per-token collapsed sampler.
	SamplerDense Sampler = "dense"
	// SamplerMH is the Metropolis–Hastings core: alias proposals from
	// *stale* tables rebuilt every Config.AliasRefresh sweeps, with the
	// accept/reject step restoring exactness — O(1) proposals per token
	// and an amortized O(K·V) rebuild. See mh.go.
	SamplerMH Sampler = "mh"

	// removedSparse names the bucket+alias core that SamplerMH replaced;
	// Validate rejects it with a pointer to the replacement.
	removedSparse Sampler = "sparse"
)

// SamplerAuto's workload thresholds: below either bound the dense core's
// O(K) scan is cheap enough that the MH core's proposal bookkeeping is
// pure overhead (BENCH_pr6.json measured MH at 0.52x dense tokens/s on the
// K=5+background, V=10 workload, 9.6x dense at K=200, V=1000).
const (
	autoMinTopics = 32
	autoMinVocab  = 64
)

// ResolveFor resolves SamplerAuto for a workload of kTotal topics (content
// topics plus the background topic when present) over a v-word vocabulary:
// the dense core below the small-K/small-V threshold, the MH core above
// it. Explicit sampler names resolve to themselves. Run and RunPhrases
// resolve through this and record the choice on Model.Sampler (cmd/lesm
// logs it).
func (s Sampler) ResolveFor(kTotal, v int) Sampler {
	if s != SamplerAuto {
		return s
	}
	if kTotal < autoMinTopics || v < autoMinVocab {
		return SamplerDense
	}
	return SamplerMH
}

// Validate rejects names that select no sampling core. It is the one
// check every consumer that accepts a sampler name shares (Config,
// FoldInConfig, the checkpoint decoder), so a core only has to be
// registered here.
func (s Sampler) Validate() error {
	switch s {
	case SamplerAuto, SamplerDense, SamplerMH:
		return nil
	case removedSparse:
		return fmt.Errorf("lda: the %q sampling core was removed; use %q (alias proposals, what auto picks for large workloads) or %q", s, SamplerMH, SamplerDense)
	}
	return fmt.Errorf("lda: unknown sampler %q (want %q, %q, or empty for auto)", s, SamplerMH, SamplerDense)
}

// Config parameterizes a Gibbs run.
type Config struct {
	// K is the number of content topics.
	K int
	// Alpha and Beta are the Dirichlet hyperparameters (defaults 50/K and
	// 0.01, the conventional settings).
	Alpha, Beta float64
	// Iters is the number of Gibbs sweeps (default 200).
	Iters int
	// Seed drives the sampler's randomness. Every document draws from its
	// own counter-based PRNG stream keyed by (Seed, doc, sweep), so the
	// trajectory is a pure function of Seed at any parallelism level.
	Seed int64
	// Background adds one extra shared topic with prior Alpha*BGWeight that
	// soaks up topic-independent words.
	Background bool
	// BGWeight inflates the background topic's document prior (default 3).
	BGWeight float64
	// P bounds the worker count of the parallel sweeps (0 = GOMAXPROCS).
	// Models are bit-identical at any P.
	P int
	// Sampler selects the sampling core: SamplerMH (Metropolis–Hastings
	// alias proposals with amortized rebuilds) or SamplerDense (classic
	// O(K) per token). SamplerAuto picks per workload — see
	// Sampler.ResolveFor. Both cores are deterministic at any P; each
	// follows its own trajectory.
	Sampler Sampler
	// AliasRefresh is the MH core's alias-table rebuild cadence in sweeps
	// (0 = DefaultAliasRefresh; negative is a validation error): the
	// word-proposal tables rebuild in place from the global counts every
	// AliasRefresh sweeps, at the end of a sweep's pass. Larger values
	// amortize the O(K·V) rebuild further at the price of staler
	// proposals (lower acceptance, never bias). The dense core ignores it.
	AliasRefresh int
	// Ctx cancels sampling between work chunks (nil = background); a
	// cancelled run returns the context error and no model.
	Ctx context.Context
	// Rec, when non-nil, receives one obs.SweepStats per sweep (and
	// pool telemetry via par.Opts.Obs). Recording is observational
	// only: models are bit-identical with Rec set or nil at any P, and
	// the nil path is allocation-free.
	Rec obs.Recorder
	// ProbeEvery enables the read-only convergence probe: every
	// ProbeEvery-th sweep (and the last) computes the corpus
	// log-likelihood under the current point estimates and attaches it
	// to that sweep's record. 0 disables; requires Rec. The probe only
	// reads merged counts, so it cannot perturb the trajectory.
	ProbeEvery int
	// CheckpointEvery delivers a checkpoint to CheckpointFunc at every
	// CheckpointEvery-th sweep boundary. 0 means no periodic checkpoints
	// (a Stop request still produces a final one when CheckpointFunc is
	// set); negative, or nonzero without CheckpointFunc, is a validation
	// error.
	CheckpointEvery int
	// CheckpointFunc, when non-nil, receives self-contained checkpoints
	// (deep copies — they may be persisted or inspected from other
	// goroutines) at sweep boundaries: every CheckpointEvery sweeps and
	// once more when Stop requests a halt. It runs on the fitting
	// goroutine between sweeps, so it cannot observe torn state; a
	// returned error aborts the fit with that error. Checkpointing is
	// observational: models are bit-identical with or without it.
	CheckpointFunc func(*Checkpoint) error
	// Stop, when non-nil, is polled at every sweep boundary; returning
	// true halts the fit with ErrStopped after delivering a final
	// checkpoint to CheckpointFunc (when set). Unlike Ctx cancellation —
	// which can abort mid-sweep and therefore cannot leave resumable
	// state — Stop always halts at a clean boundary.
	Stop func() bool
	// Resume, when non-nil, restores a fit from a checkpoint instead of
	// initializing: counts and alias state are rebuilt from the
	// checkpoint and sweeps continue at Sweep+1, reproducing the
	// uninterrupted run's remaining trajectory bit-identically at any P.
	// The checkpoint's fingerprint must match this run's config and
	// corpus exactly; a mismatch is an error.
	Resume *Checkpoint
}

func (c Config) parOpts() par.Opts {
	o := par.Opts{P: c.P, Ctx: c.Ctx}
	if c.Rec != nil {
		o.Obs = c.Rec
	}
	return o
}

// validate rejects configurations that would otherwise panic deep inside
// the sampler (K <= 0 divides by zero in withDefaults, an empty vocabulary
// indexes out of range, negative priors produce negative probabilities,
// infinite ones NaN distributions or an out-of-range MH draw). Called on
// the raw config, before defaulting fills zero fields.
func (c Config) validate(v int) error {
	if c.K <= 0 {
		return fmt.Errorf("lda: Config.K = %d, need at least 1 topic", c.K)
	}
	if v <= 0 {
		return fmt.Errorf("lda: vocabulary size %d, need at least 1", v)
	}
	if !validPrior(c.Alpha) {
		return fmt.Errorf("lda: Config.Alpha = %v, need finite >= 0 (0 = default 50/K)", c.Alpha)
	}
	if !validPrior(c.Beta) {
		return fmt.Errorf("lda: Config.Beta = %v, need finite >= 0 (0 = default 0.01)", c.Beta)
	}
	if c.Iters < 0 {
		return fmt.Errorf("lda: Config.Iters = %d, need >= 0 (0 = default 200)", c.Iters)
	}
	if !validPrior(c.BGWeight) {
		return fmt.Errorf("lda: Config.BGWeight = %v, need finite >= 0 (0 = default 3)", c.BGWeight)
	}
	if err := c.Sampler.Validate(); err != nil {
		return err
	}
	if c.AliasRefresh < 0 {
		return fmt.Errorf("lda: Config.AliasRefresh = %d, need >= 0 (0 = default %d)", c.AliasRefresh, DefaultAliasRefresh)
	}
	if c.ProbeEvery < 0 {
		return fmt.Errorf("lda: Config.ProbeEvery = %d, need >= 0 (0 = no probe)", c.ProbeEvery)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("lda: Config.CheckpointEvery = %d, need >= 0 (0 = stop-triggered checkpoints only)", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 && c.CheckpointFunc == nil {
		return fmt.Errorf("lda: Config.CheckpointEvery = %d without Config.CheckpointFunc", c.CheckpointEvery)
	}
	return nil
}

// validPrior reports whether x is a usable prior: finite and >= 0. NaN
// compares false against everything, so "x < 0" alone would wave a NaN
// prior through into every per-token probability.
func validPrior(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 50 / float64(c.K)
	}
	if c.Beta == 0 {
		c.Beta = 0.01
	}
	if c.Iters == 0 {
		c.Iters = 200
	}
	if c.BGWeight == 0 {
		c.BGWeight = 3
	}
	if c.AliasRefresh == 0 {
		c.AliasRefresh = DefaultAliasRefresh
	}
	return c
}

// Model is the posterior summary of a Gibbs run. If the run used a
// background topic it is the last row of Phi (index K).
type Model struct {
	K, V int
	// Phi[k][v] is the topic-word distribution (including the background
	// topic as row K when present).
	Phi [][]float64
	// Theta[d][k] is the document-topic distribution.
	Theta [][]float64
	// Rho[k] is the corpus-wide fraction of tokens assigned to topic k.
	Rho []float64
	// Z[d][i] is the final topic assignment of token i in document d.
	Z [][]int
	// PhraseZ[d][p] is the per-phrase topic assignment when the model was
	// fit with RunPhrases; nil otherwise.
	PhraseZ [][]int
	// Background reports whether row K of Phi is a background topic.
	Background bool
	// NKV[k][v] and NK[k] are the final topic-word and topic-total token
	// counts — the sufficient statistics fold-in inference (FoldIn) and
	// incremental refitting need. Phi is their smoothed normalization:
	// Phi[k][v] = (NKV[k][v]+Beta) / (NK[k]+V*Beta).
	NKV [][]int
	NK  []int
	// Alpha and Beta echo the fit's effective hyperparameters so a
	// persisted model can be folded into with the same smoothing.
	Alpha, Beta float64
	// Sampler is the core the fit actually ran — the resolved value of
	// Config.Sampler (SamplerAuto resolves per workload; see
	// Sampler.ResolveFor).
	Sampler Sampler
	// AliasRebuilds counts the word-proposal alias-table builds the fit
	// performed: 1 + ⌊(Iters−1)/AliasRefresh⌋ for the MH core (amortized),
	// 0 for dense and for an empty corpus.
	AliasRebuilds int
}

// Run fits LDA to id-encoded documents over a vocabulary of size V.
//
// Sweeps execute as chunked passes over the documents on the shared
// parallel runtime: every document samples from its own (Seed, doc, sweep)
// PRNG stream against the sweep-start counts plus its chunk's running
// delta, and the workers' accumulated deltas merge afterwards (see
// gibbs.go).
// The fitted model is therefore bit-identical at any Config.P. Run returns
// an error when the config or a token id is invalid, or when Config.Ctx is
// cancelled.
func Run(docs [][]int, v int, cfg Config) (*Model, error) {
	f, err := newFit("lda", tokenDocs(docs), v, cfg)
	if err != nil {
		return nil, err
	}
	kernel := f.denseTokenKernel(docs)
	if f.core == SamplerMH {
		kernel = f.mhTokenKernel(docs)
	}
	if err := f.run(kernel); err != nil {
		return nil, err
	}
	return f.summarize(docs, f.z), nil
}

// denseTokenKernel is the classic collapsed sampler: every token scores
// all kTotal topics (O(K) per token) against global + own-chunk delta
// counts.
func (f *fit) denseTokenKernel(docs [][]int) docKernel {
	z, nDK, nKV, nK, alpha := f.z, f.nDK, f.nKV, f.nK, f.alpha
	kTotal, beta := f.kTotal, f.cfg.Beta
	vb := float64(f.v) * beta
	return func(ch *chunk, rng *stream, di int) {
		dl, probs := &ch.dl, ch.probs
		doc := docs[di]
		for i, w := range doc {
			kOld := z[di][i]
			k := kOld
			nDK[di][k]--
			dl.add(k, w, -1)
			// Word-major tables: the word's counts over all topics are
			// one contiguous row in each.
			row, drow := nKV[w*kTotal:(w+1)*kTotal], dl.kv.Cells[w*kTotal:(w+1)*kTotal]
			total := 0.0
			for kk := 0; kk < kTotal; kk++ {
				p := (float64(nDK[di][kk]) + alpha[kk]) *
					(float64(row[kk]+drow[kk]) + beta) /
					(float64(nK[kk]+dl.k[kk]) + vb)
				probs[kk] = p
				total += p
			}
			r := rng.Float64() * total
			k = kTotal - 1
			for kk := 0; kk < kTotal; kk++ {
				r -= probs[kk]
				if r <= 0 {
					k = kk
					break
				}
			}
			if k != kOld {
				dl.ctr.changed++
			}
			z[di][i] = k
			nDK[di][k]++
			dl.add(k, w, 1)
		}
	}
}

// summarize builds the model from the fit's final counts, transposing the
// word-major table into Model.NKV; docs are the token documents (phrase
// fits pass their flattening) and z their per-token assignments.
func (f *fit) summarize(docs [][]int, z [][]int) *Model {
	cfg, v, kTotal, nK := f.cfg, f.v, f.kTotal, f.nK
	nKV := topicMajor(f.nKV, kTotal, v)
	m := &Model{K: cfg.K, V: v, Background: cfg.Background, Z: z,
		NKV: nKV, NK: nK, Alpha: cfg.Alpha, Beta: cfg.Beta, Sampler: f.core}
	if f.mh != nil {
		m.AliasRebuilds = f.mh.Rebuilds
	}
	vb := float64(v) * cfg.Beta
	m.Phi = make([][]float64, kTotal)
	for k := 0; k < kTotal; k++ {
		m.Phi[k] = make([]float64, v)
		for w := 0; w < v; w++ {
			m.Phi[k][w] = smoothed(nKV[k][w], nK[k], cfg.Beta, vb)
		}
	}
	var asum float64
	for _, a := range f.alpha {
		asum += a
	}
	m.Theta = make([][]float64, len(docs))
	for di, doc := range docs {
		m.Theta[di] = make([]float64, kTotal)
		denom := float64(len(doc))
		for k, a := range f.alpha {
			m.Theta[di][k] = (float64(f.nDK[di][k]) + a) / (denom + asum)
		}
	}
	m.Rho = make([]float64, kTotal)
	total := 0
	for _, n := range nK {
		total += n
	}
	for k, n := range nK {
		if total > 0 {
			m.Rho[k] = float64(n) / float64(total)
		} else {
			m.Rho[k] = 1 / float64(kTotal)
		}
	}
	return m
}

// TopWords returns the k highest-probability word ids of topic t.
func (m *Model) TopWords(t, k int) []int {
	type wp struct {
		w int
		p float64
	}
	ws := make([]wp, m.V)
	for w := 0; w < m.V; w++ {
		ws[w] = wp{w, m.Phi[t][w]}
	}
	// partial selection sort: k is small
	if k > m.V {
		k = m.V
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < m.V; j++ {
			if ws[j].p > ws[best].p {
				best = j
			}
		}
		ws[i], ws[best] = ws[best], ws[i]
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ws[i].w
	}
	return out
}
