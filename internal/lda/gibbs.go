package lda

import (
	"fmt"

	"lesm/internal/par"
)

// Parallel Gibbs machinery shared by Run and RunPhrases, for both cores.
//
// A sweep is one chunked pass over the documents on the shared pass
// driver (par.Sweeper). The global count tables nKV/nK are frozen for the
// duration of the pass; every chunk records its count changes in its
// worker's live delta table, and sampling inside a chunk reads global +
// own-chunk delta. At the chunk's end the worker folds the live delta into
// its pass accumulator and resets it; after the pass, the workers'
// accumulators merge into the global tables in parallel, one stripe of
// words per worker. Chunk boundaries and per-document PRNG streams depend
// only on (seed, n, sweep) — never on the worker count — and the counts
// are integers, so the sampled trajectory is bit-identical at any
// parallelism level. Across chunks the counts are one pass stale, the
// standard approximate-distributed-Gibbs trade (AD-LDA, Newman et al.
// 2009); within a chunk sampling remains fully collapsed. internal/tng
// runs on the same driver.

// delta is one chunk's live count-table diff against the sweep-start
// global tables. kv is word-major like them (cell w*kTotal+k): a token
// reads several topics of one word, and in this layout they share one row
// instead of sitting a vocabulary apart. Reads during sampling index
// kv.Cells directly; writes go through add, whose dirty tracking makes
// folding the delta into its worker's accum cost O(cells touched) — on
// realistic vocabularies a chunk's documents touch a tiny fraction of the
// table.
type delta struct {
	kTotal int
	kv     par.Delta // [v*kTotal] word-major topic-word count changes
	k      []int     // [kTotal] topic total changes
	// ctr tallies sampling events for observability. The cores bump
	// these unconditionally (plain int adds on worker-private state, far
	// cheaper than a branch per token); they are harvested and reset by
	// runRecorder only when a Recorder is attached, and are never read by
	// the sampling math, so they cannot perturb the trajectory.
	ctr sweepCounters
}

// newDelta allocates a zeroed delta. Its arrays come from par.PadSlice:
// the worker writes them on every count move, and at small K·V they would
// otherwise share cache lines with a neighbouring worker's arrays of the
// same size class.
func newDelta(kTotal, v int) delta {
	return delta{kTotal: kTotal, kv: par.NewDelta(v * kTotal), k: par.PadSlice[int](kTotal)}
}

// accum is a worker's pass accumulator: the kv changes of the chunks it
// ran, listed by stripe (a stripe of word-major cells is a range of
// words), and their topic totals.
type accum struct {
	kv par.Acc
	k  []int
}

// add applies a count change for (topic k, word w).
func (dl *delta) add(k, w, c int) {
	dl.kv.Add(w*dl.kTotal+k, c)
	dl.k[k] += c
}

// foldInto adds the chunk's changes into the pass accumulator acc and
// resets them.
func (dl *delta) foldInto(acc *accum) {
	dl.kv.FoldInto(&acc.kv)
	for k, c := range dl.k {
		acc.k[k] += c
		dl.k[k] = 0
	}
}

// mergeStripe adds stripe s of the accumulator into the global tables
// (the topic totals with stripe 0), empties it and returns the number of
// kv changes it visited; with discard set it only empties.
func (a *accum) mergeStripe(nKV, nK []int, s int, discard bool) int {
	if discard {
		nKV = nil
	}
	n := a.kv.MergeStripe(nKV, s)
	if s == 0 {
		for k, c := range a.k {
			if !discard {
				nK[k] += c
			}
			a.k[k] = 0
		}
	}
	return n
}

// chunk is one worker slot's mutable sampler state besides its PRNG
// stream, which the pass driver keeps next to it in the slot's par.Slot:
// the live count delta of the running chunk, the pass accumulator, the
// probability scratch and, when the MH core runs, its sampling state. The
// worker writes all of it during a pass, so its arrays come from
// par.PadSlice: no cache line holds words of two workers
// (TestChunkStateCacheLinePrivate).
type chunk struct {
	dl    delta
	acc   accum     // the chunks this slot ran in the pass, folded
	probs []float64 // [kTotal]
	// mh is the Metropolis–Hastings state; zero unless the MH core runs
	// (see startMH / mh.go).
	mh mhChunk
}

// docKernel samples document di with the chunk's state ch: it draws from
// the document's counter-based PRNG stream rng, records count changes in
// ch.dl, and may use ch.probs as scratch.
type docKernel func(ch *chunk, rng *stream, di int)

// corpus is the document form a fit samples, seen as assignment slots: a
// token of a Run document, or a phrase of a RunPhrases document (all of
// its words share one topic). The shared fit setup — validation, the init
// pass, resume, the fingerprint and the convergence probe — reads the
// documents only through it; the per-document kernels index the concrete
// documents directly.
type corpus interface {
	numDocs() int
	slots(di int) int
	words(di, slot int) []int
	// validate rejects word ids outside [0, v) up front: the count tables
	// are sized by v, and an out-of-range id would panic mid-sweep.
	validate(v int) error
	// hash is the corpus digest bound into checkpoint fingerprints.
	hash() uint64
}

// tokenDocs are Run's documents (one slot per token); phraseDocs are
// RunPhrases' (one slot per phrase).
type (
	tokenDocs  [][]int
	phraseDocs []PhraseDoc
)

func (c tokenDocs) numDocs() int              { return len(c) }
func (c tokenDocs) slots(di int) int          { return len(c[di]) }
func (c tokenDocs) words(di, slot int) []int  { return c[di][slot : slot+1] }
func (c tokenDocs) hash() uint64              { return hashTokenDocs(c) }
func (c phraseDocs) numDocs() int             { return len(c) }
func (c phraseDocs) slots(di int) int         { return len(c[di]) }
func (c phraseDocs) words(di, slot int) []int { return c[di][slot] }
func (c phraseDocs) hash() uint64             { return hashPhraseDocs(c) }

func (c tokenDocs) validate(v int) error {
	for di, doc := range c {
		for i, w := range doc {
			if w < 0 || w >= v {
				return fmt.Errorf("lda: doc %d token %d: word id %d outside vocabulary [0, %d)", di, i, w, v)
			}
		}
	}
	return nil
}

func (c phraseDocs) validate(v int) error {
	for di, doc := range c {
		for pi, phrase := range doc {
			for _, w := range phrase {
				if w < 0 || w >= v {
					return fmt.Errorf("lda: doc %d phrase %d: word id %d outside vocabulary [0, %d)", di, pi, w, v)
				}
			}
		}
	}
	return nil
}

// countTokens is the per-sweep token-visit total of a corpus
// (SweepStats.Tokens, Fingerprint.Tokens).
func countTokens(c corpus) int64 {
	var n int64
	for di := 0; di < c.numDocs(); di++ {
		for s := 0; s < c.slots(di); s++ {
			n += int64(len(c.words(di, s)))
		}
	}
	return n
}

// fit is the state one Gibbs run shares across its sweeps, whichever
// corpus form and core it samples. newFit does the common setup; run
// drives every sweep of every fit variant through one loop.
type fit struct {
	cfg  Config // defaulted
	o    par.Opts
	core Sampler // resolved
	// kTotal counts content topics plus the background topic; d documents
	// over a v-word vocabulary.
	kTotal, v, d int
	// start is the number of already-completed sweeps: 0 for a fresh fit,
	// the checkpoint's sweep on resume.
	start int
	alpha []float64
	nDK   [][]int
	// nKV is the word-major topic-word count table, cell w*kTotal+k (see
	// delta); summarize transposes it into Model.NKV.
	nKV []int
	nK  []int
	// z[d][s] is the topic of assignment slot s of document d.
	z [][]int
	// sw drives the chunked passes; each worker slot's state is a chunk,
	// allocated once per fit (its live delta is O(topics x vocabulary)).
	sw *par.Sweeper[chunk]
	rr *runRecorder
	ck *ckptState
	// mh is the MH core's word proposal and its rebuild schedule; nil for
	// the dense core and for an empty corpus.
	mh *mhProposal
}

// newFit validates the run, allocates the count tables, restores them
// from Config.Resume or draws the initialization pass, and attaches the
// recorder, the checkpoint protocol and (for the MH core) the alias
// proposal state. engine names the fit in records and fingerprints.
func newFit(engine string, c corpus, v int, cfg Config) (*fit, error) {
	if err := cfg.validate(v); err != nil {
		return nil, err
	}
	if err := c.validate(v); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	kTotal := cfg.K
	if cfg.Background {
		kTotal++
	}
	d := c.numDocs()
	f := &fit{
		cfg: cfg, o: cfg.parOpts(), core: cfg.Sampler.ResolveFor(kTotal, v),
		kTotal: kTotal, v: v, d: d,
		alpha: alphaVec(cfg, kTotal),
		nDK:   make([][]int, d), nKV: make([]int, v*kTotal), nK: make([]int, kTotal),
		z: make([][]int, d),
	}
	f.sw = par.NewSweeper(f.o, d, kTotal*v, cfg.Seed,
		func(stripes int) chunk {
			return chunk{dl: newDelta(kTotal, v), acc: accum{kv: par.NewAcc(v*kTotal, stripes), k: par.PadSlice[int](kTotal)},
				probs: par.PadSlice[float64](kTotal)}
		},
		func(ch *chunk) {
			ch.dl.foldInto(&ch.acc)
			ch.mh.refreshDen() // a no-op unless the MH core runs
		},
		func(ch *chunk, s int, discard bool) int { return ch.acc.mergeStripe(f.nKV, f.nK, s, discard) })
	tokens := countTokens(c)

	// The fingerprint binds checkpoints to this exact fit; computing it
	// (one corpus hash) is skipped entirely when the run neither
	// checkpoints, stops, nor resumes.
	var fp Fingerprint
	if cfg.CheckpointFunc != nil || cfg.Stop != nil || cfg.Resume != nil {
		fp = newFingerprint(engine, f.core, cfg, v, d, tokens, c.hash())
	}
	if cp := cfg.Resume; cp != nil {
		if err := cp.check(fp, kTotal, c); err != nil {
			return nil, err
		}
		restoreCounts(cp, c, kTotal, f.nDK, f.nKV, f.nK, f.z)
		f.start = cp.Sweep
	} else if err := f.initPass(c); err != nil {
		return nil, err
	}

	// The recorder attaches after the init pass so sweep 1's timings
	// cover sweep 1 only; nil (the common case) makes every endSweep a
	// no-op and keeps the passes untimed.
	f.rr = newRunRecorder(cfg, engine, d, tokens, f.sw, newProbe(c, f.alpha, cfg.Beta, v, f.nDK, f.nKV, f.nK))
	f.ck = newCkptState(cfg, fp, f.z)
	if f.core == SamplerMH && d > 0 {
		_, phrases := c.(phraseDocs)
		if err := f.startMH(phrases); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// initPass draws every slot's topic uniformly from the sweep-0 streams,
// shared by both cores so an A/B comparison starts from the same state.
func (f *fit) initPass(c corpus) error {
	kTotal, nDK, z := f.kTotal, f.nDK, f.z
	return f.sw.Pass(0, func(ch *chunk, rng *stream, di int) {
		dl := &ch.dl
		n := c.slots(di)
		nDK[di] = make([]int, kTotal)
		z[di] = make([]int, n)
		for s := 0; s < n; s++ {
			k := rng.Intn(kTotal)
			z[di][s] = k
			ws := c.words(di, s)
			nDK[di][k] += len(ws)
			for _, w := range ws {
				dl.add(k, w, 1)
			}
		}
	}, nil)
}

// run is the sweep driver every fit goes through: it resumes after the
// completed sweeps and runs kernel over all documents once per sweep.
func (f *fit) run(kernel docKernel) error {
	cfg, start := f.cfg, f.start
	for it := start; it < cfg.Iters; it++ {
		if err := f.sweep(it+1, kernel); err != nil {
			return err
		}
	}
	return nil
}

// sweep runs one Gibbs sweep: the MH core's pre-sweep hook (refresh the
// cached denominators of each slot's first chunk), the chunk pass, then
// the sweep's record and checkpoint boundary. The MH core rebuilds due
// alias tables in the pass's end hook, before the accumulators merge into
// the globals it reads.
func (f *fit) sweep(sweep int, kernel docKernel) error {
	var endPass func() error
	if f.mh != nil {
		for c := range f.sw.Slots {
			f.sw.Slots[c].V.State.mh.refreshDen()
		}
		endPass = func() error { return f.mh.endPass(f.o, f.nKV) }
	}
	if err := f.sw.Pass(uint64(sweep), kernel, endPass); err != nil {
		return err
	}
	// Diffed against the previous sweep's totals inside the recorder, so
	// the MH core's initial synchronous build lands on sweep 1's record.
	rebuilds, took := f.mh.endSweep()
	if err := f.rr.endSweep(f.o, sweep, rebuilds, took); err != nil {
		return err
	}
	return f.ck.boundary(sweep)
}

// alphaVec expands the document prior: cfg.Alpha per content topic, with
// the background slot (index cfg.K) inflated by BGWeight when present.
func alphaVec(cfg Config, kTotal int) []float64 {
	alpha := make([]float64, kTotal)
	for k := 0; k < cfg.K; k++ {
		alpha[k] = cfg.Alpha
	}
	if cfg.Background {
		alpha[cfg.K] = cfg.Alpha * cfg.BGWeight
	}
	return alpha
}

// Must unwraps a (model, error) pair from Run or RunPhrases, panicking on
// error. A run can only fail through a cancelled Config.Ctx, so callers
// that pass no context use Must to keep call sites expression-shaped.
func Must(m *Model, err error) *Model {
	if err != nil {
		panic(err)
	}
	return m
}
