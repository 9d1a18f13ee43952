package lda

import (
	"fmt"
	"time"

	"lesm/internal/par"
)

// Parallel Gibbs machinery shared by Run and RunPhrases, for both cores.
//
// A sweep is one chunked pass over the documents on the shared runtime
// (internal/par). The global count tables nKV/nK are frozen for the
// duration of the pass; every chunk records its count changes in a private
// delta table, and sampling inside a chunk reads global + own-chunk delta.
// After the pass, deltas merge into the global tables in chunk order.
// Chunk boundaries and per-document PRNG streams depend only on
// (seed, n, sweep) — never on the worker count — so the sampled trajectory
// is bit-identical at any parallelism level. Across chunks the counts are
// one pass stale, the standard approximate-distributed-Gibbs trade
// (AD-LDA, Newman et al. 2009); within a chunk sampling remains fully
// collapsed.

// samplerChunks is the pass's chunk count for d documents over kTotal
// topics and v words — the shared coarse sampler policy (par.SamplerChunks:
// clamp(d/32, 1, 64), lowered until the O(topics x vocabulary) delta
// tables fit the cell budget; see the rationale there). internal/tng uses
// the same policy, so the two samplers' staleness/memory behavior cannot
// silently diverge.
func samplerChunks(d, kTotal, v int) int {
	return par.SamplerChunks(d, kTotal*v)
}

// delta is one chunk's private count-table diff against the sweep-start
// global tables, word-major like them (cell w*kTotal+k): a token reads
// several topics of one word, and in this layout they share one row
// instead of sitting a vocabulary apart. Reads during sampling index kv
// directly; writes go through add, which also tracks the touched cells,
// so folding a delta back into the globals costs O(cells touched) rather
// than a full O(topics x vocabulary) scan per chunk per sweep — on
// realistic vocabularies a chunk's documents touch a tiny fraction of the
// table.
type delta struct {
	kTotal  int
	kv      []int  // [v*kTotal] word-major topic-word count changes
	k       []int  // [kTotal] topic total changes
	touched []bool // [v*kTotal] whether the cell is on the dirty list
	dirty   []int  // cells w*kTotal+k with touched == true
	// ctr tallies sampling events for observability. The cores bump
	// these unconditionally (plain int adds on chunk-private state, far
	// cheaper than a branch per token); they are harvested and reset by
	// runRecorder only when a Recorder is attached, and are never read
	// by the sampling math, so they cannot perturb the trajectory.
	ctr sweepCounters
}

// newDelta allocates a zeroed delta. Its arrays come from par.PadSlice:
// the chunk writes them on every count move, and at small K·V they would
// otherwise share cache lines with a neighbouring chunk's arrays of the
// same size class. The dirty list grows by append; its writes are one per
// first touch of a cell, and only its ends can border other state.
func newDelta(kTotal, v int) delta {
	return delta{
		kTotal:  kTotal,
		kv:      par.PadSlice[int](v * kTotal),
		k:       par.PadSlice[int](kTotal),
		touched: par.PadSlice[bool](v * kTotal),
	}
}

// add applies a count change for (topic k, word w), recording the cell on
// the dirty list on first touch.
func (dl *delta) add(k, w, c int) {
	idx := w*dl.kTotal + k
	if !dl.touched[idx] {
		dl.touched[idx] = true
		dl.dirty = append(dl.dirty, idx)
	}
	dl.kv[idx] += c
	dl.k[k] += c
}

// applyTo folds the delta into the global tables and resets it for the
// next pass, visiting only the touched cells. Counts are integers, so
// merge order cannot change the result; we still merge in chunk order to
// honor the runtime's ordered-reduction contract.
func (dl *delta) applyTo(nKV []int, nK []int) {
	for _, idx := range dl.dirty {
		if c := dl.kv[idx]; c != 0 {
			nKV[idx] += c
			dl.kv[idx] = 0
		}
		dl.touched[idx] = false
	}
	dl.dirty = dl.dirty[:0]
	for k, c := range dl.k {
		nK[k] += c
		dl.k[k] = 0
	}
}

// chunk is one chunk's mutable sampler state: the reusable PRNG stream
// slot (per-document streams are values reseeded in place, so a sweep
// performs no per-document heap allocation), the count delta, the
// probability scratch and, when the MH core runs, its sampling state.
// The chunk's worker writes all of it during a pass, so it lives in a
// par.Padded slot and its arrays come from par.PadSlice: no cache line
// holds words of two chunks (TestChunkStateCacheLinePrivate).
type chunk struct {
	rng   stream
	dl    delta
	probs []float64 // [kTotal]
	// mh is the Metropolis–Hastings state; zero unless the MH core runs
	// (see enableMH / mh.go).
	mh mhChunk
}

// sweepScratch is the per-chunk state of a fit, allocated once and reused
// across all sweeps (the delta tables are O(topics x vocabulary) each,
// too big to reallocate per sweep). applyTo re-zeroes each delta as it
// folds it into the globals.
type sweepScratch struct {
	chunks []par.Padded[chunk]
	// ps, when non-nil, makes pass accumulate pass timings and delta-table
	// sizes (set by newRunRecorder; nil keeps the pass free of time
	// syscalls on the unrecorded path).
	ps *passStats

	// pass carries one chunk pass's parameters to chunkFn, the chunk
	// closure built once per fit — re-binding fields is free, so a sweep
	// allocates no closure either (TestNilRecorderSweepAllocFree).
	pass    passArgs
	chunkFn func(c, lo, hi int)
}

// docKernel samples document di with the chunk's state ch: it draws from
// the document's counter-based PRNG stream in ch.rng, records count
// changes in ch.dl, and may use ch.probs as scratch.
type docKernel func(ch *chunk, di int)

// passArgs are one chunk pass's parameters, held on the scratch so the
// prebuilt chunk closure can read them.
type passArgs struct {
	seed  int64
	sweep uint64
	visit docKernel
}

func newSweepScratch(nc, kTotal, v int) *sweepScratch {
	sc := &sweepScratch{chunks: make([]par.Padded[chunk], nc)}
	for c := range sc.chunks {
		ch := &sc.chunks[c].V
		ch.dl = newDelta(kTotal, v)
		ch.probs = par.PadSlice[float64](kTotal)
	}
	sc.chunkFn = func(c, lo, hi int) {
		ch := &sc.chunks[c].V
		for di := lo; di < hi; di++ {
			ch.rng = newStream(sc.pass.seed, uint64(di), sc.pass.sweep)
			sc.pass.visit(ch, di)
		}
	}
	return sc
}

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
	z  [][]int
	sc *sweepScratch
	rr *runRecorder
	ck *ckptState
	// mh is the MH core's alias rebuild schedule; nil for the dense core
	// and for an empty corpus.
	mh *mhRebuildSchedule
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
		z:  make([][]int, d),
		sc: newSweepScratch(samplerChunks(d, kTotal, v), kTotal, v),
	}
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
	f.rr = newRunRecorder(cfg, engine, d, tokens, f.sc, newProbe(c, f.alpha, cfg.Beta, v, f.nDK, f.nKV, f.nK))
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
	return f.pass(0, nil, func(ch *chunk, di int) {
		rng, dl := &ch.rng, &ch.dl
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
	})
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

// sweep runs one Gibbs sweep: the MH core's pre-sweep hooks (refresh the
// cached denominators, kick a due alias rebuild), the chunk pass, then the
// sweep's record and checkpoint boundary. A failed pass joins any
// in-flight rebuild before returning, so it cannot outlive the run.
func (f *fit) sweep(sweep int, kernel docKernel) error {
	var endPass func() error
	if f.mh != nil {
		for c := range f.sc.chunks {
			f.sc.chunks[c].V.mh.refreshDen()
		}
		f.mh.beginSweep(f.o, f.nKV)
		endPass = f.mh.endPass
	}
	if err := f.pass(uint64(sweep), endPass, kernel); err != nil {
		f.mh.drain()
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

// pass runs one chunked pass (initialization or a Gibbs sweep) over the
// documents, using the chunk count the scratch was sized for. visit
// samples one document (see docKernel). end, when non-nil, runs once
// after every chunk finishes but *before* the deltas merge into the
// global tables — the MH core joins its background alias rebuild there,
// while the globals the rebuild reads are still frozen; an end error
// aborts the pass without merging. On success the chunk deltas are merged
// into nKV/nK in chunk order and reset; on cancellation the global tables
// are left unchanged and the context error is returned. A pass over zero
// documents is a no-op.
func (f *fit) pass(sweep uint64, end func() error, visit docKernel) error {
	if f.d <= 0 {
		return f.o.Err()
	}
	sc := f.sc
	var start time.Time
	if sc.ps != nil {
		start = time.Now()
	}
	sc.pass = passArgs{seed: f.cfg.Seed, sweep: sweep, visit: visit}
	err := par.ForChunksN(f.o, f.d, len(sc.chunks), sc.chunkFn)
	sc.pass = passArgs{} // drop the closure references
	if err != nil {
		return err
	}
	if end != nil {
		if err := end(); err != nil {
			return err
		}
	}
	// ForChunksN clamps the chunk count to d, so trailing deltas may be
	// untouched; applying an empty delta is O(topics), harmless.
	if sc.ps != nil {
		mergeStart := time.Now()
		for c := range sc.chunks {
			dl := &sc.chunks[c].V.dl
			sc.ps.cells += int64(len(dl.dirty))
			dl.applyTo(f.nKV, f.nK)
		}
		sc.ps.merge += time.Since(mergeStart)
		sc.ps.wall += time.Since(start)
		return nil
	}
	for c := range sc.chunks {
		sc.chunks[c].V.dl.applyTo(f.nKV, f.nK)
	}
	return nil
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
