package lda

import (
	"math"
	"time"

	"lesm/internal/obs"
	"lesm/internal/par"
)

// Fit-side observability plumbing. The contract (test-gated):
//
//   - Recording never perturbs the trajectory: recorders see aggregated
//     copies after the sweep's deltas merged; nothing feeds back into
//     counts or PRNG streams, so models are bit-identical with a
//     Recorder attached or nil at any Config.P.
//   - The nil path is free: the cores bump chunk-local int counters
//     unconditionally (cheaper than a branch per token), but timing,
//     aggregation, probes and emission only run when a Recorder is
//     attached. runRecorder is nil-receiver-safe so the sweep driver
//     calls it unconditionally; the nil path is allocation-free
//     (TestNilRecorderSweepAllocFree).

// sweepCounters are one chunk's sampling-event tallies, embedded in its
// delta table so the hot loops reach them through a pointer they
// already hold. Proposal counters tick only in the MH core and only
// for proposals naming a topic different from the incumbent
// (self-proposals are no-ops and would inflate the accept rate).
type sweepCounters struct {
	tokens   int64 // token visits (fold-in only; fits derive it once)
	changed  int64 // visits whose topic changed
	wordProp int64
	wordAcc  int64
	docProp  int64
	docAcc   int64
}

func (c *sweepCounters) addFrom(o *sweepCounters) {
	c.tokens += o.tokens
	c.changed += o.changed
	c.wordProp += o.wordProp
	c.wordAcc += o.wordAcc
	c.docProp += o.docProp
	c.docAcc += o.docAcc
}

// runRecorder aggregates one fit's chunk counters and pass timings into
// per-sweep obs.SweepStats. A nil *runRecorder is the disabled state:
// every method no-ops, so the sweep driver calls it unconditionally.
type runRecorder struct {
	rec        obs.Recorder
	engine     string
	docs       int
	tokens     int64 // token visits per full sweep
	sweeps     int
	probeEvery int
	probe      func(par.Opts) (float64, error)
	sw         *par.Sweeper[chunk]

	// Cumulative rebuild figures already attributed to earlier sweeps;
	// endSweep diffs the running totals against these.
	rebuilds int
	rebuildT time.Duration
}

// newRunRecorder returns nil (the zero-cost disabled state) unless
// cfg.Rec is set. When enabled it arms the pass driver's Stats so
// subsequent chunk passes time themselves (nil keeps time calls out of
// unrecorded passes entirely).
func newRunRecorder(cfg Config, engine string, docs int, tokens int64, sw *par.Sweeper[chunk],
	probe func(par.Opts) (float64, error)) *runRecorder {
	if cfg.Rec == nil {
		return nil
	}
	sw.Stats = &par.PassStats{}
	return &runRecorder{
		rec: cfg.Rec, engine: engine, docs: docs, tokens: tokens,
		sweeps: cfg.Iters, probeEvery: cfg.ProbeEvery, probe: probe, sw: sw,
	}
}

// prime seeds the cumulative-rebuild baseline endSweep diffs against.
// Resumed runs call it with the trajectory's rebuild figures at the
// resume point so the first resumed sweep is attributed only its own
// rebuilds, not everything since sweep 1.
func (r *runRecorder) prime(rebuilds int, rebuildT time.Duration) {
	if r == nil {
		return
	}
	r.rebuilds, r.rebuildT = rebuilds, rebuildT
}

// endSweep harvests the chunk counters and pass timings accumulated
// since the previous call and emits one SweepStats. rebuildsTotal and
// rebuildTime are the run's *cumulative* alias-rebuild figures; the
// per-sweep attribution is the diff (so the MH core's initial build
// lands on sweep 1). The returned error is a cancelled convergence
// probe's context error.
func (r *runRecorder) endSweep(o par.Opts, sweep, rebuildsTotal int, rebuildTime time.Duration) error {
	if r == nil {
		return nil
	}
	var c sweepCounters
	for i := range r.sw.Slots {
		dl := &r.sw.Slots[i].V.State.dl
		c.addFrom(&dl.ctr)
		dl.ctr = sweepCounters{}
	}
	ps := r.sw.Stats
	s := obs.SweepStats{
		Engine: r.engine, Sweep: sweep, Sweeps: r.sweeps, Docs: r.docs,
		Tokens: r.tokens, Changed: c.changed,
		WordProposals: c.wordProp, WordAccepts: c.wordAcc,
		DocProposals: c.docProp, DocAccepts: c.docAcc,
		AliasRebuilds: rebuildsTotal - r.rebuilds,
		RebuildTime:   rebuildTime - r.rebuildT,
		Chunks:        len(r.sw.Slots),
		DeltaCells:    ps.Cells,
		MergeTime:     ps.Merge,
		SweepTime:     ps.Wall,
		LogLikelihood: math.NaN(),
	}
	r.rebuilds, r.rebuildT = rebuildsTotal, rebuildTime
	*ps = par.PassStats{}
	if r.probe != nil && r.probeEvery > 0 && (sweep%r.probeEvery == 0 || sweep == r.sweeps) {
		ll, err := r.probe(o)
		if err != nil {
			return err
		}
		s.LogLikelihood = ll
	}
	r.rec.RecordSweep(s)
	return nil
}

// newProbe builds the read-only convergence probe: the corpus
// log-likelihood under the current point estimates,
//
//	LL = Σ_d Σ_i log Σ_k θ̂_dk · φ̂_kw,  θ̂ and φ̂ the smoothed count
//	normalizations summarize would produce right now.
//
// Phrase documents score their tokens independently (the same quantity
// held-out perplexity reports). The probe only reads the count tables
// after a sweep's deltas have merged, so it can never perturb the
// trajectory; the chunk-ordered MapReduce float merge keeps the reported
// value itself deterministic at any P.
func newProbe(c corpus, alpha []float64, beta float64, v int,
	nDK [][]int, nKV []int, nK []int) func(par.Opts) (float64, error) {
	var alphaSum float64
	for _, a := range alpha {
		alphaSum += a
	}
	vb := float64(v) * beta
	kTotal := len(alpha)
	return func(o par.Opts) (float64, error) {
		acc, err := par.MapReduce(o, c.numDocs(),
			func() *float64 { return new(float64) },
			func(acc *float64, _, lo, hi int) {
				for di := lo; di < hi; di++ {
					slots := c.slots(di)
					n := 0
					for s := 0; s < slots; s++ {
						n += len(c.words(di, s))
					}
					denom := float64(n) + alphaSum
					ll := 0.0
					for s := 0; s < slots; s++ {
						for _, w := range c.words(di, s) {
							row := nKV[w*kTotal : (w+1)*kTotal]
							p := 0.0
							for k := 0; k < kTotal; k++ {
								p += (float64(nDK[di][k]) + alpha[k]) *
									(float64(row[k]) + beta) / (float64(nK[k]) + vb)
							}
							ll += math.Log(p / denom)
						}
					}
					*acc += ll
				}
			},
			func(dst, src *float64) { *dst += *src },
		)
		if err != nil {
			return 0, err
		}
		return *acc, nil
	}
}
