package lda

import (
	"time"

	"lesm/internal/linalg"
	"lesm/internal/par"
)

// The Metropolis–Hastings sampling core (Config.Sampler "mh"): LightLDA-
// style alias proposals (Yuan et al., WWW 2015; AliasLDA, Li et al., KDD
// 2014) for the collapsed conditional
//
//	p(k) ∝ (n_dk + α_k)(n_kw + β) / (n_k + Vβ).
//
// Exact alias sampling of that conditional would need per-word tables
// rebuilt every sweep (O(K·V) each time) to keep them only one pass stale.
// The MH core instead draws each token's topic from cheap proposal
// distributions and corrects with an accept/reject step, so the per-word
// alias tables can go *several* sweeps stale without biasing the
// stationary distribution. Per token it alternates two proposals, each
// O(1):
//
//   - word proposal: q_w(k) ∝ n̂_kw + β over the *stale* global topic-word
//     counts n̂ frozen at the last alias rebuild — an alias draw from the
//     word's table (mass Σ_k n̂_kw) mixed with a uniform draw for the Kβ
//     smoothing mass;
//   - doc proposal: q_d(k) ∝ n_dk + α_k over the document's *current*
//     assignments — a uniform draw over the document's token slots (the z
//     array is the alias table, no build needed) mixed with an α draw from
//     a static table.
//
// Each proposal t is accepted over the incumbent k with the standard MH
// probability min(1, [p(t)·q(k)] / [p(k)·q(t)]) where p uses the *current*
// counts (global + own-chunk delta, exactly what the dense core samples
// from) and q the proposal's own distribution — the stale tables appear
// only inside q, so detailed balance holds against the current conditional
// and the chain's stationary distribution is the exact collapsed Gibbs
// conditional no matter how stale the tables are (staleness only lowers
// the acceptance rate). See TestMHKernelMatchesExactConditional for the
// chi-square check against deliberately stale tables.
//
// Alias tables rebuild every Config.AliasRefresh sweeps on the shared pool,
// in place, at the pass boundary: after the sweep's chunks finish and
// before the workers' accumulators merge, so the build reads the
// sweep-start globals
// (frozen for the duration of the pass) and the next sweep samples from
// the new tables. A fit therefore performs 1 + ⌊(Iters−1)/AliasRefresh⌋
// builds (Model.AliasRebuilds) instead of one per sweep.
//
// The proposal also keeps a word-major copy of the counts its tables were
// built from, filled in the same row scan as the build. The acceptance
// ratio's proposal density n̂_kw + β is then one load from that copy, and
// the same copy is the source table a checkpoint carries. The price is
// V·K retained ints.
//
// Determinism: chunk boundaries, per-document (Seed, doc, sweep) streams
// and the rebuild schedule are all P-independent, so MH models are
// bit-identical at any Config.P — the extra proposal/acceptance draws are
// consumed from the same per-document stream, making MH a second
// deterministic trajectory next to dense.

// DefaultAliasRefresh is the default MH alias-table rebuild cadence in
// sweeps (Config.AliasRefresh = 0). Eight sweeps keeps the amortized
// rebuild cost under an eighth of a per-sweep rebuild's while the
// acceptance step absorbs the added staleness.
const DefaultAliasRefresh = 8

// mhProposal is the MH core's word-proposal state and its rebuild
// schedule: one AliasSet over the global topic-word counts, the
// word-major counts it was built from (src), and the staleness clock
// that decides when endPass rebuilds both. nil for the dense core, which
// makes the sweep driver's endSweep accounting a no-op.
type mhProposal struct {
	v, kTotal int
	beta      float64
	// betaMass is the uniform smoothing mass Kβ every word's proposal
	// carries next to its alias mass.
	betaMass float64
	tab      linalg.AliasSet
	src      []int // [v*kTotal] word-major n̂
	// refresh is Config.AliasRefresh; stale counts the sweeps the tables
	// have served since their last build.
	refresh, stale int
	// Rebuilds counts builds, including the initial one.
	Rebuilds int
	// BuildTime accumulates the builds' wall time.
	BuildTime time.Duration
}

func newMHProposal(v, kTotal int, beta float64) *mhProposal {
	return &mhProposal{v: v, kTotal: kTotal, beta: beta, betaMass: float64(kTotal) * beta, src: make([]int, v*kTotal)}
}

// source returns the counts the tables were built from in the
// [kTotal][v] form of Checkpoint.MHSourceKV.
func (m *mhProposal) source() [][]int {
	return topicMajor(m.src, m.kTotal, m.v)
}

// build rebuilds the tables in place from the word-major counts nKV: one
// row scan per word copies the row into src and appends its nonzeros,
// topics ascending, as the word's column (weights are the raw counts
// n̂_kw; the β smoothing mass is handled by the uniform arm of the draw);
// then per-word table builds on the pool. The build's wall time is added
// to BuildTime.
func (m *mhProposal) build(o par.Opts, nKV []int) error {
	t0 := time.Now()
	s, src, kt := &m.tab, m.src, m.kTotal
	s.Reset(m.v)
	for w := 0; w < m.v; w++ {
		row := nKV[w*kt : (w+1)*kt]
		copy(src[w*kt:], row)
		for k, c := range row {
			if c > 0 {
				s.Put(w, int32(k), float64(c))
			}
		}
	}
	if err := s.Build(o); err != nil {
		return err
	}
	m.BuildTime += time.Since(t0)
	return nil
}

// propose draws one topic from the word proposal q_w(k) ∝ n̂_kw + β: the
// stale alias table with probability mass/(mass+Kβ), the uniform arm
// otherwise. One uniform variate drives both the arm choice and the draw
// inside the arm.
func (m *mhProposal) propose(w int, u float64) int {
	s := &m.tab
	mass := s.Mass[w]
	u *= mass + m.betaMass
	if u < mass {
		return s.Tab[w].Draw(u / mass)
	}
	t := int((u - mass) / m.beta)
	if t >= m.kTotal {
		t = m.kTotal - 1
	}
	return t
}

// density returns the word proposal's unnormalized density n̂_kw + β at
// topic k — the factor the acceptance ratio needs at the incumbent and
// proposed topics. One load from the retained counts.
func (m *mhProposal) density(w, k int) float64 {
	return float64(m.src[w*m.kTotal+k]) + m.beta
}

// mhChunk is one worker slot's MH sampling state. It keeps no incremental
// bucket masses — acceptance ratios read the handful of counts they need
// directly — so adjust is two array updates plus the delta bookkeeping.
type mhChunk struct {
	alpha    []float64
	alphaSum float64
	beta, vb float64
	nKV      []int // word-major, shared with the fit
	nK       []int
	dl       *delta
	prop     *mhProposal
	// alphaTab serves the α arm of the doc proposal; static per run.
	alphaTab *linalg.Alias

	// den caches the per-topic conditional denominators
	// float64(nK[k]+dl.k[k]) + Vβ, the hottest loads in the acceptance
	// ratio. Rebuilt at each chunk start (refreshDen) and maintained by
	// adjust;
	// counts are far below 2^52, so every cached value is the exactly
	// rounded float of the integer sum.
	den []float64

	// Per-document state, valid between beginDoc calls.
	nDK []int
	// pDK[k] counts document phrases assigned topic k — the doc-proposal
	// density for RunPhrases, whose position draw is over phrase slots
	// rather than token slots. nil for token documents.
	pDK []int
}

// newMHChunk returns the MH state of the slot whose live delta is dl. Its
// per-topic arrays are written on every count move (den) or document
// (pDK), so they come from par.PadSlice like the delta's.
func newMHChunk(alpha []float64, beta float64, v int, nKV []int, nK []int, dl *delta,
	prop *mhProposal, alphaTab *linalg.Alias, phrases bool) mhChunk {
	c := mhChunk{
		alpha: alpha, beta: beta, vb: float64(v) * beta,
		nKV: nKV, nK: nK, dl: dl, prop: prop, alphaTab: alphaTab,
	}
	for _, a := range alpha {
		c.alphaSum += a
	}
	if phrases {
		c.pDK = par.PadSlice[int](len(alpha))
	}
	c.den = par.PadSlice[float64](len(alpha))
	c.refreshDen()
	return c
}

// refreshDen recomputes the cached denominators from the chunk's current
// view of the topic totals. It runs before every chunk, when that view is
// the globals plus a zeroed delta: the sweep driver calls it for each
// slot's first chunk, after the previous sweep's accumulators merged into
// nK, and the slot's chunk-end fold for the next one, after it reset the
// live delta. A den carried over from the slot's previous chunk would hold
// that chunk's moves, which the next chunk must not see. It is a no-op on
// the zero mhChunk of the dense core.
func (s *mhChunk) refreshDen() {
	for k := range s.den {
		s.den[k] = float64(s.nK[k]+s.dl.k[k]) + s.vb
	}
}

func (s *mhChunk) effKV(k, w int) int {
	i := w*s.dl.kTotal + k
	return s.nKV[i] + s.dl.kv.Cells[i]
}

// beginDoc points the chunk at document state nDK; for phrase documents it
// also tallies the per-topic phrase counts from zDoc.
func (s *mhChunk) beginDoc(nDK []int, zDoc []int) {
	s.nDK = nDK
	if s.pDK != nil {
		for k := range s.pDK {
			s.pDK[k] = 0
		}
		for _, k := range zDoc {
			s.pDK[k]++
		}
	}
}

// adjust moves c tokens of word w into (+) or out of (−) topic k. O(1).
func (s *mhChunk) adjust(k, w, c int) {
	s.dl.add(k, w, c)
	s.nDK[k] += c
	s.den[k] += float64(c)
}

// target is the unnormalized collapsed conditional at topic x for word w
// with the token under resampling *virtually* removed: the counts still
// include it at topic kOld, so the three counts drop by 1 exactly when
// x == kOld. Virtual removal keeps the hot loop free of delta updates for
// the (majority of) tokens whose topic does not change — the caller only
// moves real counts on a change. Split into numerator and denominator so
// acceptance tests stay division-free.
func (s *mhChunk) target(x, w, kOld int) (num, den float64) {
	d := 0
	if x == kOld {
		d = 1
	}
	return (float64(s.nDK[x]-d) + s.alpha[x]) * (float64(s.effKV(x, w)-d) + s.beta),
		s.den[x] - float64(d)
}

// sampleToken draws a topic for one token of word w through the MH kernel:
// one word-proposal step then one doc-proposal step, each accepted against
// the current-count conditional with the token virtually removed (counts
// still include it at kOld = zDoc[i] on entry; target and the densities
// below carry the correction). zDoc[i] is updated in place after each
// sub-step so the doc proposal's slot draw is consistent with the
// incumbent; the caller moves the real counts only when the returned topic
// differs from kOld. posCnt is the per-topic tally of zDoc's slots
// *including* slot i at kOld (nDK for token documents, pDK for phrase
// documents).
//
// Doc-proposal densities: the slot draw includes slot i at the incumbent
// k, so q_d(y | k) ∝ cnt¬i(y) + 1{y=k} + α_y (cnt¬i = slot tally without
// slot i) and the reverse density is evaluated at the *destination* t,
// q_d(k | t) ∝ cnt¬i(k) + 1{k=t} + α_k. The acceptance branch only runs
// for t ≠ k, where both indicators vanish — evaluating the reverse density
// at the current state instead (the LightLDA paper's extra +1 on the
// incumbent) breaks detailed balance and measurably biases the chain (see
// the chi-square kernel test).
func (s *mhChunk) sampleToken(w int, zDoc []int, posCnt []int, i int, rng *stream) int {
	kOld := zDoc[i]
	k := kOld
	// Virtual removal freezes the counts for the token's duration, so the
	// incumbent's target factors are computed once and carried across both
	// proposal steps (updated only when a proposal is accepted).
	kn, kd := s.target(k, w, kOld)

	// Word proposal from the stale alias tables. q_w does not depend on
	// the incumbent, so this is plain independence MH. Only proposals
	// naming a different topic tick the counters — self-proposals are
	// no-ops either way and would inflate the recorded accept rate.
	if t := s.prop.propose(w, rng.Float64()); t != k {
		s.dl.ctr.wordProp++
		tn, td := s.target(t, w, kOld)
		// π = [p(t)·q_w(k)] / [p(k)·q_w(t)]; accept iff u·den < num.
		num := tn * kd * s.prop.density(w, k)
		den := kn * td * s.prop.density(w, t)
		if rng.Float64()*den < num {
			s.dl.ctr.wordAcc++
			k = t
			kn, kd = tn, td
			zDoc[i] = k
		}
	}

	// Doc proposal from the document's own assignment slots + α. One
	// variate picks the arm and, in the slot arm, the slot.
	u := rng.Float64() * (float64(len(zDoc)) + s.alphaSum)
	var t int
	if u < float64(len(zDoc)) {
		t = zDoc[int(u)]
	} else {
		t = s.alphaTab.Draw(rng.Float64())
	}
	if t != k {
		s.dl.ctr.docProp++
		dk, dt := 0, 0
		if k == kOld {
			dk = 1
		} else if t == kOld {
			dt = 1
		}
		qk := float64(posCnt[k]-dk) + s.alpha[k]
		qt := float64(posCnt[t]-dt) + s.alpha[t]
		tn, td := s.target(t, w, kOld)
		num := tn * kd * qk
		den := kn * td * qt
		if rng.Float64()*den < num {
			s.dl.ctr.docAcc++
			k = t
			zDoc[i] = k
		}
	}
	return k
}

// endPass rebuilds the tables once they have served AliasRefresh sweeps.
// The chunk pass calls it after the chunks finish and before the
// accumulators merge, so the build reads the globals as they stood at the start of
// the sweep, and the next sweep samples from the new tables.
func (m *mhProposal) endPass(o par.Opts, nKV []int) error {
	if m.stale < m.refresh {
		return nil
	}
	if err := m.build(o, nKV); err != nil {
		return err
	}
	m.Rebuilds++
	m.stale = 0
	return nil
}

// endSweep ages the tables by one sweep and returns the cumulative
// rebuild accounting (zeros for the dense core's nil proposal).
func (m *mhProposal) endSweep() (rebuilds int, buildTime time.Duration) {
	if m == nil {
		return 0, 0
	}
	m.stale++
	return m.Rebuilds, m.BuildTime
}

// startMH attaches the MH core to a fit: the word-proposal tables built
// from the post-init counts (or restored from the checkpoint's source
// table), the static α table of the doc proposal, and per-chunk state.
// phrases selects the phrase-slot doc proposal of RunPhrases.
func (f *fit) startMH(phrases bool) error {
	prop := newMHProposal(f.v, f.kTotal, f.cfg.Beta)
	prop.refresh = f.cfg.AliasRefresh
	if f.ck != nil {
		f.ck.mh = prop
	}
	// The first tables come from the post-init counts of a fresh fit
	// (rebuilds 1, stale 0), or from a checkpoint's source counts with its
	// stored rebuild counter and staleness clock. The build is
	// deterministic in its input, so a resumed fit holds bitwise the tables
	// the uninterrupted run held, and every later rebuild fires on the same
	// sweep it would have.
	src, rebuilds, stale := f.nKV, 1, 0
	if cp := f.cfg.Resume; cp != nil {
		src, rebuilds, stale = wordMajor(cp.MHSourceKV, f.kTotal, f.v), cp.AliasRebuilds, cp.MHStale
	}
	if err := prop.build(f.o, src); err != nil {
		return err
	}
	prop.Rebuilds, prop.stale = rebuilds, stale
	if f.cfg.Resume != nil {
		// The cumulative rebuild totals count from the trajectory's start;
		// prime the recorder so the first resumed sweep is not charged
		// with the skipped sweeps' rebuilds (or the restoring build).
		f.rr.prime(prop.Rebuilds, prop.BuildTime)
	}
	alphaTab := linalg.NewAlias(f.alpha)
	for c := range f.sw.Slots {
		ch := &f.sw.Slots[c].V.State
		ch.mh = newMHChunk(f.alpha, f.cfg.Beta, f.v, f.nKV, f.nK, &ch.dl, prop, alphaTab, phrases)
	}
	f.mh = prop
	return nil
}

// mhTokenKernel samples every token of a document through the MH kernel.
func (f *fit) mhTokenKernel(docs [][]int) docKernel {
	z, nDK := f.z, f.nDK
	return func(c *chunk, rng *stream, di int) {
		ch := &c.mh
		zd := z[di]
		ch.beginDoc(nDK[di], zd)
		doc := docs[di]
		for i, w := range doc {
			kOld := zd[i]
			// sampleToken removes the token virtually and writes zd[i];
			// counts move only on an actual topic change.
			if k := ch.sampleToken(w, zd, ch.nDK, i, rng); k != kOld {
				ch.dl.ctr.changed++
				ch.adjust(kOld, w, -1)
				ch.adjust(k, w, 1)
			}
		}
	}
}

// mhPhraseKernel is the MH kernel for RunPhrases. Unigram phrases — the
// dominant case in segmented corpora — go through the MH kernel with the
// doc proposal drawing over phrase slots (density pDK + α); multi-word
// phrases keep the dense product conditional, reading counts through the
// same chunk state.
func (f *fit) mhPhraseKernel(docs []PhraseDoc) docKernel {
	zP, nDK, nKV, nK, alpha := f.z, f.nDK, f.nKV, f.nK, f.alpha
	return func(c *chunk, rng *stream, di int) {
		ch, probs := &c.mh, c.probs
		zPd := zP[di]
		ch.beginDoc(nDK[di], zPd)
		doc := docs[di]
		for pi, phrase := range doc {
			k := zPd[pi]
			if len(phrase) == 1 {
				// Unigram fast path: virtual removal, counts move only on
				// an actual topic change.
				w := phrase[0]
				if kNew := ch.sampleToken(w, zPd, ch.pDK, pi, rng); kNew != k {
					ch.dl.ctr.changed++
					ch.adjust(k, w, -1)
					ch.adjust(kNew, w, 1)
					ch.pDK[k]--
					ch.pDK[kNew]++
				}
				continue
			}
			// Multi-word phrases keep the dense product over
			// really-removed counts.
			kOld := k
			for _, w := range phrase {
				ch.adjust(k, w, -1)
			}
			ch.pDK[k]--
			k = samplePhrase(phrase, ch.nDK, nK, nKV, ch.dl, alpha, ch.beta, ch.vb, probs, rng)
			if k != kOld {
				// A moved phrase moves all of its tokens, keeping Changed
				// in token units next to Tokens.
				ch.dl.ctr.changed += int64(len(phrase))
			}
			zPd[pi] = k
			ch.pDK[k]++
			for _, w := range phrase {
				ch.adjust(k, w, 1)
			}
		}
	}
}
