package tng

import (
	"context"
	"fmt"
	"math"
	"sort"

	"lesm/internal/core"
	"lesm/internal/obs"
	"lesm/internal/par"
	"lesm/internal/rng"
	"lesm/internal/textkit"
)

// Config parameterizes the sampler.
type Config struct {
	K     int
	Alpha float64 // doc-topic prior (default 50/K)
	Beta  float64 // topic-word prior (default 0.01)
	Delta float64 // bigram-word prior (default 0.01)
	Gamma float64 // bigram-status Beta prior (default 1)
	Iters int     // default 150
	Seed  int64
	// Discount applies a Pitman-Yor-style discount to bigram counts
	// (the PD-LDA stand-in; 0 = plain TNG).
	Discount float64
	// P bounds the worker count of the parallel sweeps (0 = GOMAXPROCS).
	// The fitted model is bit-identical at any P.
	P int
	// Ctx cancels sampling between work chunks (nil = background); a
	// cancelled run returns the context error and no model.
	Ctx context.Context
	// Rec, when non-nil, receives one obs.SweepStats per sweep (Engine
	// "tng") plus pool telemetry. Observational only: the fitted model
	// is bit-identical with Rec set or nil at any P.
	Rec obs.Recorder
}

// validate rejects configurations that would produce negative, infinite
// or NaN probabilities in the sampler. Called on the raw config, before
// defaulting fills zero fields.
func (c Config) validate() error {
	if c.K <= 0 {
		return fmt.Errorf("tng: Config.K = %d, need at least 1 topic", c.K)
	}
	for _, p := range []struct {
		name string
		x    float64
	}{{"Alpha", c.Alpha}, {"Beta", c.Beta}, {"Delta", c.Delta}, {"Gamma", c.Gamma}} {
		// False for NaN and both infinities as well as negatives.
		if !(p.x >= 0 && p.x <= math.MaxFloat64) {
			return fmt.Errorf("tng: Config.%s = %v, need finite >= 0 (0 = default)", p.name, p.x)
		}
	}
	if !(c.Discount >= 0 && c.Discount < 1) {
		return fmt.Errorf("tng: Config.Discount = %v, need 0 <= Discount < 1", c.Discount)
	}
	if c.Iters < 0 {
		return fmt.Errorf("tng: Config.Iters = %d, need >= 0 (0 = default 150)", c.Iters)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 50 / float64(c.K)
	}
	if c.Beta == 0 {
		c.Beta = 0.01
	}
	if c.Delta == 0 {
		c.Delta = 0.01
	}
	if c.Gamma == 0 {
		c.Gamma = 1
	}
	if c.Iters == 0 {
		c.Iters = 150
	}
	return c
}

// Model is the fitted n-gram topic model.
type Model struct {
	K int
	// Phi[k][v] is the unigram topic-word distribution.
	Phi [][]float64
	// Rho[k] is the topic share.
	Rho []float64
	// Z[d][i] and X[d][i] are the final topic and bigram-status assignments.
	Z, X [][]int
}

// bigramKey addresses one bigram total: (topic, previous word).
type bigramKey struct {
	topic, prev int
}

// trigramKey addresses one bigram-table cell: (topic, previous word,
// word).
type trigramKey struct {
	topic, prev, word int
}

// counts are a fit's global count tables.
type counts struct {
	kv     []int // [v*k] topic-word counts, word-major: cell w*k+topic
	k      []int // [k] topic totals
	n0, n1 []int // [v] per previous word: next token not continued / continued
	big    countTable[trigramKey]
	bigTot countTable[bigramKey]
}

// tngDelta is one chunk's live diff against the sweep-start global
// counts: dirty-tracked deltas for the topic-word and status tables, a
// dense one for the topic totals and count tables for the sparse bigram
// cells (integer adds, so the merge order cannot change the result). The
// worker writes it on every token, so its arrays come from par.PadSlice
// (see internal/par's private state rule).
type tngDelta struct {
	kv, n0, n1 par.Delta
	k          []int
	big        countTable[trigramKey]
	bigTot     countTable[bigramKey]
}

func newTngDelta(k, v int) tngDelta {
	return tngDelta{
		kv: par.NewDelta(v * k), k: par.PadSlice[int](k),
		n0: par.NewDelta(v), n1: par.NewDelta(v),
	}
}

// tngAcc is a worker's pass accumulator: the changes of the chunks it
// ran, the table cells listed by stripe and the bigram cells in count
// tables.
type tngAcc struct {
	kv, n0, n1 par.Acc
	k          []int
	big        countTable[trigramKey]
	bigTot     countTable[bigramKey]
}

// slot is one worker slot's state: the live delta of the running chunk,
// the pass accumulator and the sampling scratch.
type slot struct {
	dl    tngDelta
	acc   tngAcc
	probs []float64 // [2k] sampling scratch, reused across the chunk's docs
	// changed tallies (z, x) assignment changes for observability;
	// harvested per sweep only when a Recorder is attached and never
	// read by the sampling math.
	changed int64
}

// add moves c tokens of word w with topic t and status x into (c > 0) or
// out of (c < 0) the delta; prev is the previous word, -1 at a
// document's start.
func (d *tngDelta) add(t, x, prev, w, c int) {
	if x == 0 {
		d.kv.Add(w*len(d.k)+t, c)
		d.k[t] += c
	} else {
		d.big.add(trigramKey{t, prev, w}, c)
		d.bigTot.add(bigramKey{t, prev}, c)
	}
	switch {
	case prev < 0:
	case x == 1:
		d.n1.Add(prev, c)
	default:
		d.n0.Add(prev, c)
	}
}

// foldInto adds the chunk's changes into the pass accumulator acc and
// resets them.
func (d *tngDelta) foldInto(acc *tngAcc) {
	d.kv.FoldInto(&acc.kv)
	d.n0.FoldInto(&acc.n0)
	d.n1.FoldInto(&acc.n1)
	for t, c := range d.k {
		acc.k[t] += c
		d.k[t] = 0
	}
	d.big.mergeInto(&acc.big)
	d.bigTot.mergeInto(&acc.bigTot)
}

// mergeStripe adds stripe s of accumulator a into the global counts (the
// topic totals and bigram tables with stripe 0), empties it and returns
// the number of changes and bigram entries it visited; with discard set it
// only empties.
func (g *counts) mergeStripe(a *tngAcc, s int, discard bool) int {
	kv, n0, n1 := g.kv, g.n0, g.n1
	if discard {
		kv, n0, n1 = nil, nil, nil
	}
	n := a.kv.MergeStripe(kv, s) + a.n0.MergeStripe(n0, s) + a.n1.MergeStripe(n1, s)
	if s != 0 {
		return n
	}
	if discard {
		clear(a.k)
		a.big.reset()
		a.bigTot.reset()
		return n
	}
	for t, c := range a.k {
		g.k[t] += c
		a.k[t] = 0
	}
	return n + a.big.mergeInto(&g.big) + a.bigTot.mergeInto(&g.bigTot)
}

// sampler is one fit's state after the initialization pass: the global
// counts, the assignments and the pass driver holding the worker slots.
type sampler struct {
	*par.Sweeper[slot]
	cfg  Config // defaulted
	docs [][]int
	v    int
	g    counts
	nDK  [][]int
	z, x [][]int
}

// kernel samples one document with its worker slot's state and stream.
type kernel = func(ws *slot, st *rng.Stream, di int)

// Run fits the model to id-encoded documents.
//
// Sweeps run on the Gibbs pass driver internal/lda also uses
// (par.Sweeper): the global count tables (topic-word, bigram and status
// tables alike) are frozen for a pass, each chunk samples against global
// + own-chunk delta, folded at its end into its worker's accumulator, and
// the accumulators merge afterwards.
// Every document draws from its own (Seed, doc, sweep) SplitMix64 stream,
// so the fitted model is bit-identical at any Config.P. Run returns an
// error when the config or a token id is invalid, or when Config.Ctx is
// cancelled.
func Run(docs [][]int, v int, cfg Config) (*Model, error) {
	s, err := newSampler(docs, v, cfg)
	if err != nil {
		return nil, err
	}
	cfg = s.cfg
	var tokens int64
	if cfg.Rec != nil {
		for _, doc := range docs {
			tokens += int64(len(doc))
		}
		s.Stats = &par.PassStats{}
	}
	sweep := s.sweepKernel()
	for it := 1; it <= cfg.Iters; it++ {
		if err := s.Pass(uint64(it), sweep, nil); err != nil {
			return nil, err
		}
		if cfg.Rec != nil {
			s.record(it, tokens)
		}
	}
	return s.model(), nil
}

// newSampler validates the run, allocates the tables and chunk state and
// draws the initialization pass.
func newSampler(docs [][]int, v int, cfg Config) (*sampler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if v <= 0 {
		return nil, fmt.Errorf("tng: vocabulary size %d, need at least 1", v)
	}
	for di, doc := range docs {
		for i, w := range doc {
			if w < 0 || w >= v {
				return nil, fmt.Errorf("tng: doc %d token %d: word id %d outside vocabulary [0, %d)", di, i, w, v)
			}
		}
	}
	cfg = cfg.withDefaults()
	o := par.Opts{P: cfg.P, Ctx: cfg.Ctx}
	if cfg.Rec != nil {
		o.Obs = cfg.Rec
	}
	k, d := cfg.K, len(docs)
	s := &sampler{
		cfg: cfg, docs: docs, v: v,
		g:   counts{kv: make([]int, v*k), k: make([]int, k), n0: make([]int, v), n1: make([]int, v)},
		nDK: make([][]int, d), z: make([][]int, d), x: make([][]int, d),
	}
	// Each dense topic-word delta holds k*v cells.
	s.Sweeper = par.NewSweeper(o, d, k*v, cfg.Seed,
		func(stripes int) slot {
			return slot{dl: newTngDelta(k, v), probs: par.PadSlice[float64](2 * k), acc: tngAcc{
				kv: par.NewAcc(v*k, stripes), n0: par.NewAcc(v, stripes), n1: par.NewAcc(v, stripes),
				k: par.PadSlice[int](k),
			}}
		},
		func(ws *slot) { ws.dl.foldInto(&ws.acc) },
		func(ws *slot, st int, discard bool) int { return s.g.mergeStripe(&ws.acc, st, discard) })
	if err := s.Pass(0, s.initKernel(), nil); err != nil {
		return nil, err
	}
	return s, nil
}

// initKernel draws every token's topic uniformly and, mid-document, a
// continuation status with probability 0.2 (sharing the previous topic).
func (s *sampler) initKernel() kernel {
	docs, k, nDK, z, x := s.docs, s.cfg.K, s.nDK, s.z, s.x
	return func(ws *slot, st *rng.Stream, di int) {
		dl := &ws.dl
		doc := docs[di]
		z[di] = make([]int, len(doc))
		x[di] = make([]int, len(doc))
		nDK[di] = make([]int, k)
		prev := -1
		for i, w := range doc {
			zi := st.Intn(k)
			xi := 0
			if i > 0 && st.Float64() < 0.2 {
				xi = 1
				zi = z[di][i-1]
			}
			z[di][i], x[di][i] = zi, xi
			nDK[di][zi]++
			dl.add(zi, xi, prev, w, 1)
			prev = w
		}
	}
}

// sweepKernel resamples every token's (z, x) jointly from its collapsed
// conditional against global + own-chunk delta counts.
func (s *sampler) sweepKernel() kernel {
	cfg, docs, g, nDK, z, x := s.cfg, s.docs, &s.g, s.nDK, s.z, s.x
	k := cfg.K
	vb := float64(s.v) * cfg.Beta
	vd := float64(s.v) * cfg.Delta
	return func(ws *slot, st *rng.Stream, di int) {
		dl, doc, probs := &ws.dl, docs[di], ws.probs
		zd, xd, nd := z[di], x[di], nDK[di]
		prev := -1
		for i, w := range doc {
			zOld, xOld := zd[i], xd[i]
			nd[zOld]--
			dl.add(zOld, xOld, prev, w, -1)
			// Joint sample of (x, z). x=1 allowed only mid-document
			// and ties the topic to the previous token's topic.
			row, drow := g.kv[w*k:(w+1)*k], dl.kv.Cells[w*k:(w+1)*k]
			var n0 float64
			if prev >= 0 {
				n0 = float64(g.n0[prev]+dl.n0.Cells[prev]) + cfg.Gamma
			}
			total := 0.0
			for kk := 0; kk < k; kk++ {
				p := (float64(nd[kk]) + cfg.Alpha) *
					(float64(row[kk]+drow[kk]) + cfg.Beta) / (float64(g.k[kk]+dl.k[kk]) + vb)
				if prev >= 0 {
					p *= n0
				}
				probs[kk] = p
				total += p
			}
			clear(probs[k:])
			if prev >= 0 {
				prevZ := zd[i-1]
				tk, bk := trigramKey{prevZ, prev, w}, bigramKey{prevZ, prev}
				cnt := float64(g.big.get(tk) + dl.big.get(tk))
				if cnt < 0 {
					cnt = 0
				}
				bw := cnt - cfg.Discount
				if bw < 0 {
					bw = 0
				}
				p := (float64(nd[prevZ]) + cfg.Alpha) *
					(bw + cfg.Delta) / (float64(g.bigTot.get(bk)+dl.bigTot.get(bk)) + vd) *
					(float64(g.n1[prev]+dl.n1.Cells[prev]) + cfg.Gamma)
				probs[k+prevZ] = p
				total += p
			}
			r := st.Float64() * total
			pick := 0
			for idx := 0; idx < 2*k; idx++ {
				r -= probs[idx]
				if r <= 0 {
					pick = idx
					break
				}
			}
			zi, xi := pick, 0
			if pick >= k {
				zi, xi = pick-k, 1
			}
			if zi != zOld || xi != xOld {
				ws.changed++
			}
			zd[i], xd[i] = zi, xi
			nd[zi]++
			dl.add(zi, xi, prev, w, 1)
			prev = w
		}
	}
}

// record emits sweep's SweepStats and resets the counters and timings it
// harvests.
func (s *sampler) record(sweep int, tokens int64) {
	var changed int64
	for g := range s.Slots {
		ws := &s.Slots[g].V.State
		changed += ws.changed
		ws.changed = 0
	}
	ps := *s.Stats
	*s.Stats = par.PassStats{}
	s.cfg.Rec.RecordSweep(obs.SweepStats{
		Engine:        "tng",
		Sweep:         sweep,
		Sweeps:        s.cfg.Iters,
		Docs:          len(s.docs),
		Tokens:        tokens,
		Changed:       changed,
		Chunks:        s.Chunks(),
		DeltaCells:    ps.Cells,
		MergeTime:     ps.Merge,
		SweepTime:     ps.Wall,
		LogLikelihood: math.NaN(),
	})
}

// model builds the fitted model from the final counts.
func (s *sampler) model() *Model {
	cfg, k, v := s.cfg, s.cfg.K, s.v
	vb := float64(v) * cfg.Beta
	m := &Model{K: k, Z: s.z, X: s.x, Phi: make([][]float64, k), Rho: make([]float64, k)}
	total := 0
	for kk := 0; kk < k; kk++ {
		m.Phi[kk] = make([]float64, v)
		for w := 0; w < v; w++ {
			m.Phi[kk][w] = (float64(s.g.kv[w*k+kk]) + cfg.Beta) / (float64(s.g.k[kk]) + vb)
		}
		total += s.g.k[kk]
	}
	for kk := 0; kk < k; kk++ {
		if total > 0 {
			m.Rho[kk] = float64(s.g.k[kk]) / float64(total)
		} else {
			m.Rho[kk] = 1 / float64(k)
		}
	}
	return m
}

// TopicalPhrases extracts the maximal status-1 runs as phrases and ranks
// them per topic by frequency.
func (m *Model) TopicalPhrases(corpus *textkit.Corpus, topN int) [][]core.RankedPhrase {
	counts := make([]map[string]int, m.K)
	repr := make([]map[string][]int, m.K)
	for k := range counts {
		counts[k] = map[string]int{}
		repr[k] = map[string][]int{}
	}
	for di, doc := range corpus.Docs {
		toks := doc.Tokens
		i := 0
		for i < len(toks) {
			j := i + 1
			for j < len(toks) && m.X[di][j] == 1 {
				j++
			}
			k := m.Z[di][i]
			phrase := toks[i:j]
			key := corpus.Phrase(phrase)
			counts[k][key]++
			repr[k][key] = phrase
			i = j
		}
	}
	out := make([][]core.RankedPhrase, m.K)
	for k := range counts {
		var ps []core.RankedPhrase
		for key, c := range counts[k] {
			ps = append(ps, core.RankedPhrase{Words: repr[k][key], Display: key, Score: float64(c)})
		}
		sort.SliceStable(ps, func(a, b int) bool {
			if ps[a].Score != ps[b].Score {
				return ps[a].Score > ps[b].Score
			}
			return ps[a].Display < ps[b].Display
		})
		if topN > 0 && len(ps) > topN {
			ps = ps[:topN]
		}
		out[k] = ps
	}
	return out
}
