package tng

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

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
	// (PYNgram only).
	Discount float64
	// ExtraWork multiplies inner-loop work to emulate PD-LDA's CRP
	// bookkeeping cost (PYNgram only; 0 = none).
	ExtraWork int
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

type bigramKey struct {
	topic, prev int
}

// trigramKey addresses one bigram-table cell (topic, prev word, word) —
// the flat key the chunk deltas use so a delta is a single map instead of
// a map of maps.
type trigramKey struct {
	topic, prev, word int
}

// tngDelta is one chunk's private state: its diff against the
// sweep-start global tables — dense tables with a dirty list for the
// topic-word counts (merge cost O(cells touched)), dense merges for the
// small arrays, and flat count tables for the sparse bigram tables
// (integer adds, so the merge order cannot change the result) —
// plus the chunk's PRNG stream slot and sampling scratch. The delta also
// holds read-only references to the frozen globals so the eff* accessors
// can answer "global + own-chunk delta" without per-document closures in
// the hot loop (the pattern internal/lda's mhChunk uses). The chunk's
// worker writes it on every token, so it lives in a par.Padded slot and
// its arrays come from par.PadSlice (see internal/par's chunk-private
// state rule).
type tngDelta struct {
	v       int
	kv      [][]int // [k][v]
	k       []int   // [k]
	touched []bool  // [k*v]
	dirty   []int
	n0, n1  []int // [v]
	big     countTable[trigramKey]
	bigTot  countTable[bigramKey]
	probs   []float64 // [2k] sampling scratch, reused across the chunk's docs
	// st is the reusable stream slot: per-document streams are values
	// reseeded in place, so a pass allocates none.
	st rng.Stream
	// changed tallies (z, x) assignment changes for observability;
	// harvested per sweep only when a Recorder is attached and never
	// read by the sampling math.
	changed int64

	// Frozen sweep-start globals (read-only during a pass).
	gKV     [][]int
	gK      []int
	gN0     []int
	gN1     []int
	gBig    map[bigramKey]map[int]int
	gBigTot map[bigramKey]int
}

func newTngDelta(k, v int, gKV [][]int, gK, gN0, gN1 []int, gBig map[bigramKey]map[int]int, gBigTot map[bigramKey]int) tngDelta {
	kv := make([][]int, k)
	for i := range kv {
		kv[i] = par.PadSlice[int](v)
	}
	return tngDelta{
		v: v, kv: kv, k: par.PadSlice[int](k),
		touched: par.PadSlice[bool](k * v),
		n0:      par.PadSlice[int](v), n1: par.PadSlice[int](v),
		probs: par.PadSlice[float64](2 * k),
		gKV:   gKV, gK: gK, gN0: gN0, gN1: gN1, gBig: gBig, gBigTot: gBigTot,
	}
}

// Effective counts: sweep-start global + own-chunk delta.
func (d *tngDelta) effKV(k, w int) int { return d.gKV[k][w] + d.kv[k][w] }
func (d *tngDelta) effK(k int) int     { return d.gK[k] + d.k[k] }
func (d *tngDelta) effN0(w int) int    { return d.gN0[w] + d.n0[w] }
func (d *tngDelta) effN1(w int) int    { return d.gN1[w] + d.n1[w] }
func (d *tngDelta) effBig(key bigramKey, w int) int {
	c := d.big.get(trigramKey{key.topic, key.prev, w})
	if m := d.gBig[key]; m != nil {
		c += m[w]
	}
	return c
}
func (d *tngDelta) effBigTot(key bigramKey) int { return d.gBigTot[key] + d.bigTot.get(key) }

func (d *tngDelta) addKV(k, w, c int) {
	idx := k*d.v + w
	if !d.touched[idx] {
		d.touched[idx] = true
		d.dirty = append(d.dirty, idx)
	}
	d.kv[k][w] += c
	d.k[k] += c
}

func (d *tngDelta) addBig(key bigramKey, w, c int) {
	d.big.add(trigramKey{key.topic, key.prev, w}, c)
	d.bigTot.add(key, c)
}

// applyTo folds the delta into the global tables and resets it.
func (d *tngDelta) applyTo(nKV [][]int, nK []int, n0, n1 []int, big map[bigramKey]map[int]int, bigTot map[bigramKey]int) {
	for _, idx := range d.dirty {
		k, w := idx/d.v, idx%d.v
		if c := d.kv[k][w]; c != 0 {
			nKV[k][w] += c
			d.kv[k][w] = 0
		}
		d.touched[idx] = false
	}
	d.dirty = d.dirty[:0]
	for k, c := range d.k {
		nK[k] += c
		d.k[k] = 0
	}
	for w, c := range d.n0 {
		if c != 0 {
			n0[w] += c
			d.n0[w] = 0
		}
	}
	for w, c := range d.n1 {
		if c != 0 {
			n1[w] += c
			d.n1[w] = 0
		}
	}
	d.big.each(func(tk trigramKey, c int) {
		if c == 0 {
			return
		}
		key := bigramKey{tk.topic, tk.prev}
		m := big[key]
		if m == nil {
			m = map[int]int{}
			big[key] = m
		}
		m[tk.word] += c
	})
	d.bigTot.each(func(key bigramKey, c int) {
		if c != 0 {
			bigTot[key] += c
		}
	})
	d.big.reset()
	d.bigTot.reset()
}

// Run fits the model to id-encoded documents.
//
// Like the internal/lda samplers, sweeps execute as chunked passes over
// the documents on the shared parallel runtime: the global count tables
// (topic-word, bigram, and status tables alike) are frozen for the pass,
// each chunk records its changes in a private delta and samples against
// global + own-chunk delta, and deltas merge in chunk order afterwards.
// Every document draws from its own (Seed, doc, sweep) SplitMix64 stream,
// so the fitted model is bit-identical at any Config.P. Run returns an
// error when the config or a token id is invalid, or when Config.Ctx is
// cancelled.
func Run(docs [][]int, v int, cfg Config) (*Model, error) {
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
	k := cfg.K
	d := len(docs)

	nDK := make([][]int, d)
	nKV := make([][]int, k)
	nK := make([]int, k)
	for i := range nKV {
		nKV[i] = make([]int, v)
	}
	// Bigram tables: counts of (topic, prev) -> word, and status counts per
	// previous word.
	big := map[bigramKey]map[int]int{}
	bigTot := map[bigramKey]int{}
	n1 := make([]int, v) // prev word continued
	n0 := make([]int, v) // prev word not continued

	z := make([][]int, d)
	x := make([][]int, d)

	// Chunk policy shared with internal/lda's samplers (par.SamplerChunks);
	// the per-chunk dense delta tables hold k*v cells each.
	nc := par.SamplerChunks(d, k*v)
	deltas := make([]par.Padded[tngDelta], nc)
	for c := range deltas {
		deltas[c].V = newTngDelta(k, v, nKV, nK, n0, n1, big, bigTot)
	}

	// pass runs one chunked pass and merges the deltas in chunk order.
	pass := func(sweep uint64, visit func(di int, st *rng.Stream, dl *tngDelta)) error {
		if d == 0 {
			return o.Err()
		}
		err := par.ForChunksN(o, d, nc, func(c, lo, hi int) {
			dl := &deltas[c].V
			for di := lo; di < hi; di++ {
				dl.st = rng.NewStream(cfg.Seed, uint64(di), sweep)
				visit(di, &dl.st, dl)
			}
		})
		if err != nil {
			return err
		}
		for c := range deltas {
			deltas[c].V.applyTo(nKV, nK, n0, n1, big, bigTot)
		}
		return nil
	}

	err := pass(0, func(di int, st *rng.Stream, dl *tngDelta) {
		doc := docs[di]
		z[di] = make([]int, len(doc))
		x[di] = make([]int, len(doc))
		nDK[di] = make([]int, k)
		for i, w := range doc {
			zi := st.Intn(k)
			xi := 0
			if i > 0 && st.Float64() < 0.2 {
				xi = 1
				zi = z[di][i-1]
			}
			z[di][i], x[di][i] = zi, xi
			nDK[di][zi]++
			if xi == 0 {
				dl.addKV(zi, w, 1)
			} else {
				dl.addBig(bigramKey{zi, doc[i-1]}, w, 1)
			}
			if i > 0 {
				if xi == 1 {
					dl.n1[doc[i-1]]++
				} else {
					dl.n0[doc[i-1]]++
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}

	vb := float64(v) * cfg.Beta
	vd := float64(v) * cfg.Delta
	var totTok int64
	if cfg.Rec != nil {
		for _, doc := range docs {
			totTok += int64(len(doc))
		}
	}
	for it := 0; it < cfg.Iters; it++ {
		var t0 time.Time
		if cfg.Rec != nil {
			t0 = time.Now()
		}
		err := pass(uint64(it+1), func(di int, st *rng.Stream, dl *tngDelta) {
			doc := docs[di]
			probs := dl.probs
			for i, w := range doc {
				zi, xi := z[di][i], x[di][i]
				zOld, xOld := zi, xi
				// Remove token.
				nDK[di][zi]--
				if xi == 0 {
					dl.addKV(zi, w, -1)
				} else {
					dl.addBig(bigramKey{zi, doc[i-1]}, w, -1)
				}
				if i > 0 {
					if xi == 1 {
						dl.n1[doc[i-1]]--
					} else {
						dl.n0[doc[i-1]]--
					}
				}
				// Joint sample of (x, z). x=1 allowed only mid-document
				// and ties the topic to the previous token's topic.
				total := 0.0
				for kk := 0; kk < k; kk++ {
					p := (float64(nDK[di][kk]) + cfg.Alpha) *
						(float64(dl.effKV(kk, w)) + cfg.Beta) / (float64(dl.effK(kk)) + vb)
					if i > 0 {
						p *= float64(dl.effN0(doc[i-1])) + cfg.Gamma
					}
					probs[kk] = p
					total += p
				}
				if i > 0 {
					prevZ := z[di][i-1]
					key := bigramKey{prevZ, doc[i-1]}
					cnt := float64(dl.effBig(key, w))
					if cnt < 0 {
						cnt = 0
					}
					disc := cfg.Discount
					bw := cnt - disc
					if bw < 0 {
						bw = 0
					}
					p := (float64(nDK[di][prevZ]) + cfg.Alpha) *
						(bw + cfg.Delta) / (float64(dl.effBigTot(key)) + vd) *
						(float64(dl.effN1(doc[i-1])) + cfg.Gamma)
					probs[k+prevZ] = p
					total += p
					for kk := 0; kk < k; kk++ {
						if kk != prevZ {
							probs[k+kk] = 0
						}
					}
				} else {
					for kk := 0; kk < k; kk++ {
						probs[k+kk] = 0
					}
				}
				if cfg.ExtraWork > 0 {
					// Emulate CRP table bookkeeping cost.
					s := 0.0
					for e := 0; e < cfg.ExtraWork; e++ {
						for kk := 0; kk < 2*k; kk++ {
							s += probs[kk] * float64(e+1)
						}
					}
					_ = s
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
				if pick < k {
					zi, xi = pick, 0
				} else {
					zi, xi = pick-k, 1
				}
				if zi != zOld || xi != xOld {
					dl.changed++
				}
				z[di][i], x[di][i] = zi, xi
				nDK[di][zi]++
				if xi == 0 {
					dl.addKV(zi, w, 1)
				} else {
					dl.addBig(bigramKey{zi, doc[i-1]}, w, 1)
				}
				if i > 0 {
					if xi == 1 {
						dl.n1[doc[i-1]]++
					} else {
						dl.n0[doc[i-1]]++
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		if cfg.Rec != nil {
			var changed int64
			for c := range deltas {
				dl := &deltas[c].V
				changed += dl.changed
				dl.changed = 0
			}
			ch := nc
			if d < ch {
				ch = d
			}
			cfg.Rec.RecordSweep(obs.SweepStats{
				Engine:        "tng",
				Sweep:         it + 1,
				Sweeps:        cfg.Iters,
				Docs:          d,
				Tokens:        totTok,
				Changed:       changed,
				Chunks:        ch,
				SweepTime:     time.Since(t0),
				LogLikelihood: math.NaN(),
			})
		}
	}

	m := &Model{K: k, Z: z, X: x}
	m.Phi = make([][]float64, k)
	total := 0
	for kk := 0; kk < k; kk++ {
		m.Phi[kk] = make([]float64, v)
		for w := 0; w < v; w++ {
			m.Phi[kk][w] = (float64(nKV[kk][w]) + cfg.Beta) / (float64(nK[kk]) + vb)
		}
		total += nK[kk]
	}
	m.Rho = make([]float64, k)
	for kk := 0; kk < k; kk++ {
		if total > 0 {
			m.Rho[kk] = float64(nK[kk]) / float64(total)
		} else {
			m.Rho[kk] = 1 / float64(k)
		}
	}
	return m, nil
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
