package tpfg

import (
	"context"
	"math"

	"lesm/internal/par"
)

// Config parameterizes TPFG inference (Stage 2).
type Config struct {
	// NoAdvisorWeight is the prior local likelihood of the virtual
	// no-advisor node a0 (default 0.35).
	NoAdvisorWeight float64
	// Sweeps is the number of message-passing sweeps (default 15).
	Sweeps int
	// P bounds the worker count of the parallel message passes
	// (0 = GOMAXPROCS). Results are bit-identical at any P.
	P int
	// Ctx stops inference early (nil = background). Cancellation is
	// best-effort: a cancel that lands mid-sweep leaves messages from two
	// adjacent sweeps mixed, so callers needing a hard guarantee must check
	// Ctx.Err() afterwards and discard the result (lesm.MineAdvisorTree
	// does exactly that).
	Ctx context.Context
}

func (c Config) withDefaults() Config {
	if c.NoAdvisorWeight == 0 {
		c.NoAdvisorWeight = 0.35
	}
	if c.Sweeps == 0 {
		c.Sweeps = 15
	}
	return c
}

// Result holds the inferred ranking: Rank[i][v] is r_{i,cand_v} where v
// indexes i's candidate list shifted by one (v=0 is the virtual no-advisor
// node a0). Ranks are normalized per author.
type Result struct {
	Net  *Network
	Rank [][]float64
}

var negInf = math.Inf(-1)

// Infer runs max-sum message passing on the time-constrained factor graph.
// Factor f_i couples y_i with every y_x of advisee-candidates x of i
// (Eq. 6.8): if x picks i as advisor, i's own advising interval under y_i=j
// must end before x's start (ed_ij < st_xi, Assumption 6.1).
func Infer(net *Network, cfg Config) *Result {
	cfg = cfg.withDefaults()
	n := net.NumAuthors

	// Domains: value 0 = no advisor; value v>0 = Cands[i][v-1].
	dom := make([]int, n)
	logPrior := make([][]float64, n)
	for i := 0; i < n; i++ {
		dom[i] = len(net.Cands[i]) + 1
		lp := make([]float64, dom[i])
		total := cfg.NoAdvisorWeight
		for _, c := range net.Cands[i] {
			total += c.Local
		}
		lp[0] = math.Log(cfg.NoAdvisorWeight / total)
		for v, c := range net.Cands[i] {
			lp[v+1] = math.Log(c.Local / total)
		}
		logPrior[i] = lp
	}

	// advisees[j] lists (x, idx) pairs: author x has j as candidate at
	// position idx of x's candidate list. pos[x][idx] is the position of
	// (x, idx) within advisees[j] — the reverse index that lets the
	// variable-side pass gather its incoming messages without scattering
	// across authors (the restructuring that makes the passes disjoint per
	// author, hence parallelizable over the independent subtrees).
	type adv struct{ x, idx int }
	advisees := make([][]adv, n)
	pos := make([][]int, n)
	for x := 0; x < n; x++ {
		pos[x] = make([]int, len(net.Cands[x]))
		for idx, c := range net.Cands[x] {
			pos[x][idx] = len(advisees[c.Advisor])
			advisees[c.Advisor] = append(advisees[c.Advisor], adv{x, idx})
		}
	}

	// Messages. mFV[i][v]: factor f_i -> variable y_i.
	// mVF[i][v]: variable y_i -> factor f_i.
	// mFxV[i][a][u]: factor f_i -> variable y_x (a indexes advisees[i]),
	//   over values u of y_x.
	// mVFx[i][a][u]: variable y_x -> factor f_i.
	mFV := make([][]float64, n)
	mVF := make([][]float64, n)
	mFxV := make([][][]float64, n)
	mVFx := make([][][]float64, n)
	for i := 0; i < n; i++ {
		mFV[i] = make([]float64, dom[i])
		mVF[i] = make([]float64, dom[i])
		mFxV[i] = make([][]float64, len(advisees[i]))
		mVFx[i] = make([][]float64, len(advisees[i]))
		for a, ad := range advisees[i] {
			mFxV[i][a] = make([]float64, dom[ad.x])
			mVFx[i][a] = make([]float64, dom[ad.x])
		}
	}
	normalizeMsg := func(m []float64) {
		max := negInf
		for _, v := range m {
			if v > max {
				max = v
			}
		}
		if math.IsInf(max, -1) {
			return
		}
		for i := range m {
			m[i] -= max
		}
	}

	// compat(i, a, u, v): indicator (log 0 / -inf) for factor f_i between
	// its own value v and advisee a's value u.
	compat := func(i, a int, u, v int) bool {
		ad := advisees[i][a]
		// u corresponds to x choosing candidate u-1; x chooses i iff that
		// candidate is i.
		if u == 0 || net.Cands[ad.x][u-1].Advisor != i {
			return true
		}
		if v == 0 {
			return true // i was never advised: no temporal conflict
		}
		return net.Cands[i][v-1].End < net.Cands[ad.x][u-1].Start
	}

	o := par.Opts{P: cfg.P, Ctx: cfg.Ctx}
	incoming := make([][]float64, n) // summed f_j -> y_i
	for i := 0; i < n; i++ {
		incoming[i] = make([]float64, dom[i])
	}
	for sweep := 0; sweep < cfg.Sweeps; sweep++ {
		if o.Err() != nil {
			break // best-effort: report beliefs of the completed sweeps
		}
		// Variable -> factor messages. Each variable x gathers the messages
		// of its candidate-advisor factors through the reverse index in its
		// fixed candidate order, so the floating-point sums are identical at
		// any parallelism level; writes are disjoint per variable.
		par.For(o, n, func(lo, hi int) {
			for x := lo; x < hi; x++ {
				inc := incoming[x]
				for u := range inc {
					inc[u] = 0
				}
				for idx, c := range net.Cands[x] {
					msg := mFxV[c.Advisor][pos[x][idx]]
					for u := range inc {
						inc[u] += msg[u]
					}
				}
				copy(mVF[x], inc)
				normalizeMsg(mVF[x])
			}
		})
		// y_x -> f_j: all incoming except f_j's own message, plus x's own
		// factor message mFV[x]. Disjoint per factor j.
		par.For(o, n, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				for a, ad := range advisees[j] {
					x := ad.x
					for u := 0; u < dom[x]; u++ {
						mVFx[j][a][u] = mFV[x][u] + incoming[x][u] - mFxV[j][a][u]
					}
					normalizeMsg(mVFx[j][a])
				}
			}
		})

		// Factor -> variable messages. Disjoint per factor i.
		par.For(o, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				na := len(advisees[i])
				// term[a][v] = max_u (compat ? mVFx[i][a][u] : -inf)
				term := make([][]float64, na)
				for a := 0; a < na; a++ {
					term[a] = make([]float64, dom[i])
					for v := 0; v < dom[i]; v++ {
						best := negInf
						for u := 0; u < dom[advisees[i][a].x]; u++ {
							if compat(i, a, u, v) {
								if m := mVFx[i][a][u]; m > best {
									best = m
								}
							}
						}
						term[a][v] = best
					}
				}
				sum := make([]float64, dom[i])
				for v := 0; v < dom[i]; v++ {
					s := 0.0
					for a := 0; a < na; a++ {
						s += term[a][v]
					}
					sum[v] = s
				}
				// f_i -> y_i.
				for v := 0; v < dom[i]; v++ {
					mFV[i][v] = logPrior[i][v] + sum[v]
				}
				normalizeMsg(mFV[i])
				// f_i -> y_x for each advisee a.
				for a := 0; a < na; a++ {
					x := advisees[i][a].x
					for u := 0; u < dom[x]; u++ {
						best := negInf
						for v := 0; v < dom[i]; v++ {
							if !compat(i, a, u, v) {
								continue
							}
							cand := logPrior[i][v] + mVF[i][v] + sum[v] - term[a][v]
							if cand > best {
								best = cand
							}
						}
						mFxV[i][a][u] = best
					}
					normalizeMsg(mFxV[i][a])
				}
			}
		})
	}

	// Beliefs -> normalized ranks.
	res := &Result{Net: net, Rank: make([][]float64, n)}
	for i := 0; i < n; i++ {
		b := make([]float64, dom[i])
		for v := 0; v < dom[i]; v++ {
			b[v] = mFV[i][v] + mVF[i][v]
		}
		// Softmax normalization turns max-sum beliefs into ranking scores.
		max := negInf
		for _, v := range b {
			if v > max {
				max = v
			}
		}
		s := 0.0
		for v := range b {
			b[v] = math.Exp(b[v] - max)
			s += b[v]
		}
		for v := range b {
			b[v] /= s
		}
		res.Rank[i] = b
	}
	return res
}

// Predict returns each author's top-ranked advisor (-1 for the virtual
// no-advisor node).
func (r *Result) Predict() []int {
	out := make([]int, r.Net.NumAuthors)
	for i := range out {
		out[i], _ = r.Best(i)
	}
	return out
}

// Best returns author i's top-ranked advisor (-1 for the virtual
// no-advisor node) and its rank mass. The argmax is strict (the first
// maximum wins) and the score is that argmax entry of Rank[i] itself, so
// it stays right when the candidate list repeats an advisor.
func (r *Result) Best(i int) (int, float64) {
	best, bestV := 0, r.Rank[i][0]
	for v := 1; v < len(r.Rank[i]); v++ {
		if r.Rank[i][v] > bestV {
			best, bestV = v, r.Rank[i][v]
		}
	}
	if best == 0 {
		return -1, bestV
	}
	return r.Net.Cands[i][best-1].Advisor, bestV
}
