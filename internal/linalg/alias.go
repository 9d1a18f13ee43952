package linalg

// Walker alias tables: O(1) draws from a fixed discrete distribution after
// an O(n) build (Walker 1977, with Vose's stable construction). The Gibbs
// samplers use one table per vocabulary word for the dense word-proposal
// bucket, rebuilt once per sweep from the frozen global count tables, so
// the build is written to run allocation-free against caller-provided
// backing storage (AliasBuilder) and the table itself is a value type that
// can live inside a per-word slice.

// Alias is a built alias table over n weighted outcomes. The zero value is
// an empty table with Total 0; Draw must not be called on it.
type Alias struct {
	n int
	// prob[i] is the acceptance threshold of column i in [0, 1]; a draw
	// landing in column i with intra-column position >= prob[i] is
	// redirected to alias[i].
	prob  []float64
	alias []int32
	// out maps column indices to outcome ids; nil means the identity
	// (outcome i is i).
	out []int32
	// Total is the sum of the input weights — the distribution's
	// unnormalized mass, which bucket-decomposed samplers need to weigh
	// this table against their other buckets.
	Total float64
}

// Draw maps one uniform variate u in [0, 1) to an outcome id. A single
// variate drives both the column choice and the accept/redirect test (the
// standard one-uniform trick), so callers consume exactly one PRNG step
// per draw — the determinism contract's bookkeeping stays trivial.
func (a *Alias) Draw(u float64) int {
	i := DrawColumn(a.prob, a.alias, u)
	if a.out != nil {
		return int(a.out[i])
	}
	return i
}

// DrawColumn is Draw over a table's bare column arrays: prob and alias as
// Build filled them (equal lengths, at least one column), the result a
// column index. It lets a caller keep many tables in two flat arrays —
// one row per table — with no Alias value per table, and it draws exactly
// what Draw on the built table would.
func DrawColumn(prob []float64, alias []int32, u float64) int {
	n := len(prob)
	f := u * float64(n)
	i := int(f)
	if i >= n { // u == 1-ulp rounding up
		i = n - 1
	}
	if f-float64(i) >= prob[i] {
		i = int(alias[i])
	}
	return i
}

// Mass returns the exact probability mass the built table assigns to each
// column (before the out mapping), for verification: column i contributes
// prob[i]/n to itself and (1-prob[i])/n to alias[i]. A correct build makes
// Mass()[i] == weights[i]/Total up to float rounding.
func (a *Alias) Mass() []float64 {
	mass := make([]float64, a.n)
	inv := 1 / float64(a.n)
	for i := 0; i < a.n; i++ {
		mass[i] += a.prob[i] * inv
		mass[int(a.alias[i])] += (1 - a.prob[i]) * inv
	}
	return mass
}

// AliasBuilder builds alias tables, reusing its internal worklists across
// builds. The zero value is ready to use; a builder must not be shared
// across goroutines.
type AliasBuilder struct {
	small, large []int32
}

// NewAlias builds a standalone table over weights with identity outcomes.
// Weights must be nonnegative; all-zero weights yield an empty table.
func NewAlias(weights []float64) *Alias {
	var b AliasBuilder
	a := b.Build(nil, weights, nil, nil)
	return &a
}

// Build constructs the table for the given nonnegative weights. out, when
// non-nil, supplies the outcome id of each weight (and is retained by the
// table, not copied). prob and alias, when non-nil, must have len(weights)
// and become the table's backing storage — callers batching many small
// tables (one per vocabulary word) slice them out of two shared arrays;
// nil allocates fresh storage.
//
// The construction is Vose's: scale weights to mean 1, pair each
// deficient column with a surplus one. Worklists fill in ascending index
// order and pop from the end, so the built table — and with it every
// sampled trajectory — is a pure function of the weights.
func (b *AliasBuilder) Build(out []int32, weights []float64, prob []float64, alias []int32) Alias {
	n := len(weights)
	if prob == nil {
		prob = make([]float64, n)
	}
	if alias == nil {
		alias = make([]int32, n)
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if n == 0 || total <= 0 {
		return Alias{}
	}
	scale := float64(n) / total
	b.small = b.small[:0]
	b.large = b.large[:0]
	for i, w := range weights {
		prob[i] = w * scale
		alias[i] = int32(i)
		if prob[i] < 1 {
			b.small = append(b.small, int32(i))
		} else {
			b.large = append(b.large, int32(i))
		}
	}
	for len(b.small) > 0 && len(b.large) > 0 {
		s := b.small[len(b.small)-1]
		b.small = b.small[:len(b.small)-1]
		l := b.large[len(b.large)-1]
		alias[s] = l
		// Column l donates (1 - prob[s]) of its surplus to column s.
		prob[l] -= 1 - prob[s]
		if prob[l] < 1 {
			b.large = b.large[:len(b.large)-1]
			b.small = append(b.small, l)
		}
	}
	// Leftovers on either list sit at (or within rounding of) exactly 1.
	for _, i := range b.large {
		prob[i] = 1
	}
	for _, i := range b.small {
		prob[i] = 1
	}
	return Alias{n: n, prob: prob, alias: alias, out: out, Total: total}
}
