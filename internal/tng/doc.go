// Package tng implements a Topical N-Gram baseline (Wang, McCallum & Wei
// 2007) in the simplified form the paper's Chapter 4 comparisons require:
// a collapsed Gibbs sampler with a per-token bigram-status variable. When a
// token's status is 1 it continues a phrase with the previous token, draws
// its word from a (topic, previous-word)-specific bigram distribution, and
// shares the previous token's topic; consecutive status-1 tokens chain into
// n-grams ("these bigrams can be combined to form n-gram phrases").
//
// Config.Discount turns it into the stand-in for PD-LDA (Lindsey et al.
// 2012) that Chapter 4's PDLDA* rows run: the same sampler with a
// Pitman-Yor-style discount on the bigram counts, but none of PD-LDA's
// hierarchical Pitman-Yor seating, so its runtime is a lower bound on
// PD-LDA's (Table 4.5).
//
// Run is a kernel pair, initialization and sweep, on the Gibbs pass
// driver internal/lda also uses (par.Sweeper): chunked passes against
// frozen global counts plus chunk-private deltas, folded per worker and
// merged after the pass, so the fitted model is bit-identical at any
// parallelism.
package tng
