// Package lda implements latent Dirichlet allocation with collapsed Gibbs
// sampling, the workhorse baseline of the paper's evaluations (Sections
// 4.4.2-4.4.3, Chapter 7) and the topic-inference substrate of KERT.
//
// Two variants extend the plain sampler:
//
//   - a background topic (topic index K) with an inflated document prior,
//     which absorbs corpus-wide common words — the "background LDA" used by
//     KERT (Section 4.4.3);
//   - PhraseLDA, the phrase-constrained sampler of ToPMine, where all words
//     of a mined phrase share one topic assignment.
//
// Both samplers are deterministically parallel: sweeps run as chunked
// document passes on the shared runtime (internal/par), every document
// draws from its own counter-based PRNG stream keyed by (seed, doc,
// sweep), and the integer count deltas reach the global tables whole,
// whichever worker folded them, so a fitted model is a pure function of
// the seed at any Config.P (see gibbs.go for the design and its
// AD-LDA-style staleness trade).
//
// Two sampling cores implement the per-token draw (Config.Sampler /
// FoldInConfig.Sampler): the classic dense O(K) core, and the MH core —
// LightLDA-style Metropolis–Hastings over stale Walker alias proposals,
// O(1) amortized per token (mh.go). SamplerAuto picks dense for small
// topic/vocabulary workloads and MH above them. Every fit variant runs
// through one sweep driver (gibbs.go). Fold-in inference against a frozen
// model (foldin.go) shares the machinery and is what the serving daemon
// runs per request.
package lda
