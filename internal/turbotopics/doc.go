// Package turbotopics implements a TurboTopics-style baseline (Blei &
// Lafferty 2009): after a plain LDA run, adjacent same-topic tokens are
// recursively merged into multiword expressions whenever their collocation
// is statistically significant. The original uses permutation tests over a
// back-off n-gram model; we use the same normal-approximation significance
// score as ToPMine (Eq. 4.7), which preserves the method's behaviour at a
// fraction of the cost (the substitution is listed under "Stand-ins" in
// docs/ARCHITECTURE.md — TurboTopics' runtime in Table 4.5 is therefore a
// lower bound).
package turbotopics
