// Package synth generates the synthetic datasets that stand in for the
// paper's corpora (DBLP, Google NEWS, arXiv, DBLP abstracts, AP news, Yelp,
// and the DBLP temporal collaboration network). Every generator is
// deterministic given a seed and exposes the full ground truth so that
// oracle judges can replace the paper's human annotators (see "Stand-ins" in
// docs/ARCHITECTURE.md).
package synth
