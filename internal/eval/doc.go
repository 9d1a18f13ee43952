// Package eval implements the paper's evaluation machinery: pointwise
// mutual information and its heterogeneous extension HPMI (Eq. 3.44-3.45),
// the three intrusion-detection tasks of Section 3.3.2, the nKQM@K phrase
// quality measure of Section 4.4.1, mutual information at K (Figure 4.2),
// and relation-mining accuracy metrics.
//
// Human annotators are replaced by oracle judges that score items from the
// synthetic generator's ground truth with configurable noise (see
// "Stand-ins" in docs/ARCHITECTURE.md); the comparative signal between
// methods — what every table reports — is preserved.
package eval
