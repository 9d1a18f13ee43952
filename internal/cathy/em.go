package cathy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"lesm/internal/core"
	"lesm/internal/hin"
	"lesm/internal/obs"
	"lesm/internal/par"
)

// emState holds the parameters of one clustering step: k subtopics plus the
// background topic (index 0) over the typed network g.
type emState struct {
	g          *hin.Network
	k          int
	background bool
	pairs      []hin.TypePair
	// linkOff[pi] is the first flat link index of pair pi; linkOff[len(pairs)]
	// is the total link count. The flat index drives deterministic chunking
	// of the E-step across workers.
	linkOff []int
	// pairW[pi] caches sum of raw link weights of pair pi.
	pairW []float64
	// alpha is the link-type weight per pair (Section 3.2.2).
	alpha map[hin.TypePair]float64
	// rho[z] for z in 0..k; rho[0] is the background share (0 if disabled).
	rho []float64
	// phi holds phi^x_z(i) node-major (see table); z = 0 is the background
	// distribution per type, left unnormalized and unread without a
	// background topic.
	phi table
	// next is the M-step's target, swapped with phi after every sweep.
	next table
	// parentPhi[x][i] is phi^x_t of the topic being split (the second end of
	// background links draws from it).
	parentPhi [][]float64
	// childW[(linkOff[pi]+li)*k+z-1] is the expected weight of link li of
	// pair pi in subtopic z (both directions summed), filled by the final
	// E pass.
	childW []float64
	// logL is the log-likelihood under the parameters the last sweep
	// started from. Only the final pass computes it; other passes leave
	// NaN.
	logL float64
	// accs is the pool of per-chunk E-step accumulators, reused across
	// sweeps (the per-worker scratch of the parallel runtime).
	accs []*sweepAcc
	// rows[c] lists, ascending, the table rows (one node of one type, its
	// k+1 values) that chunk c's links touch: the only rows its
	// accumulator's phi ever holds nonzero. Built with the first accs,
	// since the links and the chunking are fixed.
	rows [][]int
	// genericOnly runs every E pass through the generic per-link loop,
	// bypassing the small-k kernels (the differential test's reference).
	genericOnly bool
}

// table stores k+1 topic values per node for every node type, node-major:
// byType[x][i*(k+1)+z] is topic z's value at type-x node i. The k+1 values
// one link end reads and writes are adjacent, and all types share the one
// backing array flat, so merging and clearing run over a contiguous range.
type table struct {
	flat   []float64
	byType [][]float64
}

func newTable(nz int, numNodes []int) table {
	n := 0
	for _, c := range numNodes {
		n += c * nz
	}
	t := table{flat: make([]float64, n), byType: make([][]float64, len(numNodes))}
	off := 0
	for x, c := range numNodes {
		t.byType[x] = t.flat[off : off+c*nz : off+c*nz]
		off += c * nz
	}
	return t
}

// sweepAcc is one chunk's E-step accumulator. Chunks are merged in chunk
// order, so results are bit-identical at any parallelism level.
type sweepAcc struct {
	rho    []float64
	phi    table
	s      []float64 // per-link posterior scratch
	logL   float64
	totalW float64
}

func newSweepAcc(nz int, g *hin.Network) *sweepAcc {
	return &sweepAcc{rho: make([]float64, nz), phi: newTable(nz, g.NumNodes), s: make([]float64, nz)}
}

// reset clears the scalar accumulators; the merge already cleared phi.
func (a *sweepAcc) reset() {
	clear(a.rho)
	a.logL = 0
	a.totalW = 0
}

// runBest runs EM with opt.Restarts random initializations and returns the
// best-likelihood state (the paper's standard multi-start strategy).
func runBest(g *hin.Network, t *core.TopicNode, k int, opt Options, rng *rand.Rand, o par.Opts) (*emState, error) {
	var best *emState
	for r := 0; r < opt.Restarts; r++ {
		st := newEMState(g, t, k, opt, rng)
		label := ""
		if opt.Rec != nil {
			label = fmt.Sprintf("%s k=%d r%d", t.Path, k, r)
		}
		if err := st.run(opt, o, label); err != nil {
			return nil, err
		}
		if best == nil || st.logL > best.logL {
			best = st
		}
	}
	return best, nil
}

func newEMState(g *hin.Network, t *core.TopicNode, k int, opt Options, rng *rand.Rand) *emState {
	st := &emState{g: g, k: k, background: opt.Background}
	for p := range g.Links {
		st.pairs = append(st.pairs, p)
	}
	sort.Slice(st.pairs, func(a, b int) bool {
		if st.pairs[a].X != st.pairs[b].X {
			return st.pairs[a].X < st.pairs[b].X
		}
		return st.pairs[a].Y < st.pairs[b].Y
	})
	st.linkOff = make([]int, len(st.pairs)+1)
	st.pairW = make([]float64, len(st.pairs))
	for pi, p := range st.pairs {
		st.linkOff[pi+1] = st.linkOff[pi] + len(g.Links[p])
		w := 0.0
		for _, l := range g.Links[p] {
			w += l.W
		}
		st.pairW[pi] = w
	}
	st.alpha = map[hin.TypePair]float64{}
	switch opt.Weights {
	case NormWeights:
		for _, p := range st.pairs {
			if w := g.PairWeight(p); w > 0 {
				st.alpha[p] = 1 / w
			} else {
				st.alpha[p] = 1
			}
		}
		st.normalizeAlpha()
	default:
		for _, p := range st.pairs {
			st.alpha[p] = 1
		}
	}
	// parentPhi: the current topic's ranking distribution per type; for the
	// root this is the degree distribution (set by Build), and for non-root
	// topics it is the phi estimated when the parent was split.
	base := make([][]float64, g.NumTypes())
	st.parentPhi = make([][]float64, g.NumTypes())
	for x := 0; x < g.NumTypes(); x++ {
		base[x] = degreeDistribution(g, core.TypeID(x))
		if p, ok := t.Phi[core.TypeID(x)]; ok && len(p) == g.NumNodes[x] {
			st.parentPhi[x] = p
		} else {
			st.parentPhi[x] = base[x]
		}
	}
	// Random initialization of phi and rho: each (z, x) column draws its
	// perturbations in node order.
	nz := k + 1
	st.phi = newTable(nz, g.NumNodes)
	for z := 0; z <= k; z++ {
		for x, d := range st.phi.byType {
			for i, b := range base[x] {
				d[i*nz+z] = b * (0.5 + rng.Float64())
			}
			normalizeColumns(d, nz, z, z+1)
		}
	}
	st.rho = make([]float64, k+1)
	bg := 0.0
	if st.background {
		bg = 0.15 // initial background share
	}
	st.rho[0] = bg
	for z := 1; z <= k; z++ {
		st.rho[z] = (1 - bg) / float64(k)
	}
	st.logL = math.NaN()
	return st
}

func normalize(d []float64) {
	s := 0.0
	for _, v := range d {
		s += v
	}
	if s <= 0 {
		for i := range d {
			d[i] = 1 / float64(len(d))
		}
		return
	}
	for i := range d {
		d[i] /= s
	}
}

// normalizeColumns applies normalize to each column z in [zlo, zhi) of the
// node-major rows d (nz values per node). Every column sums in ascending
// node order, so the result equals normalizing it as a contiguous slice.
func normalizeColumns(d []float64, nz, zlo, zhi int) {
	sums := make([]float64, nz)
	for r := 0; r < len(d); r += nz {
		row := d[r : r+nz]
		for z := zlo; z < zhi; z++ {
			sums[z] += row[z]
		}
	}
	uniform := 1 / float64(len(d)/nz)
	for r := 0; r < len(d); r += nz {
		row := d[r : r+nz]
		for z := zlo; z < zhi; z++ {
			if s := sums[z]; s <= 0 {
				row[z] = uniform
			} else {
				row[z] /= s
			}
		}
	}
}

// column returns a copy of topic z's distribution over the type-x nodes.
func (st *emState) column(z, x int) []float64 {
	nz := st.k + 1
	rows := st.phi.byType[x]
	out := make([]float64, len(rows)/nz)
	for i := range out {
		out[i] = rows[i*nz+z]
	}
	return out
}

func (st *emState) normalizeAlpha() {
	// Rescale alphas so the weighted geometric mean is 1 (Theorem 3.2's
	// invariance constraint), keeping likelihoods comparable across modes.
	logSum, n := 0.0, 0.0
	for _, p := range st.pairs {
		np := float64(len(st.g.Links[p]))
		logSum += np * math.Log(st.alpha[p])
		n += np
	}
	if n == 0 {
		return
	}
	gmean := math.Exp(logSum / n)
	for _, p := range st.pairs {
		st.alpha[p] /= gmean
	}
}

// run executes opt.EMIters E/M sweeps, optionally re-estimating the
// link-type weights, then a final sweep that fills childW and the
// log-likelihood restart selection and BIC compare. When opt.Rec is set,
// each sweep emits one obs.SweepStats; only the final one carries a
// log-likelihood (the earlier sweeps skip computing it and report NaN).
func (st *emState) run(opt Options, o par.Opts, label string) error {
	nLinks := st.linkOff[len(st.pairs)]
	sweeps := opt.EMIters + 1
	emit := func(it int, took time.Duration) {
		if opt.Rec == nil {
			return
		}
		opt.Rec.RecordSweep(obs.SweepStats{
			Engine: "cathy",
			Label:  label,
			Sweep:  it,
			Sweeps: sweeps,
			Docs:   nLinks,
			// Each link is visited in both directions per E pass.
			Tokens:        2 * int64(nLinks),
			Chunks:        sweepChunks(nLinks),
			SweepTime:     took,
			LogLikelihood: st.logL,
		})
	}
	var t0 time.Time
	for it := 0; it < opt.EMIters; it++ {
		if opt.Rec != nil {
			t0 = time.Now()
		}
		if err := st.sweep(false, o); err != nil {
			return err
		}
		if opt.Weights == LearnWeights && it >= 2 && it%5 == 2 {
			if err := st.updateAlpha(o); err != nil {
				return err
			}
		}
		emit(it+1, time.Since(t0))
	}
	if opt.Rec != nil {
		t0 = time.Now()
	}
	if err := st.sweep(true, o); err != nil {
		return err
	}
	emit(sweeps, time.Since(t0))
	// The sweep scratch is dead once the run is over; drop it so a kept
	// best state does not pin it through the remaining restarts.
	st.accs, st.next = nil, table{}
	return nil
}

// pairAt returns the index of the pair containing flat link index i.
func (st *emState) pairAt(i int) int {
	return sort.SearchInts(st.linkOff, i+1) - 1
}

// maxSweepChunks caps the E-step's link chunking below the runtime's
// default policy: each chunk holds a sweepAcc of O(topics x nodes) floats,
// so the cap bounds the scratch at 32 copies while still exposing 32-way
// parallelism.
const maxSweepChunks = 32

func sweepChunks(nLinks int) int { return par.NumChunksCapped(nLinks, maxSweepChunks) }

// sweep performs one E+M step. When final is true it also records per-link
// child weights and the log-likelihood under the pre-update parameters;
// otherwise it skips the likelihood (the M-step never reads it) and leaves
// st.logL NaN. The E pass runs on the shared worker pool: links are chunked
// deterministically by flat index, each chunk accumulates into its own
// scratch (from the reusable pool), and chunks merge in order — so the
// result is identical at any parallelism level. A non-final pass with k in
// 2..4 runs each pair's links through the register kernel for that k (see
// eSpan), which repeats the generic loop's arithmetic operation for
// operation.
func (st *emState) sweep(final bool, o par.Opts) error {
	k := st.k
	g := st.g
	nz := k + 1
	nLinks := st.linkOff[len(st.pairs)]
	if final {
		st.childW = make([]float64, nLinks*k)
	}
	if st.accs == nil {
		st.accs = make([]*sweepAcc, sweepChunks(nLinks))
	}
	if st.rows == nil {
		st.rows = st.chunkRows(len(st.accs))
	}
	rho, phi, parentPhi := st.rho, st.phi.byType, st.parentPhi
	kernel := st.kernel(final)
	err := par.ForChunksN(o, nLinks, sweepChunks(nLinks), func(c, lo, hi int) {
		acc := st.accs[c]
		if acc == nil {
			acc = newSweepAcc(nz, g)
			st.accs[c] = acc
		} else {
			acc.reset()
		}
		s, arho, aphi := acc.s[:nz], acc.rho[:nz], acc.phi.byType
		for pi, idx := st.pairAt(lo), lo; idx < hi; pi++ {
			p := st.pairs[pi]
			links := g.Links[p]
			a := st.alpha[p]
			x, y := int(p.X), int(p.Y)
			phiX, phiY, accX, accY := phi[x], phi[y], aphi[x], aphi[y]
			parentX, parentY := parentPhi[x], parentPhi[y]
			end := hi - st.linkOff[pi]
			if end > len(links) {
				end = len(links)
			}
			if kernel != 0 {
				sp := eSpan{links: links[idx-st.linkOff[pi] : end], alpha: a,
					background: st.background, phiX: phiX, phiY: phiY,
					parentX: parentX, parentY: parentY, accX: accX, accY: accY}
				switch kernel {
				case 2:
					sp.pass2(rho, arho)
				case 3:
					sp.pass3(rho, arho)
				case 4:
					sp.pass4(rho, arho)
				}
				idx = st.linkOff[pi] + end
				continue
			}
			for li := idx - st.linkOff[pi]; li < end; li++ {
				l := links[li]
				w := a * l.W
				var cwz []float64
				if final {
					acc.totalW += 2 * w // both directions
					off := (st.linkOff[pi] + li) * k
					cwz = st.childW[off : off+k]
				}
				// The rows of the first end (pa in phi, read; ea in the
				// accumulator, written) and of the second end (pb, eb),
				// plus the second end's parentPhi (pp at j). On a
				// self-loop the two ends' rows alias, exactly as the
				// per-topic columns would.
				ri, rj := l.I*nz, l.J*nz
				pa, pb := phiX[ri:ri+nz], phiY[rj:rj+nz]
				ea, eb := accX[ri:ri+nz], accY[rj:rj+nz]
				pp, j := parentY, l.J
				// Two directions: (I first, J second), then (J first, I second).
				for dir := 0; dir < 2; dir++ {
					total := 0.0
					for z := 1; z < nz; z++ {
						v := rho[z] * pa[z] * pb[z]
						s[z] = v
						total += v
					}
					if st.background {
						v := rho[0] * pa[0] * pp[j]
						s[0] = v
						total += v
					} else {
						s[0] = 0
					}
					if total <= 0 {
						// Degenerate link: spread uniformly over subtopics.
						for z := 1; z < nz; z++ {
							s[z] = 1
						}
						total = float64(k)
					}
					if final {
						acc.logL += w * math.Log(total)
					}
					for z := 1; z < nz; z++ {
						e := w * s[z] / total
						arho[z] += e
						ea[z] += e
						eb[z] += e
						if final {
							cwz[z-1] += e
						}
					}
					if st.background {
						e := w * s[0] / total
						arho[0] += e
						ea[0] += e
					}
					pa, pb, ea, eb, pp, j = pb, pa, eb, ea, parentX, l.I
				}
			}
			idx = st.linkOff[pi] + end
		}
	})
	if err != nil {
		st.accs = nil // partly filled; never merged or cleared
		return err
	}
	if st.next.flat == nil {
		st.next = newTable(nz, g.NumNodes)
	}
	st.mergePhi(o.P)
	rhoAcc := make([]float64, nz)
	logL := 0.0
	totalW := 0.0
	for _, acc := range st.accs {
		logL += acc.logL
		totalW += acc.totalW
		for z := range rhoAcc {
			rhoAcc[z] += acc.rho[z]
		}
	}
	if final {
		// Add the theta term: sum over pairs of (directed weight)*log(theta_xy),
		// theta_xy = directed pair weight / total directed weight; minus M.
		for pi, p := range st.pairs {
			pw := 2 * st.alpha[p] * st.pairW[pi]
			if pw > 0 && totalW > 0 {
				logL += pw * math.Log(pw/totalW)
			}
		}
		logL -= totalW
		st.logL = logL
	} else {
		st.logL = math.NaN()
	}
	// M-step.
	zlo := 0
	if !st.background {
		zlo = 1
	}
	for _, d := range st.next.byType {
		normalizeColumns(d, nz, zlo, nz)
	}
	st.phi, st.next = st.next, st.phi
	normalize(rhoAcc)
	if !st.background {
		rhoAcc[0] = 0
		normalize(rhoAcc)
		rhoAcc[0] = 0
	}
	st.rho = rhoAcc
	return nil
}

// kernel returns the k whose register kernel runs the E pass, or 0 for the
// generic loop: the final pass (which also records the likelihood and the
// child weights) and every k outside 2..4 take the generic loop.
func (st *emState) kernel(final bool) int {
	if final || st.genericOnly || st.k < 2 || st.k > 4 {
		return 0
	}
	return st.k
}

// eSpan is one pair's run of links within a chunk, with the rows a
// non-final E pass reads (phi and the parent's phi of each end's type) and
// accumulates into (the chunk's phi table).
//
// Its pass methods are the E pass for k = 2, 3 and 4. The generic loop
// keeps the chunk's rho accumulators and the per-link scratch s in memory,
// so every link's updates wait on a store and a reload; the kernels hold
// rho, the products and the rho accumulators in locals (registers) for the
// whole span and write the accumulators back at its end. Each kernel
// repeats the generic loop's arithmetic operation for operation, so the
// results are the same bits:
//   - per direction, product z is rho[z]*pa[z]*pb[z] in that operand order,
//     computed separately for each direction;
//   - total sums z = 1..k in ascending order, then adds the background term
//     (the generic loop starts the sum from 0, which changes at most the
//     sign of a zero total, and every zero total takes the degenerate
//     branch);
//   - a total <= 0 sets every subtopic product to 1 and total to k;
//   - each share is w*s[z]/total, never a multiply by a reciprocal;
//   - each share goes to the rho accumulator, then ea, then eb, and the
//     background share to ea[0] only;
//   - on a self-loop, pa/pb and ea/eb are the same row, as in the generic
//     loop, and every accumulator element still sees its additions in the
//     generic loop's order.
//
// One function per k: a single kernel with branch-guarded lanes ran slower
// than the dedicated k=3 one, from the extra register pressure.
type eSpan struct {
	links            []hin.Link
	alpha            float64
	background       bool
	phiX, phiY       []float64
	parentX, parentY []float64
	accX, accY       []float64
}

// pass2 is the non-final E pass over the span for k = 2.
func (sp *eSpan) pass2(rho, arho []float64) {
	const nz = 3
	a, bg := sp.alpha, sp.background
	phiX, phiY, parentX, parentY := sp.phiX, sp.phiY, sp.parentX, sp.parentY
	accX, accY := sp.accX, sp.accY
	r0, r1, r2 := rho[0], rho[1], rho[2]
	h0, h1, h2 := arho[0], arho[1], arho[2]
	for _, l := range sp.links {
		w := a * l.W
		ri, rj := l.I*nz, l.J*nz
		pa, pb := phiX[ri:ri+nz:ri+nz], phiY[rj:rj+nz:rj+nz]
		ea, eb := accX[ri:ri+nz:ri+nz], accY[rj:rj+nz:rj+nz]

		// I first, J second.
		s1 := r1 * pa[1] * pb[1]
		s2 := r2 * pa[2] * pb[2]
		total := s1 + s2
		s0 := 0.0
		if bg {
			s0 = r0 * pa[0] * parentY[l.J]
			total += s0
		}
		if total <= 0 {
			s1, s2, total = 1, 1, 2
		}
		e := w * s1 / total
		h1 += e
		ea[1] += e
		eb[1] += e
		e = w * s2 / total
		h2 += e
		ea[2] += e
		eb[2] += e
		if bg {
			e = w * s0 / total
			h0 += e
			ea[0] += e
		}

		// J first, I second.
		s1 = r1 * pb[1] * pa[1]
		s2 = r2 * pb[2] * pa[2]
		total = s1 + s2
		if bg {
			s0 = r0 * pb[0] * parentX[l.I]
			total += s0
		}
		if total <= 0 {
			s1, s2, total = 1, 1, 2
		}
		e = w * s1 / total
		h1 += e
		eb[1] += e
		ea[1] += e
		e = w * s2 / total
		h2 += e
		eb[2] += e
		ea[2] += e
		if bg {
			e = w * s0 / total
			h0 += e
			eb[0] += e
		}
	}
	arho[0], arho[1], arho[2] = h0, h1, h2
}

// pass3 is the non-final E pass over the span for k = 3.
func (sp *eSpan) pass3(rho, arho []float64) {
	const nz = 4
	a, bg := sp.alpha, sp.background
	phiX, phiY, parentX, parentY := sp.phiX, sp.phiY, sp.parentX, sp.parentY
	accX, accY := sp.accX, sp.accY
	r0, r1, r2, r3 := rho[0], rho[1], rho[2], rho[3]
	h0, h1, h2, h3 := arho[0], arho[1], arho[2], arho[3]
	for _, l := range sp.links {
		w := a * l.W
		ri, rj := l.I*nz, l.J*nz
		pa, pb := phiX[ri:ri+nz:ri+nz], phiY[rj:rj+nz:rj+nz]
		ea, eb := accX[ri:ri+nz:ri+nz], accY[rj:rj+nz:rj+nz]

		// I first, J second.
		s1 := r1 * pa[1] * pb[1]
		s2 := r2 * pa[2] * pb[2]
		s3 := r3 * pa[3] * pb[3]
		total := s1 + s2 + s3
		s0 := 0.0
		if bg {
			s0 = r0 * pa[0] * parentY[l.J]
			total += s0
		}
		if total <= 0 {
			s1, s2, s3, total = 1, 1, 1, 3
		}
		e := w * s1 / total
		h1 += e
		ea[1] += e
		eb[1] += e
		e = w * s2 / total
		h2 += e
		ea[2] += e
		eb[2] += e
		e = w * s3 / total
		h3 += e
		ea[3] += e
		eb[3] += e
		if bg {
			e = w * s0 / total
			h0 += e
			ea[0] += e
		}

		// J first, I second.
		s1 = r1 * pb[1] * pa[1]
		s2 = r2 * pb[2] * pa[2]
		s3 = r3 * pb[3] * pa[3]
		total = s1 + s2 + s3
		if bg {
			s0 = r0 * pb[0] * parentX[l.I]
			total += s0
		}
		if total <= 0 {
			s1, s2, s3, total = 1, 1, 1, 3
		}
		e = w * s1 / total
		h1 += e
		eb[1] += e
		ea[1] += e
		e = w * s2 / total
		h2 += e
		eb[2] += e
		ea[2] += e
		e = w * s3 / total
		h3 += e
		eb[3] += e
		ea[3] += e
		if bg {
			e = w * s0 / total
			h0 += e
			eb[0] += e
		}
	}
	arho[0], arho[1], arho[2], arho[3] = h0, h1, h2, h3
}

// pass4 is the non-final E pass over the span for k = 4.
func (sp *eSpan) pass4(rho, arho []float64) {
	const nz = 5
	a, bg := sp.alpha, sp.background
	phiX, phiY, parentX, parentY := sp.phiX, sp.phiY, sp.parentX, sp.parentY
	accX, accY := sp.accX, sp.accY
	r0, r1, r2, r3, r4 := rho[0], rho[1], rho[2], rho[3], rho[4]
	h0, h1, h2, h3, h4 := arho[0], arho[1], arho[2], arho[3], arho[4]
	for _, l := range sp.links {
		w := a * l.W
		ri, rj := l.I*nz, l.J*nz
		pa, pb := phiX[ri:ri+nz:ri+nz], phiY[rj:rj+nz:rj+nz]
		ea, eb := accX[ri:ri+nz:ri+nz], accY[rj:rj+nz:rj+nz]

		// I first, J second.
		s1 := r1 * pa[1] * pb[1]
		s2 := r2 * pa[2] * pb[2]
		s3 := r3 * pa[3] * pb[3]
		s4 := r4 * pa[4] * pb[4]
		total := s1 + s2 + s3 + s4
		s0 := 0.0
		if bg {
			s0 = r0 * pa[0] * parentY[l.J]
			total += s0
		}
		if total <= 0 {
			s1, s2, s3, s4, total = 1, 1, 1, 1, 4
		}
		e := w * s1 / total
		h1 += e
		ea[1] += e
		eb[1] += e
		e = w * s2 / total
		h2 += e
		ea[2] += e
		eb[2] += e
		e = w * s3 / total
		h3 += e
		ea[3] += e
		eb[3] += e
		e = w * s4 / total
		h4 += e
		ea[4] += e
		eb[4] += e
		if bg {
			e = w * s0 / total
			h0 += e
			ea[0] += e
		}

		// J first, I second.
		s1 = r1 * pb[1] * pa[1]
		s2 = r2 * pb[2] * pa[2]
		s3 = r3 * pb[3] * pa[3]
		s4 = r4 * pb[4] * pa[4]
		total = s1 + s2 + s3 + s4
		if bg {
			s0 = r0 * pb[0] * parentX[l.I]
			total += s0
		}
		if total <= 0 {
			s1, s2, s3, s4, total = 1, 1, 1, 1, 4
		}
		e = w * s1 / total
		h1 += e
		eb[1] += e
		ea[1] += e
		e = w * s2 / total
		h2 += e
		eb[2] += e
		ea[2] += e
		e = w * s3 / total
		h3 += e
		eb[3] += e
		ea[3] += e
		e = w * s4 / total
		h4 += e
		eb[4] += e
		ea[4] += e
		if bg {
			e = w * s0 / total
			h0 += e
			eb[0] += e
		}
	}
	arho[0], arho[1], arho[2], arho[3], arho[4] = h0, h1, h2, h3, h4
}

// chunkRows returns, for each of the nc chunks of the E pass, the
// ascending table rows its links touch: both ends of every link.
func (st *emState) chunkRows(nc int) [][]int {
	g := st.g
	// first[x] is the row of type x's node 0 in the flat table.
	first := make([]int, len(g.NumNodes)+1)
	for x, c := range g.NumNodes {
		first[x+1] = first[x] + c
	}
	seen := make([]int, first[len(g.NumNodes)]) // chunk c+1 listed the row
	nLinks := st.linkOff[len(st.pairs)]
	rows := make([][]int, nc)
	for c := range rows {
		var list []int
		add := func(r int) {
			if seen[r] != c+1 {
				seen[r] = c + 1
				list = append(list, r)
			}
		}
		lo, hi := par.ChunkBoundsN(nLinks, nc, c)
		for pi, idx := st.pairAt(lo), lo; idx < hi; pi++ {
			p := st.pairs[pi]
			links := g.Links[p]
			end := min(hi-st.linkOff[pi], len(links))
			for _, l := range links[idx-st.linkOff[pi] : end] {
				add(first[p.X] + l.I)
				add(first[p.Y] + l.J)
			}
			idx = st.linkOff[pi] + end
		}
		sort.Ints(list)
		rows[c] = list
	}
	return rows
}

// mergeRanges is the number of row ranges the phi merge is split into.
// Every element still sums its chunks in chunk order, so the split cannot
// change a bit; it only bounds each worker's destination range (one eighth
// of the table stays cache-resident while the chunks stream past it).
const mergeRanges = 8

// mergePhi sums the chunk accumulators' phi tables into st.next in chunk
// order and clears them for the next sweep, on up to p workers. A chunk
// adds and clears only the rows its links touch (st.rows); its other rows
// hold +0.0, whose sum into a non-negative value changes no bit. It runs
// without the caller's context (so the scratch is never left half-cleared)
// and without its pool observer (the E pass is the sweep's reported pass).
func (st *emState) mergePhi(p int) {
	dst := st.next.flat
	nz := st.k + 1
	par.ForChunksN(par.Opts{P: p}, len(dst)/nz, mergeRanges, func(_, lo, hi int) {
		clear(dst[lo*nz : hi*nz])
		for c, acc := range st.accs {
			rows := st.rows[c]
			for _, r := range rows[sort.SearchInts(rows, lo):] {
				if r >= hi {
					break
				}
				d, src := dst[r*nz:(r+1)*nz], acc.phi.flat[r*nz:(r+1)*nz]
				for i := range d {
					d[i] += src[i]
				}
				clear(src)
			}
		}
	})
}

// updateAlpha re-estimates link-type weights by the closed form of Eq. 3.37:
// alpha is inversely proportional to sigma_{x,y}, the average per-link KL
// surprise of the observed weights under the current model, normalized to a
// unit weighted geometric mean. The per-link surprise accumulates on the
// worker pool with the same deterministic chunking as the E-step.
func (st *emState) updateAlpha(o par.Opts) error {
	k := st.k
	nz := k + 1
	nLinks := st.linkOff[len(st.pairs)]
	phi := st.phi.byType
	sums, err := par.MapReduce(o, nLinks,
		func() []float64 { return make([]float64, len(st.pairs)) },
		func(acc []float64, _, lo, hi int) {
			for pi, idx := st.pairAt(lo), lo; idx < hi; pi++ {
				p := st.pairs[pi]
				links := st.g.Links[p]
				x, y := int(p.X), int(p.Y)
				mxy := st.pairW[pi]
				end := hi - st.linkOff[pi]
				if end > len(links) {
					end = len(links)
				}
				for li := idx - st.linkOff[pi]; li < end; li++ {
					l := links[li]
					for dir := 0; dir < 2; dir++ {
						var fx, fy, fi, fj int
						if dir == 0 {
							fx, fy, fi, fj = x, y, l.I, l.J
						} else {
							fx, fy, fi, fj = y, x, l.J, l.I
						}
						pa, pb := phi[fx][fi*nz:fi*nz+nz], phi[fy][fj*nz:fj*nz+nz]
						sij := 0.0
						for z := 1; z <= k; z++ {
							sij += st.rho[z] * pa[z] * pb[z]
						}
						if st.background {
							sij += st.rho[0] * pa[0] * st.parentPhi[fy][fj]
						}
						if sij <= 1e-300 {
							sij = 1e-300
						}
						acc[pi] += l.W * math.Log(l.W/(mxy*sij))
					}
				}
				idx = st.linkOff[pi] + end
			}
		},
		func(dst, src []float64) {
			for i := range dst {
				dst[i] += src[i]
			}
		})
	if err != nil {
		return err
	}
	for pi, p := range st.pairs {
		links := st.g.Links[p]
		if len(links) == 0 {
			continue
		}
		s := sums[pi] / float64(2*len(links))
		if s < 1e-6 {
			s = 1e-6
		}
		st.alpha[p] = 1 / s
	}
	st.normalizeAlpha()
	// Clamp extreme weights for numerical safety.
	for p, a := range st.alpha {
		if a > 1e3 {
			st.alpha[p] = 1e3
		} else if a < 1e-3 {
			st.alpha[p] = 1e-3
		}
	}
	return nil
}

// childNetworks extracts the per-subtopic subnetworks: links whose expected
// subtopic weight is at least minW survive with that weight (Section 3.1's
// "expected number of links attributed to that topic, ignoring values less
// than 1").
func (st *emState) childNetworks(minW float64) []*hin.Network {
	subs := make([]*hin.Network, st.k)
	for z := range subs {
		s := hin.NewNetwork(st.g.TypeNames, st.g.NumNodes)
		s.Names = st.g.Names
		subs[z] = s
	}
	for pi, p := range st.pairs {
		links := st.g.Links[p]
		for li, l := range links {
			off := (st.linkOff[pi] + li) * st.k
			for z, w := range st.childW[off : off+st.k] {
				if w >= minW {
					subs[z].Links[p] = append(subs[z].Links[p], hin.Link{I: l.I, J: l.J, W: w})
				}
			}
		}
	}
	return subs
}
