package tpfg

import (
	"math"
	"math/rand"
	"sort"
)

// RuleBaseline predicts each author's advisor with the empirical rule of
// the paper's comparison (RULE): the advisor is the earliest senior
// collaborator — a co-author who started publishing at least two years
// before the first collaboration and has at least two joint papers — with
// ties broken by early-window co-publication volume. Rule systems of this
// kind have no way to arbitrate between an advisor and an advisor-lookalike
// (e.g. a senior labmate) who enters in the same year.
func RuleBaseline(papers []Paper, numAuthors int) []int {
	first := make([]int, numAuthors)
	for i := range first {
		first[i] = math.MaxInt32
	}
	for _, p := range papers {
		for _, a := range p.Authors {
			if p.Year < first[a] {
				first[a] = p.Year
			}
		}
	}
	firstCollab := make([]map[int]int, numAuthors)
	early := make([]map[int]float64, numAuthors)
	total := make([]map[int]float64, numAuthors)
	for i := range firstCollab {
		firstCollab[i] = map[int]int{}
		early[i] = map[int]float64{}
		total[i] = map[int]float64{}
	}
	for _, p := range papers {
		for _, a := range p.Authors {
			for _, b := range p.Authors {
				if a == b {
					continue
				}
				if y, ok := firstCollab[a][b]; !ok || p.Year < y {
					firstCollab[a][b] = p.Year
				}
				total[a][b]++
				if p.Year <= first[a]+1 {
					early[a][b]++
				}
			}
		}
	}
	out := make([]int, numAuthors)
	for i := range out {
		out[i] = -1
		bestYear := math.MaxInt32
		bestEarly := -1.0
		keys := make([]int, 0, len(firstCollab[i]))
		for j := range firstCollab[i] {
			keys = append(keys, j)
		}
		sort.Ints(keys)
		for _, j := range keys {
			fc := firstCollab[i][j]
			if first[j]+2 > fc || total[i][j] < 2 {
				continue // not senior enough or too few joint papers
			}
			if fc < bestYear || (fc == bestYear && early[i][j] > bestEarly) {
				bestYear = fc
				bestEarly = early[i][j]
				out[i] = j
			}
		}
	}
	return out
}

// IndMaxBaseline predicts each author's advisor as the candidate with the
// maximal local likelihood, with no joint time-constraint reasoning — the
// ablation that isolates TPFG's dependency modeling.
func IndMaxBaseline(net *Network, noAdvisorWeight float64) []int {
	if noAdvisorWeight == 0 {
		noAdvisorWeight = 0.35
	}
	out := make([]int, net.NumAuthors)
	for i := range out {
		out[i] = -1
		best := noAdvisorWeight
		for _, c := range net.Cands[i] {
			if c.Local > best {
				best = c.Local
				out[i] = c.Advisor
			}
		}
	}
	return out
}

// PairFeatures extracts the per-candidate feature vector used by the
// supervised baselines and the relational CRF: average kulc, average IR,
// collaboration duration, seniority gap, co-publication count, and the
// fraction of the advisee's early papers co-authored with the candidate.
func PairFeatures(papers []Paper, numAuthors int, net *Network) map[[2]int][]float64 {
	first := net.First
	coCount := map[[2]int]float64{}
	early := map[[2]int]float64{}
	earlyTotal := make([]float64, numAuthors)
	for _, p := range papers {
		for _, a := range p.Authors {
			if p.Year <= first[a]+3 {
				earlyTotal[a]++
			}
			for _, b := range p.Authors {
				if a == b {
					continue
				}
				coCount[[2]int{a, b}]++
				if p.Year <= first[a]+3 {
					early[[2]int{a, b}]++
				}
			}
		}
	}
	out := map[[2]int][]float64{}
	for i := range net.Cands {
		for _, c := range net.Cands[i] {
			j := c.Advisor
			dur := float64(c.End - c.Start + 1)
			gap := float64(first[i] - first[j])
			ef := 0.0
			if earlyTotal[i] > 0 {
				ef = early[[2]int{i, j}] / earlyTotal[i]
			}
			out[[2]int{i, j}] = []float64{
				c.Local, dur, gap, coCount[[2]int{i, j}], ef, 1, // bias last
			}
		}
	}
	return out
}

// LogitBaseline is the linear-classifier stand-in for the paper's SVM
// comparison (both are linear margin models; "Stand-ins" in
// docs/ARCHITECTURE.md): a logistic regression over PairFeatures trained on
// labeled authors, predicting each test author's advisor as the
// highest-scoring candidate.
type LogitBaseline struct {
	W []float64
}

// TrainLogit fits weights by SGD on (candidate, is-true-advisor) pairs.
func TrainLogit(feats map[[2]int][]float64, net *Network, advisorOf []int, trainIdx []int, seed int64) *LogitBaseline {
	rng := rand.New(rand.NewSource(seed))
	var dim int
	for _, f := range feats {
		dim = len(f)
		break
	}
	w := make([]float64, dim)
	type ex struct {
		f []float64
		y float64
	}
	var data []ex
	for _, i := range trainIdx {
		for _, c := range net.Cands[i] {
			f := feats[[2]int{i, c.Advisor}]
			y := 0.0
			if advisorOf[i] == c.Advisor {
				y = 1
			}
			data = append(data, ex{f, y})
		}
	}
	if len(data) == 0 {
		return &LogitBaseline{W: w}
	}
	lr := 0.1
	for epoch := 0; epoch < 50; epoch++ {
		rng.Shuffle(len(data), func(a, b int) { data[a], data[b] = data[b], data[a] })
		for _, e := range data {
			z := 0.0
			for d := range w {
				z += w[d] * e.f[d]
			}
			p := 1 / (1 + math.Exp(-z))
			g := e.y - p
			for d := range w {
				w[d] += lr * (g*e.f[d] - 1e-4*w[d])
			}
		}
		lr *= 0.95
	}
	return &LogitBaseline{W: w}
}

// Predict returns the advisor prediction for every author (-1 = none): the
// best-scoring candidate if its probability exceeds 0.5, else none.
func (l *LogitBaseline) Predict(feats map[[2]int][]float64, net *Network) []int {
	out := make([]int, net.NumAuthors)
	for i := range out {
		out[i] = -1
		best := 0.0
		for _, c := range net.Cands[i] {
			f := feats[[2]int{i, c.Advisor}]
			z := 0.0
			for d := range l.W {
				z += l.W[d] * f[d]
			}
			p := 1 / (1 + math.Exp(-z))
			if p > 0.5 && p > best {
				best = p
				out[i] = c.Advisor
			}
		}
	}
	return out
}

// Accuracy scores predictions against ground truth over the evaluable
// authors (those with a true advisor), as in Section 6.1.6: a hit requires
// predicting exactly the true advisor.
func Accuracy(pred, truth []int, eval []int) float64 {
	if len(eval) == 0 {
		return 0
	}
	hit := 0
	for _, i := range eval {
		if pred[i] == truth[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(eval))
}
