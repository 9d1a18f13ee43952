package tpfg

import (
	"math"
	"testing"

	"lesm/internal/synth"
)

func genData(seed int64) (*synth.Genealogy, []Paper) {
	g := synth.NewGenealogy(synth.GenealogyConfig{Seed: seed})
	papers := make([]Paper, len(g.Papers))
	for i, p := range g.Papers {
		papers[i] = Paper{Year: p.Year, Authors: p.Authors}
	}
	return g, papers
}

func evalSet(g *synth.Genealogy) []int {
	var out []int
	for a, adv := range g.AdvisorOf {
		if adv >= 0 {
			out = append(out, a)
		}
	}
	return out
}

func TestPreprocessKeepsTrueAdvisors(t *testing.T) {
	g, papers := genData(71)
	net := Preprocess(papers, g.NumAuthors, PreprocessOptions{Rules: AllRules})
	eval := evalSet(g)
	kept := 0
	for _, i := range eval {
		for _, c := range net.Cands[i] {
			if c.Advisor == g.AdvisorOf[i] {
				kept++
				break
			}
		}
	}
	if frac := float64(kept) / float64(len(eval)); frac < 0.8 {
		t.Fatalf("true advisor kept in candidate set for only %v of advised authors", frac)
	}
}

func TestPreprocessCandidateDAGAcyclic(t *testing.T) {
	g, papers := genData(72)
	net := Preprocess(papers, g.NumAuthors, PreprocessOptions{Rules: AllRules})
	// Candidates always start publishing strictly earlier, so the candidate
	// graph ordered by first year is a DAG by construction.
	for i, cands := range net.Cands {
		for _, c := range cands {
			if net.First[c.Advisor] >= net.First[i] {
				t.Fatalf("candidate %d of %d violates the partial order", c.Advisor, i)
			}
			if c.Start > c.End {
				t.Fatalf("advising interval [%d,%d] invalid", c.Start, c.End)
			}
			if c.Local <= 0 || math.IsNaN(c.Local) {
				t.Fatalf("bad local likelihood %v", c.Local)
			}
		}
	}
}

func TestInferRanksNormalized(t *testing.T) {
	g, papers := genData(73)
	net := Preprocess(papers, g.NumAuthors, PreprocessOptions{Rules: AllRules})
	res := Infer(net, Config{Sweeps: 8})
	for i, r := range res.Rank {
		s := 0.0
		for _, v := range r {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("author %d has invalid rank %v", i, v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-6 {
			t.Fatalf("author %d ranks sum to %v", i, s)
		}
	}
}

func TestTPFGBeatsBaselines(t *testing.T) {
	g, papers := genData(74)
	net := Preprocess(papers, g.NumAuthors, PreprocessOptions{Rules: AllRules})
	eval := evalSet(g)

	res := Infer(net, Config{})
	tpfgAcc := Accuracy(res.Predict(), g.AdvisorOf, eval)
	ruleAcc := Accuracy(RuleBaseline(papers, g.NumAuthors), g.AdvisorOf, eval)
	indAcc := Accuracy(IndMaxBaseline(net, 0), g.AdvisorOf, eval)
	t.Logf("accuracy: TPFG=%.3f RULE=%.3f IndMAX=%.3f", tpfgAcc, ruleAcc, indAcc)

	if tpfgAcc < 0.6 {
		t.Fatalf("TPFG accuracy = %v, want >= 0.6", tpfgAcc)
	}
	if tpfgAcc < ruleAcc {
		t.Fatalf("TPFG (%v) should not lose to RULE (%v)", tpfgAcc, ruleAcc)
	}
	if tpfgAcc+1e-9 < indAcc {
		t.Fatalf("TPFG (%v) should not lose to IndMAX (%v)", tpfgAcc, indAcc)
	}
}

func TestLogitBaselineLearns(t *testing.T) {
	g, papers := genData(75)
	net := Preprocess(papers, g.NumAuthors, PreprocessOptions{Rules: AllRules})
	eval := evalSet(g)
	feats := PairFeatures(papers, g.NumAuthors, net)
	// Half train, half test.
	var train, test []int
	for idx, i := range eval {
		if idx%2 == 0 {
			train = append(train, i)
		} else {
			test = append(test, i)
		}
	}
	lb := TrainLogit(feats, net, g.AdvisorOf, train, 76)
	acc := Accuracy(lb.Predict(feats, net), g.AdvisorOf, test)
	if acc < 0.5 {
		t.Fatalf("logit accuracy = %v, want >= 0.5", acc)
	}
}

// TestPredictIsTopRanked: Predict names, for every author, the first
// entry of its rank vector that no other entry beats (the virtual
// no-advisor node as -1), so the prediction is the top-1 of the
// candidate ranking.
func TestPredictIsTopRanked(t *testing.T) {
	g, papers := genData(77)
	net := Preprocess(papers, g.NumAuthors, PreprocessOptions{Rules: AllRules})
	res := Infer(net, Config{})
	pred := res.Predict()
	advisors := 0
	for i, r := range res.Rank {
		best := 0
		for v := range r {
			if r[v] > r[best] {
				best = v
			}
		}
		want := -1
		if best > 0 {
			want = net.Cands[i][best-1].Advisor
			advisors++
		}
		if pred[i] != want {
			t.Fatalf("author %d: Predict = %d, the top-ranked entry %d is %d", i, pred[i], best, want)
		}
	}
	if advisors == 0 {
		t.Fatal("no author has a predicted advisor")
	}
}

func TestRuleAblationChangesCandidates(t *testing.T) {
	g, papers := genData(78)
	all := Preprocess(papers, g.NumAuthors, PreprocessOptions{Rules: AllRules})
	none := Preprocess(papers, g.NumAuthors, PreprocessOptions{Rules: Rules{}})
	countAll, countNone := 0, 0
	for i := range all.Cands {
		countAll += len(all.Cands[i])
		countNone += len(none.Cands[i])
	}
	if countNone <= countAll {
		t.Fatalf("disabling rules should enlarge candidate sets: %d vs %d", countNone, countAll)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestBestTiesAndScore: Best keeps the first of tied maxima (the virtual
// no-advisor node before any candidate, an earlier candidate before a
// later one) and reports that entry's rank mass.
func TestBestTiesAndScore(t *testing.T) {
	r := &Result{
		Net: &Network{NumAuthors: 3, Cands: [][]Candidate{
			{{Advisor: 5}},
			{{Advisor: 7}, {Advisor: 8}, {Advisor: 9}},
			{{Advisor: 4}, {Advisor: 4}},
		}},
		Rank: [][]float64{{0.5, 0.5}, {0.1, 0.2, 0.35, 0.35}, {0.2, 0.3, 0.5}},
	}
	for i, want := range []struct {
		adv   int
		score float64
	}{{-1, 0.5}, {8, 0.35}, {4, 0.5}} {
		if adv, score := r.Best(i); adv != want.adv || score != want.score {
			t.Errorf("Best(%d) = (%d, %v), want (%d, %v)", i, adv, score, want.adv, want.score)
		}
	}
}
