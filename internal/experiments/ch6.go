package experiments

import (
	"fmt"

	"lesm/internal/eval"
	"lesm/internal/relcrf"
	"lesm/internal/synth"
	"lesm/internal/tpfg"
)

// genealogyCase builds one advisor-mining test case.
func genealogyCase(seedFaculty int, years int, seed int64) (*synth.Genealogy, []tpfg.Paper, *tpfg.Network, []int) {
	g := synth.NewGenealogy(synth.GenealogyConfig{Seed: seed, SeedFaculty: seedFaculty, Years: years})
	papers := make([]tpfg.Paper, len(g.Papers))
	for i, p := range g.Papers {
		papers[i] = tpfg.Paper{Year: p.Year, Authors: p.Authors}
	}
	net := tpfg.Preprocess(papers, g.NumAuthors, tpfg.PreprocessOptions{Rules: tpfg.AllRules})
	var evalSet []int
	for a, adv := range g.AdvisorOf {
		if adv >= 0 {
			evalSet = append(evalSet, a)
		}
	}
	return g, papers, net, evalSet
}

// Table61 reproduces the Section 6.1.6 comparison: advisor prediction
// accuracy of RULE, the supervised linear baseline, IndMAX and TPFG on
// three network sizes (the paper's TEST1-3, reconstructed; see "Stand-ins"
// in docs/ARCHITECTURE.md).
func Table61(scale float64) *Table {
	t := &Table{ID: "table6.1", Title: "advisor mining accuracy",
		Header: []string{"dataset", "#authors", "#advised", "RULE", "logit", "IndMAX", "TPFG"}}
	cases := []struct {
		name    string
		faculty int
		years   int
		seed    int64
	}{
		{"TEST1", scaled(12, scale) + 3, 30, 601},
		{"TEST2", scaled(20, scale) + 3, 38, 602},
		{"TEST3", scaled(30, scale) + 3, 44, 603},
	}
	for _, c := range cases {
		g, papers, net, evalSet := genealogyCase(c.faculty, c.years, c.seed)
		rule := tpfg.Accuracy(tpfg.RuleBaseline(papers, g.NumAuthors), g.AdvisorOf, evalSet)
		ind := tpfg.Accuracy(tpfg.IndMaxBaseline(net, 0), g.AdvisorOf, evalSet)
		res := tpfg.Infer(net, tpfg.Config{})
		tp := tpfg.Accuracy(res.Predict(), g.AdvisorOf, evalSet)
		// Logit trained on half, evaluated on the other half (all other
		// methods are unsupervised, so report their accuracy on the same
		// test half for fairness).
		feats := tpfg.PairFeatures(papers, g.NumAuthors, net)
		var train, test []int
		for idx, i := range evalSet {
			if idx%2 == 0 {
				train = append(train, i)
			} else {
				test = append(test, i)
			}
		}
		lb := tpfg.TrainLogit(feats, net, g.AdvisorOf, train, c.seed+9)
		logit := tpfg.Accuracy(lb.Predict(feats, net), g.AdvisorOf, test)
		t.Rows = append(t.Rows, []string{
			c.name, fmt.Sprintf("%d", g.NumAuthors), fmt.Sprintf("%d", len(evalSet)),
			f3(rule), f3(logit), f3(ind), f3(tp),
		})
	}
	t.Notes = append(t.Notes, "expected shape: TPFG >= IndMAX > logit ~ RULE (joint time-constrained inference wins)")
	return t
}

// Fig64 reproduces the preprocessing ablations: accuracy of TPFG under each
// filtering-rule configuration and local-likelihood estimate.
func Fig64(scale float64) *Table {
	t := &Table{ID: "fig6.4", Title: "TPFG ablations: filtering rules and local likelihood",
		Header: []string{"variant", "candidates/author", "true advisor kept", "accuracy"}}
	g, papers, _, evalSet := genealogyCase(scaled(20, scale)+3, 38, 604)
	run := func(name string, opt tpfg.PreprocessOptions) {
		net := tpfg.Preprocess(papers, g.NumAuthors, opt)
		total := 0
		kept := 0
		for _, i := range evalSet {
			total += len(net.Cands[i])
			for _, c := range net.Cands[i] {
				if c.Advisor == g.AdvisorOf[i] {
					kept++
					break
				}
			}
		}
		res := tpfg.Infer(net, tpfg.Config{})
		acc := tpfg.Accuracy(res.Predict(), g.AdvisorOf, evalSet)
		t.Rows = append(t.Rows, []string{name,
			f2(float64(total) / float64(len(evalSet))),
			f2(float64(kept) / float64(len(evalSet))), f3(acc)})
	}
	run("all rules + avg", tpfg.PreprocessOptions{Rules: tpfg.AllRules})
	run("no rules", tpfg.PreprocessOptions{Rules: tpfg.Rules{}})
	run("R1 only", tpfg.PreprocessOptions{Rules: tpfg.Rules{R1: true}})
	run("R3+R4 only", tpfg.PreprocessOptions{Rules: tpfg.Rules{R3: true, R4: true}})
	run("kulc likelihood", tpfg.PreprocessOptions{Rules: tpfg.AllRules, Likelihood: "kulc"})
	run("ir likelihood", tpfg.PreprocessOptions{Rules: tpfg.AllRules, Likelihood: "ir"})
	run("year1 end", tpfg.PreprocessOptions{Rules: tpfg.AllRules, EndEstimate: "year1"})
	run("year2 end", tpfg.PreprocessOptions{Rules: tpfg.AllRules, EndEstimate: "year2"})
	return t
}

// Table62 reproduces the Section 6.2.4 comparison: the supervised CRF
// against unsupervised TPFG and the logistic baseline, by training
// fraction, in precision/recall/F1.
func Table62(scale float64) *Table {
	t := &Table{ID: "table6.2", Title: "supervised relation CRF vs baselines (fixed 30% test split)",
		Header: []string{"method", "train%", "P", "R", "F1"}}
	g, _, net, evalSet := genealogyCase(scaled(20, scale)+3, 40, 605)
	papers := make([]relcrf.Paper, len(g.Papers))
	for i, p := range g.Papers {
		papers[i] = relcrf.Paper{Year: p.Year, Authors: p.Authors, Venue: p.Venue}
	}
	feats := relcrf.Features(papers, g.NumAuthors, g.NumVenues, net)
	plainFeats := tpfg.PairFeatures(toPlain(papers), g.NumAuthors, net)
	cut := len(evalSet) * 7 / 10
	pool, test := evalSet[:cut], evalSet[cut:]

	addRow := func(name string, frac int, pred []int) {
		p, r, f1 := eval.PRF1(pred, g.AdvisorOf, test)
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%d", frac), f3(p), f3(r), f3(f1)})
	}
	// Unsupervised TPFG (no training data).
	res := tpfg.Infer(net, tpfg.Config{})
	addRow("TPFG", 0, res.Predict())
	for _, frac := range []int{10, 30, 100} {
		n := len(pool) * frac / 100
		if n < 2 {
			n = 2
		}
		train := pool[:n]
		lb := tpfg.TrainLogit(plainFeats, net, g.AdvisorOf, train, 606)
		addRow("logit", frac, lb.Predict(plainFeats, net))
		m := must(relcrf.Train(net, feats, g.AdvisorOf, train, relcrf.TrainOptions{Seed: 607}))
		addRow("CRF", frac, must(m.Infer(net, feats)).Predict())
	}
	t.Notes = append(t.Notes, "expected shape: CRF >= TPFG and CRF > logit; CRF improves with training data")
	return t
}

func toPlain(papers []relcrf.Paper) []tpfg.Paper {
	out := make([]tpfg.Paper, len(papers))
	for i, p := range papers {
		out[i] = tpfg.Paper{Year: p.Year, Authors: p.Authors}
	}
	return out
}
