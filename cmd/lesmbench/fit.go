package main

import (
	"fmt"
	"time"

	"lesm"
	"lesm/internal/synth"
)

// Fit parameters shared by the fit workload and the serving set-up.
const (
	hierK      = 3
	hierLevels = 2
	topicsK    = 200
	ldaSweeps  = 200 // InferTopicsGibbs's default sweep count
	// foldinSweeps is lesmd's default fold-in sweep count per /infer.
	foldinSweeps = 30
)

// fitStages are the top-level fit rows, in pipeline order. With fit.other
// they account for the whole fit wall time.
var fitStages = []string{
	"textkit.tokenize", "hin.network", "cathy.build", "topmine.attach",
	"lda.fit", "tpfg.mine", "store.save",
}

// fitResult is one model fitted from raw lines and saved as a snapshot.
type fitResult struct {
	Corpus   *lesm.Corpus
	Artifact *lesm.Artifact
	Wall     time.Duration
	Stage    map[string]time.Duration
}

// fitOptions select parallelism and observation for one fit.
type fitOptions struct {
	P     int
	Seed  int64
	Path  string
	Rec   *layerRec // nil on timed runs
	Trace *tracer
}

// runFit takes raw lines to a saved snapshot through the public API:
// Corpus.AddText → CollapsedNetwork → BuildHierarchy → AttachPhrases →
// InferTopicsGibbs → MineAdvisorTree → Save.
func runFit(in *corpusInput, o fitOptions) (*fitResult, error) {
	res := &fitResult{Stage: map[string]time.Duration{}}
	var rec lesm.Recorder
	probe := 0
	if o.Rec != nil {
		rec = o.Rec
		probe = ldaSweeps // the final sweep only: the probe is O(tokens·K)
	}
	var (
		docs []lesm.DocRecord
		net  *lesm.Network
		h    *lesm.Hierarchy
		tm   *lesm.TopicModel
		adv  *lesm.AdvisorResult
	)
	steps := map[string]func() error{
		"textkit.tokenize": func() error {
			res.Corpus = lesm.NewCorpus()
			for _, l := range in.Lines {
				res.Corpus.AddText(l, lesm.DefaultPipeline)
			}
			return nil
		},
		"hin.network": func() error {
			b := in.Base
			docs = make([]lesm.DocRecord, len(res.Corpus.Docs))
			for i, d := range res.Corpus.Docs {
				docs[i] = lesm.DocRecord{Tokens: d.Tokens, Entities: b.Docs[i].Entities}
			}
			ds := &synth.Dataset{
				Corpus: res.Corpus, Docs: docs, TypeNames: b.TypeNames, Names: b.Names,
				NumNodes: append([]int{res.Corpus.Vocab.Size()}, b.NumNodes[1:]...),
			}
			net = ds.CollapsedNetwork(0)
			return nil
		},
		"cathy.build": func() (err error) {
			h, err = lesm.BuildHierarchy(net, lesm.HierarchyOptions{
				K: hierK, Levels: hierLevels, Seed: o.Seed, Parallelism: o.P, Recorder: rec,
			})
			return err
		},
		"topmine.attach": func() error {
			_, err := lesm.AttachPhrases(res.Corpus, docs, h, lesm.PhraseOptions{Parallelism: o.P})
			return err
		},
		"lda.fit": func() (err error) {
			tm, err = lesm.InferTopicsGibbs(res.Corpus, topicsK, o.Seed, lesm.RunOptions{
				Parallelism: o.P, Recorder: rec, ProbeEvery: probe,
			})
			return err
		},
		"tpfg.mine": func() (err error) {
			adv, err = mineAdvisors(o.Seed, o.P)
			return err
		},
		"store.save": func() error {
			res.Artifact = &lesm.Artifact{
				Hierarchy: h, Topics: tm, Vocab: res.Corpus.Vocab,
				Corpus: lesm.NewCorpusMeta(res.Corpus), RolePhrases: lesm.RolePhrasesOf(h),
				Advisor: adv,
			}
			return lesm.Save(o.Path, res.Artifact)
		},
	}
	var err error
	res.Wall, err = o.Trace.time("fit", 0, func(id int) error {
		for _, name := range fitStages {
			d, err := o.Trace.time(name, id, func(int) error { return steps[name]() })
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			res.Stage[name] = d
		}
		return nil
	})
	return res, err
}

// mineAdvisors runs TPFG on the genealogy generated from seed.
func mineAdvisors(seed int64, p int) (*lesm.AdvisorResult, error) {
	g := synth.NewGenealogy(synth.GenealogyConfig{Seed: seed})
	papers := make([]lesm.RelPaper, len(g.Papers))
	for i, pp := range g.Papers {
		papers[i] = lesm.RelPaper{Year: pp.Year, Authors: pp.Authors, Venue: pp.Venue}
	}
	return lesm.MineAdvisorTree(papers, g.NumAuthors, seed, lesm.RunOptions{Parallelism: p})
}
