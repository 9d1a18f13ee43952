package main

import (
	"math"
	"os"
	"time"

	"lesm"
	"lesm/internal/lda"
	"lesm/internal/search"
	"lesm/internal/serve"
	"lesm/internal/topmine"
)

// Per-layer numbers of the traced run. Every call below is timed from the
// benchmark's side of a layer's public API; the engines' own telemetry
// arrives through the public Recorder and the /metrics route.

// fitRows names the per-layer metric of each top-level fit stage.
var fitRows = map[string]string{
	"textkit.tokenize": "textkit.tokenize_s",
	"hin.network":      "hin.network_s",
	"cathy.build":      "cathy.build_s",
	"topmine.attach":   "topmine.attach_s",
	"lda.fit":          "lda.fit_s",
	"tpfg.mine":        "tpfg.mine_s",
	"store.save":       "store.save_s",
}

// traceFit repeats the fit with the recorder attached, then the
// standalone ToPMine calls and a P=1 Gibbs fit (speed-up and the
// bit-identity check).
func (r *runner) traceFit(in *corpusInput, untraced *fitResult, path string) error {
	rec := &layerRec{}
	heap := startHeapSampler()
	fr, err := runFit(in, fitOptions{P: r.p, Seed: r.seed, Path: path, Rec: rec, Trace: r.tr})
	r.set("fit.peak_live_mb", heap.stop(), "MiB")
	if err != nil {
		return err
	}
	var sum time.Duration
	for stage, name := range fitRows {
		r.set(name, fr.Stage[stage].Seconds(), "s")
		sum += fr.Stage[stage]
	}
	r.set("fit.wall_s", fr.Wall.Seconds(), "s")
	r.set("fit.other_s", (fr.Wall - sum).Seconds(), "s")
	r.set("trace.overhead_frac", fr.Wall.Seconds()/untraced.Wall.Seconds()-1, "ratio")

	var cathyMS []float64
	for _, s := range rec.cathy {
		cathyMS = append(cathyMS, ms(s.SweepTime))
	}
	r.set("cathy.em_sweeps", float64(len(rec.cathy)), "count")
	r.set("cathy.sweep_ms_p50", median(cathyMS), "ms")

	var (
		sweepMS                      []float64
		tokens                       int64
		sweep, merge, rebuild        time.Duration
		wordP, wordA, docP, docA     int64
		changedFinal, perplexityLast float64
	)
	for _, s := range rec.lda {
		sweepMS = append(sweepMS, ms(s.SweepTime))
		tokens += s.Tokens
		sweep += s.SweepTime
		merge += s.MergeTime
		rebuild += s.RebuildTime
		wordP, wordA = wordP+s.WordProposals, wordA+s.WordAccepts
		docP, docA = docP+s.DocProposals, docA+s.DocAccepts
		changedFinal, perplexityLast = s.ChangedFrac(), s.Perplexity()
	}
	r.set("lda.tokens_per_s", float64(tokens)/sweep.Seconds(), "1/s")
	r.set("lda.sweep_ms_p50", median(sweepMS), "ms")
	r.set("lda.merge_frac", merge.Seconds()/sweep.Seconds(), "ratio")
	r.set("lda.rebuild_frac", rebuild.Seconds()/sweep.Seconds(), "ratio")
	r.set("lda.word_accept", safeDiv(float64(wordA), float64(wordP)), "ratio")
	r.set("lda.doc_accept", safeDiv(float64(docA), float64(docP)), "ratio")
	r.set("lda.changed_frac_final", changedFinal, "ratio")
	r.set("lda.perplexity_final", finite(perplexityLast), "count")
	r.set("par.wait_frac", rec.pool.Wait.Seconds()/(rec.pool.Wait+rec.pool.Exec).Seconds(), "ratio")
	r.set("par.passes", float64(rec.pass), "count")

	// Standalone ToPMine stages, excluded from the fit row sum.
	cfg := topmine.Config{MinSupport: 5, MaxLen: 5, P: r.p}
	var miner *topmine.Miner
	d, _ := r.tr.time("topmine.mine", 0, func(int) error {
		miner = topmine.MineFrequentPhrases(fr.Corpus.Docs, cfg)
		return nil
	})
	r.set("topmine.mine_s", d.Seconds(), "s")
	d, _ = r.tr.time("topmine.segment", 0, func(int) error {
		miner.SegmentCorpus(fr.Corpus.Docs)
		return nil
	})
	r.set("topmine.segment_s", d.Seconds(), "s")

	// The same Gibbs fit at P=1, recorded and probed like the traced one.
	var tm *lesm.TopicModel
	d, err = r.tr.time("lda.fit_p1", 0, func(int) (err error) {
		tm, err = lesm.InferTopicsGibbs(fr.Corpus, topicsK, r.seed, lesm.RunOptions{
			Parallelism: 1, Recorder: &layerRec{}, ProbeEvery: ldaSweeps,
		})
		return err
	})
	if err != nil {
		return err
	}
	r.set("lda.p2_speedup", d.Seconds()/fr.Stage["lda.fit"].Seconds(), "ratio")
	r.check(equalRows(tm.NKV, fr.Artifact.Topics.NKV), "P=1 and P=%d Gibbs fits differ in NKV", r.p)
	return nil
}

// finite maps NaN (no probe ran) to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// traceServing replays the workload's request pools directly through
// lda.FoldIn and search.Index and then over HTTP, one request at a time,
// and reads the serving counters the traffic moved.
func (r *runner) traceServing(sv *served, si *servingInputs, tt *trafficOutcome) error {
	vocab, t, reqs, bodies := si.replay.vocab, si.replay.topics, si.replay.reqs, si.bodies
	var fm *lda.FoldInModel
	d, _ := r.tr.time("lda.foldin_model", 0, func(int) error {
		fm = lda.FoldInModelFromCounts(t.NKV, t.NK, lda.DefaultFoldInAlpha, t.Beta)
		fm.PrecomputeSparse()
		return nil
	})
	r.set("lda.foldin_model_s", d.Seconds(), "s")

	// Requests carry 1–4 docs, so the fold-in figure is per document; the
	// HTTP overhead is the median of per-request differences, which the
	// request size cancels out of.
	n := min(r.cfg.replays, len(reqs))
	var perDoc, overhead []float64
	var tokens int
	var foldTime time.Duration
	for i := 0; i < n; i++ {
		ids := docIDs(vocab, reqs[i].Docs)
		for _, doc := range ids {
			tokens += len(doc)
		}
		t0 := time.Now()
		if _, err := lda.FoldIn(fm, ids, lda.FoldInConfig{Seed: reqs[i].Seed, P: r.p}); err != nil {
			return err
		}
		direct := time.Since(t0)
		foldTime += direct
		perDoc = append(perDoc, ms(direct)/float64(len(ids)))
		t1 := time.Now()
		ok := sv.c.send(request{method: "POST", path: "/infer", body: bodies[i], infer: true})
		overhead = append(overhead, ms(time.Since(t1)-direct))
		r.check(ok, "sequential /infer replay %d failed", i)
	}
	r.set("lda.foldin_ms_p50", median(perDoc), "ms")
	r.set("lda.foldin_tokens_per_s", float64(tokens*foldinSweeps)/foldTime.Seconds(), "1/s")
	r.set("serve.infer_overhead_ms", median(overhead), "ms")

	if err := r.traceSearch(sv, si.path, si.lookups); err != nil {
		return err
	}

	r.set("serve.p99_ms", ms(quantile(tt.nominal.latencies(nil), 0.99)), "ms")
	r.set("serve.max_rps", float64(len(tt.saturated.latencies(nil)))/tt.saturated.wall.Seconds(), "1/s")
	delta := func(series string) float64 { return tt.after[series] - tt.before[series] }
	r.set("serve.shed", delta("lesmd_infer_shed_total"), "count")
	r.set("foldin.word_accept", safeDiv(delta(`lesmd_sampler_accepts_total{proposal="word"}`), delta(`lesmd_sampler_proposals_total{proposal="word"}`)), "ratio")
	r.set("foldin.doc_accept", safeDiv(delta(`lesmd_sampler_accepts_total{proposal="doc"}`), delta(`lesmd_sampler_proposals_total{proposal="doc"}`)), "ratio")
	wait, exec := delta("lesmd_pool_wait_seconds_total"), delta("lesmd_pool_exec_seconds_total")
	r.set("par.serve_wait_frac", safeDiv(wait, wait+exec), "ratio")
	reqCount := float64(tt.nominal.attempted() + tt.saturated.attempted())
	r.set("go.gc_pause_ms_per_1k_req", safeDiv(delta("go_gc_pause_seconds_total")*1e3, reqCount/1e3), "ms")

	var admin []float64
	for _, p := range tt.publishes {
		admin = append(admin, p.admin.Seconds())
	}
	r.set("serve.reload_s", median(admin), "s")
	fi, err := os.Stat(si.path)
	if err != nil {
		return err
	}
	r.set("store.snapshot_mb", float64(fi.Size())/(1<<20), "MiB")

	during := func(s sample) bool {
		for _, p := range tt.publishes {
			end := p.start.Add(p.write + p.admin)
			if s.at.Before(end) && s.at.Add(s.lat).After(p.start) {
				return true
			}
		}
		return false
	}
	r.set("serve.reload_read_p99_ms", ms(quantile(tt.nominal.latencies(during), 0.99)), "ms")
	r.set("serve.steady_read_p99_ms", ms(quantile(tt.nominal.latencies(func(s sample) bool { return !during(s) }), 0.99)), "ms")
	sortDurations(tt.nominal.overshoot)
	r.set("load.overshoot_p99_ms", ms(quantile(tt.nominal.overshoot, 0.99)), "ms")
	r.set("load.backlog", float64(tt.nominal.backlog), "count")
	return nil
}

// traceSearch builds the search index from the served snapshot and
// replays the lookup pool's /search and /entity texts through it, then the
// /search queries over HTTP.
func (r *runner) traceSearch(sv *served, path string, lookups []lookupQuery) error {
	snap, closer, err := serve.LoadSnapshot(path, true)
	if err != nil {
		return err
	}
	defer closer.Close()
	var ix *search.Index
	d, _ := r.tr.time("search.build", 0, func(int) error {
		ix = search.FromSnapshot(snap)
		return nil
	})
	r.set("search.build_s", d.Seconds(), "s")
	r.set("search.entries", float64(ix.Entries()), "count")
	r.set("search.terms", float64(ix.Terms()), "count")

	// Exact and typo'd queries are timed apart: an exact token is a
	// dictionary lookup, a typo scans the dictionary, and a median over the
	// two would sit in the gap between them.
	var all []time.Duration
	var exactUS, typoUS, overhead []float64
	var fuzzy, queries, hits, searches int
	for _, q := range lookups {
		if q.Kind != qSearch && q.Kind != qEntity {
			continue
		}
		if queries == r.cfg.replays {
			break
		}
		queries++
		var top search.Hit
		var found bool
		t0 := time.Now()
		if q.Kind == qSearch {
			hs := ix.Search(q.Text, 10)
			if found = len(hs) > 0; found {
				top = hs[0]
			}
			searches++
			hits += len(hs)
		} else {
			top, found = ix.Resolve(q.Text)
		}
		dt := time.Since(t0)
		all = append(all, dt)
		if found && top.Distance > 0 {
			fuzzy++
		}
		if q.Typo {
			typoUS = append(typoUS, float64(dt)/1e3)
			continue
		}
		exactUS = append(exactUS, float64(dt)/1e3)
		if q.Kind == qSearch {
			t1 := time.Now()
			ok := sv.c.send(request{method: "GET", path: q.Path})
			overhead = append(overhead, float64(time.Since(t1)-dt)/1e3)
			r.check(ok, "sequential %s replay failed", q.Path)
		}
	}
	sortDurations(all)
	r.set("search.exact_us_p50", median(exactUS), "us")
	r.set("search.typo_us_p50", median(typoUS), "us")
	r.set("search.query_us_p99", float64(quantile(all, 0.99))/1e3, "us")
	r.set("search.fuzzy_frac", safeDiv(float64(fuzzy), float64(queries)), "ratio")
	r.set("search.hits_per_query", safeDiv(float64(hits), float64(searches)), "count")
	r.set("serve.lookup_overhead_us", median(overhead), "us")
	return nil
}

func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
