package main

// metricDef is one metric of the benchmark's fixed schema. BENCHMARK.json
// at the repository root lists the same names, units, directions and
// bounds (the smoke test holds the two together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported by timed
// runs on every workload; Bound is the share of the parent's median by
// which each may worsen before a change counts as a regression. The
// timing bounds sit at the schema's 25% ceiling because on a shared
// 2-vCPU machine the same fixed-work fit drifts by 10–30% from one
// minute to the next. The heap repeats exactly per seed but steps by a few percent
// between seeds (map growth at different vocabulary sizes).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"fit_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p90_ms", "ms", "lower", 0.25},
	{"reload_s", "s", "lower", 0.25},
	{"serve_heap_mb", "MiB", "lower", 0.2},
}

// perLayer are the traced run's layer metrics (see doc.go for the
// end-to-end metric each should move).
var perLayer = []metricDef{
	{"textkit.tokenize_s", "s", "lower", 0},
	{"hin.network_s", "s", "lower", 0},
	{"cathy.build_s", "s", "lower", 0},
	{"cathy.em_sweeps", "count", "lower", 0},
	{"cathy.sweep_ms_p50", "ms", "lower", 0},
	{"topmine.attach_s", "s", "lower", 0},
	{"topmine.mine_s", "s", "lower", 0},
	{"topmine.segment_s", "s", "lower", 0},
	{"lda.fit_s", "s", "lower", 0},
	{"lda.tokens_per_s", "1/s", "higher", 0},
	{"lda.sweep_ms_p50", "ms", "lower", 0},
	{"lda.merge_frac", "ratio", "lower", 0},
	{"lda.rebuild_frac", "ratio", "lower", 0},
	{"lda.word_accept", "ratio", "higher", 0},
	{"lda.doc_accept", "ratio", "higher", 0},
	{"lda.changed_frac_final", "ratio", "lower", 0},
	{"lda.perplexity_final", "count", "lower", 0},
	{"lda.p2_speedup", "ratio", "higher", 0},
	{"lda.foldin_ms_p50", "ms", "lower", 0},
	{"lda.foldin_tokens_per_s", "1/s", "higher", 0},
	{"lda.foldin_model_s", "s", "lower", 0},
	{"foldin.word_accept", "ratio", "higher", 0},
	{"foldin.doc_accept", "ratio", "higher", 0},
	{"par.wait_frac", "ratio", "lower", 0},
	{"par.passes", "count", "lower", 0},
	{"par.serve_wait_frac", "ratio", "lower", 0},
	{"tpfg.mine_s", "s", "lower", 0},
	{"store.save_s", "s", "lower", 0},
	{"store.snapshot_mb", "MiB", "lower", 0},
	{"store.open_mapped_s", "s", "lower", 0},
	{"search.build_s", "s", "lower", 0},
	{"search.entries", "count", "lower", 0},
	{"search.terms", "count", "lower", 0},
	{"search.exact_us_p50", "us", "lower", 0},
	{"search.typo_us_p50", "us", "lower", 0},
	{"search.query_us_p99", "us", "lower", 0},
	{"search.fuzzy_frac", "ratio", "lower", 0},
	{"search.hits_per_query", "count", "lower", 0},
	{"serve.p99_ms", "ms", "lower", 0},
	{"serve.max_rps", "1/s", "higher", 0},
	{"serve.new_s", "s", "lower", 0},
	{"serve.reload_s", "s", "lower", 0},
	{"serve.infer_overhead_ms", "ms", "lower", 0},
	{"serve.lookup_overhead_us", "us", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.reload_read_p99_ms", "ms", "lower", 0},
	{"serve.steady_read_p99_ms", "ms", "lower", 0},
	{"go.gc_pause_ms_per_1k_req", "ms", "lower", 0},
	{"fit.wall_s", "s", "lower", 0},
	{"fit.peak_live_mb", "MiB", "lower", 0},
	{"fit.other_s", "s", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"load.overshoot_p99_ms", "ms", "lower", 0},
	{"load.backlog", "count", "lower", 0},
}
