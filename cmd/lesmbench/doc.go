// Command lesmbench is the repository's one benchmark: it takes a generated
// corpus from raw text to a fitted K=200 model, serves the snapshot over a
// real loopback HTTP listener, drives a traffic mix against it, checks
// every answer, and reports end-to-end metrics (timed runs) or per-layer
// metrics (traced runs) as JSON.
//
// # Running
//
// From the repository root:
//
//	bash cmd/lesmbench/run.sh -workload infer -seed 1 -seconds 7 -trace 0
//	bash cmd/lesmbench/run.sh -workload all -seed 1 -trace 1 -spans spans.jsonl
//
// run.sh builds the command from source and keeps everything the build
// and the run write under .bench_build. The benchmark is a package with a
// build file of its own (go.mod here, replacing lesm with the repository
// root), so that it builds from this directory alone and adds nothing to
// the root module. The cost: the root module's `go build ./...` and
// `go test ./...` do not reach it, so a change to an internal API it calls
// breaks it silently until its smoke test runs, with `go test .` in this
// directory (a few seconds, every workload at a tiny scale with every
// output check on). Run it after any change to the packages it imports.
//
// Flags: -workload fit|infer|lookup|reload|all, -seed N (default 1; every
// generated input derives from it), -seconds N (traffic window, default
// 7), -trace 0|1, -spans FILE (the traced run's spans as JSONL: name,
// start, end, parent), -out FILE (append each workload run's full result,
// with P, num_cpu, GOMAXPROCS, Go version, commit and seed, as one JSON
// line). The first line of standard output records that environment; the
// last line is
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 0.93, "unit": "ms"}, ...}}
//
// with every end-to-end metric of a timed run, or every per-layer metric
// of a traced one (prefixed "workload." under -workload all). A failed
// output check prints correct=false and exits 1.
//
// Comparing: run each side over several seeds into its own -out file, then
//
//	bash cmd/lesmbench/run.sh [-bounds BENCHMARK.json] -compare A.jsonl B.jsonl
//
// prints, per workload and metric, both medians, the delta, A's spread
// (quartile distance over median) and a verdict: a delta no larger than
// A's spread is "unresolved", never "unchanged"; a worsening beyond the
// metric's BENCHMARK.json bound is a REGRESSION and makes the command exit
// non-zero. Seed 2 is the held-out seed: a claimed gain must also hold
// with -seed 2, and no change is tuned on it.
//
// results/ holds two sets of timed runs of this schema (seeds 1–10 and
// 11–20, one -out line per run, each workload's ten seeds back to back),
// measured on a 2-vCPU virtual machine shared with other tenants; compare
// against them only from comparable hardware, and re-measure the parent
// otherwise. Set B's medians lie within −20%…+13% of set A's. Every
// spread of set B is within its bound (the widest: p90_ms on fit, 24%);
// in set A the host sped up by about a fifth during the lookup series, and
// lookup's fit_s, p50_ms, p90_ms and reload_s spread by 27–30% together,
// fixed-work fit_s with the rest.
//
// # Inputs
//
// Papers come from synth.DBLP (term, author and venue types). After each
// token, with probability 0.4, a word from a 30k-word tail vocabulary of
// generated syllable words is inserted, drawn from a Zipf law (s=1.07).
// synth's own vocabulary is only ~390 words, so a K=200 model over it
// would be 200×390 and every working-set effect would vanish; with the
// tail V is ≈6.2k for the small corpus (4,000 papers, the serving model)
// and ≈12.2k for the large one (12,000 papers, the fit workload), the
// small snapshot is ≈20 MiB, and fuzzy search gets a dense neighbourhood
// of similar words. Each paper becomes one raw-text line. The fit path is
// Corpus.AddText → CollapsedNetwork → BuildHierarchy (CATHYHIN, K=3, two
// levels) → AttachPhrases → InferTopicsGibbs (K=200, auto resolves to MH,
// 200 sweeps) → MineAdvisorTree (synth.NewGenealogy) → Save, at P = the
// CPU count. The server is serve.LoadSnapshot(path, mmap on) plus
// serve.New with lesmd's default options.
//
// /infer requests carry 1–4 held-out documents of ≈120 raw tokens
// (generated with seed+1000), in the repeating pattern 1, 2, 3, 3, 4 docs,
// and use the default 30 sweeps. Lookups repeat a fixed 20-request
// pattern: 40% /search (half exact, half one-edit typos within
// search.MaxDist; a quarter ground-truth phrases, the rest words), 30%
// /entity/:word (half typos), 20% /topics/:k/top-words?n=10 and 10%
// /hierarchy/node/:path over the 13 nodes of the tree. The patterns keep
// every seed's mix in the same shares, so the medians do not shift with
// each seed's draw of request kinds; words, phrases and documents are
// drawn per seed. The mix has no author-name queries: BuildHierarchy
// never fills TopicNode.Entities, so no snapshot carries author labels
// and every /entity/<author name> answers 404 today; that fix belongs to
// its own change. /phrases/search is left out because it may be removed.
//
// # Load
//
// One process, GOMAXPROCS = CPU count, at most two keep-alive client
// connections. Each workload's traffic window (-seconds, 7 by default so
// that ten seeds of every workload take about 20 minutes on a 2-vCPU
// machine) is 5% warm-up and then the open loop at the workload's nominal
// rate; on a traced run the window's last 25% is a closed loop instead.
//
// Open loop: request i is due at start + i/rate and whichever of the two
// connection workers is free sends it. A request that waited for a busy
// worker is timed from its due time; a worker that was idle sleeps until
// the due time and the request is timed from the actual send, because
// every sleep shorter than a millisecond overshoots by about one, which
// would swamp sub-millisecond responses. The overshoot's p99 and the
// requests still unsent when the phase ended are reported (traced run).
//
// Closed loop (traced runs): both workers send back to back; completed
// requests per second is serve.max_rps, the highest rate the server
// sustains on two connections. It is a per-layer figure, without a bound:
// the closed loop keeps both CPUs busy (the process used 1.94–1.98
// CPU-seconds per second in the runs measured), and on a 2-vCPU virtual
// machine shared with other tenants its rate spread by 35% across ten
// seeds while the same runs' fit_s and open-loop p50_ms spread by 6% and
// 7%. A ladder of
// open-loop rates with a latency limit was the first design; its ×1.5
// steps are coarser than any regression bound and it costs half a minute
// per workload.
//
// # Workloads
//
//   - fit: the large corpus from raw lines to a saved snapshot; every fit
//     layer works (textkit, hin, cathy, topmine, lda, par, tpfg, store) and
//     nothing serves the result. The serving model is then fitted and
//     served as on the other workloads, and lookup's traffic runs against
//     it, only because every timed run reports every end-to-end metric
//     (below): fit's serving figures repeat lookup's, whose mix is the
//     steadiest, and a change that moves them is judged on lookup.
//   - infer: POST /infer at a nominal 300 req/s. The fold-in sampler,
//     admission and JSON dominate; search idles.
//   - lookup: the GET mix at a nominal 400 req/s. The search index,
//     profile composition and HTTP/JSON dominate; fold-in idles. Fuzzy
//     /search queries form the tail.
//   - reload: a 50/50 mix of infer and lookup at 150 req/s while twenty
//     times per window, on a fixed schedule, the harness lands the other
//     of two serving models (same corpus, Gibbs seeds s and s+1, both
//     Saved before the traffic) over the served path and POSTs
//     /admin/reload. Snapshot decode, the search-index rebuild and the
//     alias precompute compete with the reads, which catches a read-path
//     gain that moves cost into the artifact build. The publish copies a
//     file Saved beforehand, as a deploy ships a snapshot fitted
//     elsewhere: Saving inside the serving process put a 20 MiB encode
//     burst into its GC and made the tail bimodal, a cost no real server
//     pays; the encode is timed in the fit as store.save_s.
//
// # End-to-end metrics (timed runs, every workload)
//
// The result line of a timed run carries every end-to-end metric that
// BENCHMARK.json lists, none of them zero, on every workload. So the fit
// workload also serves (see fit above) and the workloads without reloads
// also publish; the figures that the workload does not exist to measure
// are marked "elsewhere" below.
//
//   - setup_s: median of nine bring-ups of the serving model, each the
//     mmap open, serve.New, the listener and the first /healthz answer,
//     and each after a forced collection, as from a fresh process.
//   - fit_s: raw lines to saved snapshot: the large corpus on fit; the
//     serving model, fitted during set-up, elsewhere.
//   - p50_ms, p90_ms: latency of the open-loop phase's reads; on reload
//     they span steady reads and reads during publishes. On reload's
//     50/50 mix each is the mean of the infer and lookup quantiles: the
//     median of the mix falls in the gap between the two kinds' latency
//     modes, where it swung by a fifth between seeds, and its p90 between
//     the 3-doc and 4-doc /infer modes. The tail is p90, not p99: over
//     ten seeds at the nominal rates p99 spread by 46% on infer and 25%
//     on lookup, p90 by 16% and 11%. A stall of the shared host delays a
//     burst of requests, and p99 counts the burst; a p99 that moves that
//     much cannot carry a bound. It is kept as the per-layer serve.p99_ms.
//   - reload_s: median publish, the atomic replace of the snapshot file
//     plus the /admin/reload round trip (the new generation serves when it
//     returns). On reload, under traffic; elsewhere the served model
//     republished nine times after the traffic, with no reads beside.
//   - serve_heap_mb: the live heap after the traffic and a forced GC,
//     above the live heap before the first bring-up: what the running
//     server holds, without the benchmark's own inputs and models. A peak
//     sampled from runtime/metrics moves only when a GC completes and
//     swung by a third with GC timing; the fit's sampled peak is kept as
//     the per-layer fit.peak_live_mb.
//
// Every non-2xx answer, transport error, unparseable body and failed
// output check counts in "failed" against "attempted". The checks: every
// timed response is 2xx and parses; /infer answers for a probe set equal
// in-process Artifact.Infer bit for bit; every exact-word /search ranks
// that word first; Save → LoadMapped → Save gives identical bytes; in the
// traced run the P=1 and P=CPU-count Gibbs fits give identical NKV.
//
// # Per-layer metrics (traced runs) and what each should move
//
// The traced run repeats the measured fit (the large corpus's on fit, the
// serving model's elsewhere) with the public Recorder attached and the
// convergence probe on the last sweep, times each call into a layer from
// the benchmark's side, scrapes /metrics around the traffic, and replays
// the request pools directly through lda.FoldIn and search.Index and then
// one at a time over HTTP.
//
//   - textkit.tokenize_s feeds fit_s; its share is ≈0.3%, so no textkit
//     gain can show — it is recorded so that stays visible.
//   - hin.network_s and tpfg.mine_s feed fit_s.
//   - cathy.build_s, cathy.em_sweeps, cathy.sweep_ms_p50 feed fit_s on
//     every workload; they should not move p50_ms or p90_ms.
//   - topmine.attach_s feeds fit_s; topmine.mine_s and topmine.segment_s
//     are standalone calls outside the fit rows.
//   - lda.fit_s, lda.tokens_per_s, lda.sweep_ms_p50, lda.merge_frac and
//     lda.rebuild_frac (shares of sweep time), lda.word_accept,
//     lda.doc_accept, lda.changed_frac_final, lda.perplexity_final and
//     lda.p2_speedup (a second fit at P=1 over the traced one) feed fit_s.
//   - lda.foldin_ms_p50 (per document), lda.foldin_tokens_per_s,
//     lda.foldin_model_s (FoldInModelFromCounts + PrecomputeSparse),
//     foldin.word_accept and foldin.doc_accept (/metrics deltas) feed
//     p50_ms, p90_ms and serve.max_rps on infer, about half as much on
//     reload, and not lookup or fit.
//   - par.wait_frac and par.passes (the traced fit's pool passes) feed
//     fit_s; par.serve_wait_frac (lesmd_pool_* deltas) feeds p50_ms on
//     infer.
//   - store.save_s, store.snapshot_mb, store.open_mapped_s feed fit_s,
//     reload_s and setup_s; they should not move infer or lookup.
//   - search.build_s, search.entries, search.terms, search.exact_us_p50
//     and search.typo_us_p50 (medians of the exact and the typo'd replayed
//     queries, kept apart because one is a dictionary lookup and the other
//     a dictionary scan), search.query_us_p99 over both,
//     search.fuzzy_frac (top hit at distance > 0) and
//     search.hits_per_query feed p50_ms, p90_ms and serve.max_rps on
//     lookup (and on fit, which repeats lookup's traffic) and reload_s
//     through the index build; they should not move infer.
//   - serve.new_s feeds setup_s; serve.reload_s (the /admin/reload round
//     trip) feeds reload_s; serve.infer_overhead_ms and
//     serve.lookup_overhead_us (median of HTTP minus direct time over the
//     same requests; exact /search queries for the latter) feed p50_ms;
//     serve.shed counts 503s; serve.p99_ms is the open loop's p99 (see
//     p90_ms) and serve.max_rps the closed loop's rate (see Load); on
//     reload, serve.reload_read_p99_ms (reads overlapping a publish)
//     stands against serve.steady_read_p99_ms.
//   - go.gc_pause_ms_per_1k_req feeds p90_ms and serve.p99_ms.
//   - fit.peak_live_mb is the traced fit's sampled peak live heap.
//   - Accounting: the fit rows (tokenize, network, cathy, topmine.attach,
//     lda.fit, tpfg, store.save) plus fit.other_s equal fit.wall_s, the
//     traced fit's wall time; trace.overhead_frac is fit.wall_s over the
//     untraced fit_s of the same run, minus 1.
//   - load.overshoot_p99_ms and load.backlog describe the generator.
package main
