// Package serve is the read side of the framework: an HTTP/JSON query
// server over model snapshots (internal/store). It answers structure
// lookups (topic top-words, hierarchy nodes, advisor rankings) from
// immutable in-memory state, entity, profile and phrase lookups from the
// generation's internal/search index, and runs fold-in Gibbs inference
// (internal/lda.FoldIn) for unseen documents on the shared parallel
// runtime.
//
// Concurrency model: everything the handlers read hangs off one immutable
// artifact value behind an atomic pointer. Handlers load the pointer once
// per request and run lock-free; a snapshot hot reload (mtime polling of
// the snapshot path, or POST /admin/reload) builds and validates the next
// artifact off to the side and swaps the pointer, so a refit goes live
// with zero downtime while in-flight requests finish on the artifact they
// started with. Every /infer response names the artifact generation it was
// answered from; identical requests against one generation are
// bit-identical.
//
// /infer runs behind a bounded in-flight semaphore: each request resolves
// its documents against the current artifact and runs one lda.FoldIn call
// on the shared pool. Every document samples from its request's (seed,
// index, sweep) PRNG streams, so a response depends only on the request
// and the generation. Snapshots can be served straight from a read-only
// memory mapping (Options.MMap / store.OpenMapped); replaced generations'
// mappings are retired until Close so a request racing a reload never
// touches unmapped memory.
//
// Traffic envelope and observability (serving v3): admission control
// bounds /infer at MaxInFlight running plus MaxQueue waiting — excess
// requests are shed before body decode with 503 + Retry-After.
// Options.RouteTimeout deadlines every route, reaching queued and
// mid-sampling work (fold-in aborts between par chunks). GET /metrics
// renders Prometheus text format 0.0.4 with no client library
// (metrics.go); structure routes carry a strong "gen-N" ETag and honor
// If-None-Match, revalidating across hot-reload generation bumps. All of
// it is locked in under -race by the saturation, ETag, timeout and
// scrape-lint suites in this package's tests.
//
// cmd/lesmd wraps this package as a standalone daemon.
package serve
