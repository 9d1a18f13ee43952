// Command lesmd serves a fitted model snapshot over HTTP/JSON: structure
// lookups answer from immutable in-memory state, and /infer runs
// deterministic fold-in Gibbs inference for unseen documents.
//
// Usage:
//
//	lesm -save model.lesm -topics 4 corpus.txt   # fit & persist
//	lesmd -snapshot model.lesm -addr :8471       # serve
//
// /infer folds in with lda.FoldIn's Metropolis-Hastings kernel, drawing
// from the snapshot's foldin alias tables when it carries them at the
// served prior.
//
// Serving v2 knobs (see docs/ARCHITECTURE.md "Serving v2"):
//
//	-mmap                zero-copy decode: big sections serve straight
//	                     from the page cache instead of heap copies
//	-reload-poll 10s     hot reload: poll the snapshot file and swap a
//	                     refit in atomically, zero downtime
//
// Serving v3 traffic hardening (docs/ARCHITECTURE.md "Serving v3"):
//
//	-max-queue 64        admission control: /infer requests beyond
//	                     max-inflight+max-queue in the system are shed
//	                     with 503 + Retry-After instead of queueing
//	                     without bound
//	-route-timeout 2s    per-request timeout on every route; cancels the
//	                     request context (queued work drops out, running
//	                     fold-in aborts)
//
// Observability: GET /metrics serves Prometheus text format (per-route
// request/error counters and latency histograms, documents-per-request
// histogram, queue/in-flight gauges, reload generation, fold-in sampler
// telemetry, Go runtime basics) with no external dependencies; structure
// routes carry ETag = snapshot generation and honor If-None-Match with
// 304s. -pprof additionally mounts net/http/pprof under /debug/pprof/
// and expvar at /debug/vars — off by default because those endpoints
// expose process internals; keep them behind the admin boundary.
//
// A refit goes live with either the poller or an explicit
//
//	curl -X POST host:8471/admin/reload
//
// Endpoints:
//
//	GET  /healthz                     liveness, sections, generation, request counter
//	GET  /metrics                     Prometheus text-format metrics
//	GET  /topics                      topic list with weights
//	GET  /topics/{k}/top-words?n=10   topic k's top words
//	GET  /hierarchy/node/{id}         hierarchy node by path (o/1/2 or o.1.2)
//	GET  /phrases/search?q=&limit=    ranked phrase search (substring)
//	GET  /search?q=&limit=            fuzzy entity search over words,
//	                                  phrases and authors (bounded edit
//	                                  distance, ranked typed hits)
//	GET  /entity/{name}               composed entity profile: fuzzy name
//	                                  resolution, then topic mixture /
//	                                  hierarchy placements / phrases for a
//	                                  word, occurrences + constituents for
//	                                  a phrase, advisor + advisees for an
//	                                  author
//	GET  /advisor/{author}            advisor ranking for a numeric
//	                                  author id
//	POST /infer                       fold-in inference for new documents
//	POST /admin/reload                force an immediate snapshot reload
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lesm/internal/serve"
)

func main() {
	snapshot := flag.String("snapshot", "", "path to the model snapshot (required)")
	addr := flag.String("addr", ":8471", "listen address")
	p := flag.Int("p", 0, "fold-in workers per /infer request (0 = GOMAXPROCS)")
	inflight := flag.Int("max-inflight", 4, "max concurrent /infer fold-ins")
	sweeps := flag.Int("sweeps", 30, "default fold-in Gibbs sweeps")
	alpha := flag.Float64("alpha", 0, "fold-in document prior (0 = 0.1; the fitted 50/K prior swamps short documents — pass it explicitly for posterior-mean behavior)")
	mmap := flag.Bool("mmap", false, "decode snapshots zero-copy over a read-only memory map (large models: page tables instead of heap)")
	reloadPoll := flag.Duration("reload-poll", 0, "poll the snapshot file at this interval and hot-reload on change (0 = admin-reload only)")
	maxQueue := flag.Int("max-queue", 64, "max /infer requests waiting behind the in-flight slots before load shedding (503 + Retry-After)")
	routeTimeout := flag.Duration("route-timeout", 0, "per-request timeout on every route; cancels the request context (0 = none)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ and expvar at /debug/vars (admin-scoped: exposes stacks, heap contents, and the command line)")
	flag.Parse()

	if *snapshot == "" {
		flag.Usage()
		os.Exit(2)
	}
	// The same load routine hot reloads use, so generation 1 and every
	// later generation decode identically.
	snap, closer, err := serve.LoadSnapshot(*snapshot, *mmap)
	if err != nil {
		log.Fatalf("lesmd: load %s: %v", *snapshot, err)
	}
	srv, err := serve.New(snap, serve.Options{
		P: *p, MaxInFlight: *inflight, Sweeps: *sweeps, Alpha: *alpha,
		SnapshotPath: *snapshot,
		ReloadPoll:   *reloadPoll,
		MMap:         *mmap,
		MaxQueue:     *maxQueue,
		RouteTimeout: *routeTimeout,
		Pprof:        *pprofOn,
	})
	if err != nil {
		log.Fatalf("lesmd: %v", err)
	}
	srv.AdoptCloser(closer)
	log.Printf("lesmd: loaded %s (sections: %s; mmap=%v reload-poll=%s max-queue=%d route-timeout=%s), listening on %s",
		*snapshot, strings.Join(snap.Sections(), ", "), *mmap, *reloadPoll, *maxQueue, *routeTimeout, *addr)

	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-sig
		// Shutdown stops the listener (unblocking ListenAndServe) and then
		// drains in-flight requests; main must wait for the drain, not just
		// for ListenAndServe to return, or exiting would sever them.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}()
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("lesmd: %v", err)
	}
	<-drained
	// With the HTTP side drained, stop the reload poller and release the
	// snapshot mappings.
	if err := srv.Close(); err != nil {
		log.Printf("lesmd: close: %v", err)
	}
}
