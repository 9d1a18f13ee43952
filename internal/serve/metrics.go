package serve

// Observability: a dependency-free /metrics endpoint in the Prometheus
// text exposition format (version 0.0.4).
//
// Everything on the hot path is an atomic counter or a fixed-bucket
// histogram of atomics — no locks are taken while a request is being
// served except the per-code error map, which is touched only on error
// responses. The scrape handler renders the whole registry into one
// buffer and writes it; gauges that mirror live server state (generation,
// semaphore occupancy, admission queue depth) are sampled at scrape time
// rather than maintained, so they can never drift from the structures they
// describe.
//
// The exported families:
//
//	lesmd_http_requests_total{route}            counter, every handled request
//	lesmd_http_errors_total{route,code}         counter, responses with status >= 400
//	lesmd_http_request_duration_seconds{route}  histogram, wall time per request
//	lesmd_infer_requests_total                  counter, /infer requests that reached fold-in
//	lesmd_infer_shed_total                      counter, /infer requests shed by admission control
//	lesmd_infer_batch_docs                      histogram, documents per /infer request
//	lesmd_infer_admitted                        gauge, /infer requests in the system (waiting + running)
//	lesmd_infer_in_flight                       gauge, busy in-flight slots
//	lesmd_infer_queue_depth                     gauge, admitted minus in-flight (the wait queue)
//	lesmd_search_index_entries                  gauge, named entries in the current search index
//	lesmd_search_index_terms                    gauge, distinct tokens in the search index dictionary
//	lesmd_search_index_postings                 gauge, total postings in the search index
//	lesmd_reload_generation                     gauge, current artifact generation
//	lesmd_reloads_total                         counter, successful snapshot swaps
//	lesmd_reload_failures_total                 counter, failed reload attempts
//	lesmd_panics_total                          counter, handler panics recovered (500 + logged stack)
//	lesmd_goroutines                            gauge, runtime.NumGoroutine (collector-refreshed)
//
// The registry is also an obs.Recorder: the server attaches itself to
// every fold-in call, so the sampler's own telemetry (tokens sampled,
// MH proposal accounting, parallel-pool latencies) lands next to the
// HTTP-side view:
//
//	lesmd_sampler_records_total                 counter, sweep/batch records received
//	lesmd_sampler_tokens_total                  counter, token-sweep visits sampled
//	lesmd_sampler_changed_total                 counter, visits that moved topic
//	lesmd_sampler_proposals_total{proposal}     counter, non-trivial MH proposals (word|doc)
//	lesmd_sampler_accepts_total{proposal}       counter, accepted MH proposals (word|doc)
//	lesmd_pool_passes_total                     counter, parallel passes observed
//	lesmd_pool_wait_seconds_total               counter, sum of chunk dequeue waits
//	lesmd_pool_exec_seconds_total               counter, sum of chunk body wall time
//
// Go runtime basics are sampled at scrape time:
//
//	go_goroutines                               gauge, runtime.NumGoroutine
//	go_gc_pause_seconds_total                   counter, cumulative GC stop-the-world pause
//	go_heap_bytes                               gauge, bytes of allocated heap objects
//
// A scrape does not observe itself: the instrumentation wrapper records a
// request after its handler returns, so the Nth scrape reports N-1
// requests for route="metrics". The test suite's promtool-style lint
// (metrics_test.go) validates the rendered text against the format rules.

import (
	"context"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lesm/internal/obs"
)

// metricsCollectEvery is the cadence of the background runtime-stats
// collector goroutine. Scrapes also refresh the same gauges, so the
// collector only matters for keeping them warm between scrapes; its real
// contract is lifecycle: it must exit on Close (leak-tested).
const metricsCollectEvery = 2 * time.Second

// latencyBuckets are the request-duration histogram bounds in seconds,
// spanning sub-millisecond structure lookups to multi-second saturated
// fold-in batches.
var latencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// inferDocBuckets are the histogram bounds of documents per /infer
// request.
var inferDocBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// routeNames is the fixed route-label universe, in render order. Every
// mux registration instruments itself under exactly one of these.
var routeNames = []string{
	"healthz", "topics", "top_words", "hierarchy_node", "phrases_search",
	"search", "entity", "advisor", "infer", "admin_reload", "metrics",
}

// atomicFloat64 is a CAS-loop float accumulator (histogram sums).
type atomicFloat64 struct{ bits atomic.Uint64 }

func (f *atomicFloat64) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat64) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// histogram is a fixed-bucket Prometheus histogram: buckets[i] counts
// observations in (bounds[i-1], bounds[i]] and the extra last slot is the
// +Inf bucket. Counts are per-bucket; the cumulative le-series is formed
// at render time.
type histogram struct {
	bounds  []float64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomicFloat64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *histogram) Observe(v float64) {
	// First bound >= v is the bucket (le is an inclusive upper bound);
	// past every bound lands in +Inf.
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// routeStat is one route's counters.
type routeStat struct {
	requests atomic.Uint64
	latency  *histogram

	mu     sync.Mutex
	errors map[int]uint64 // by exact status code, >= 400 only
}

// metrics is the server's metric registry. All fields are created once in
// newMetrics and never replaced; hot-path updates are atomic.
type metrics struct {
	routes    map[string]*routeStat
	inferDocs *histogram

	shed           atomic.Uint64
	reloads        atomic.Uint64
	reloadFailures atomic.Uint64
	panics         atomic.Uint64
	goroutines     atomic.Int64

	// Sampler telemetry, fed through the obs.Recorder interface by the
	// fold-in engine. Many batches record concurrently; all atomic.
	samplerRecords atomic.Uint64
	samplerTokens  atomic.Uint64
	samplerChanged atomic.Uint64
	wordProposals  atomic.Uint64
	wordAccepts    atomic.Uint64
	docProposals   atomic.Uint64
	docAccepts     atomic.Uint64
	poolPasses     atomic.Uint64
	poolWait       atomicFloat64
	poolExec       atomicFloat64
}

// RecordSweep implements obs.Recorder: fold-in dispatches run with the
// registry attached, so each batch folds its sampler counters in here.
func (m *metrics) RecordSweep(s obs.SweepStats) {
	m.samplerRecords.Add(1)
	m.samplerTokens.Add(uint64(s.Tokens))
	m.samplerChanged.Add(uint64(s.Changed))
	m.wordProposals.Add(uint64(s.WordProposals))
	m.wordAccepts.Add(uint64(s.WordAccepts))
	m.docProposals.Add(uint64(s.DocProposals))
	m.docAccepts.Add(uint64(s.DocAccepts))
}

// RecordPool implements obs.PoolObserver for parallel-pass telemetry.
func (m *metrics) RecordPool(p obs.PoolStats) {
	m.poolPasses.Add(1)
	m.poolWait.Add(p.Wait.Seconds())
	m.poolExec.Add(p.Exec.Seconds())
}

func newMetrics() *metrics {
	m := &metrics{routes: make(map[string]*routeStat, len(routeNames)), inferDocs: newHistogram(inferDocBuckets)}
	for _, r := range routeNames {
		m.routes[r] = &routeStat{latency: newHistogram(latencyBuckets), errors: map[int]uint64{}}
	}
	return m
}

// statusWriter captures the response status for the instrumentation
// wrapper. A handler that never calls WriteHeader implies 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with the per-route observability and traffic
// hardening that every endpoint gets: panic recovery (a panicking handler
// answers 500 with the stack logged and lesmd_panics_total bumped instead
// of killing its connection unreported), the request/error counters and
// latency histogram, and the per-route timeout (Options.RouteTimeout)
// which cancels the request's context — fold-in work in flight aborts at
// its next cancellation check and waiters drop out of their queues.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	st := s.metrics.routes[route]
	return func(w http.ResponseWriter, r *http.Request) {
		if t := s.opt.RouteTimeout; t > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), t)
			defer cancel()
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		// Recording lives in the deferred recovery block so a panicking
		// handler's request is still counted — exactly once, against the
		// status the client actually saw.
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					// net/http's own abort sentinel: the server handles it
					// silently by design. Not a failure; re-panic untouched.
					panic(rec)
				}
				s.metrics.panics.Add(1)
				log.Printf("serve: panic in %s handler: %v\n%s", route, rec, debug.Stack())
				if sw.status == 0 {
					// Nothing written yet — the client can still get a
					// clean 500. Headers already sent mean the response
					// is torn; net/http closes the connection.
					writeErr(sw, http.StatusInternalServerError, "internal server error")
				}
			}
			code := sw.status
			if code == 0 {
				code = http.StatusOK // replied with neither header nor body
			}
			st.requests.Add(1)
			st.latency.Observe(time.Since(start).Seconds())
			if code >= 400 {
				st.mu.Lock()
				st.errors[code]++
				st.mu.Unlock()
			}
		}()
		h(sw, r)
	}
}

// collectRuntime is the background metrics collector: it refreshes the
// runtime gauges between scrapes and exits when the server's lifecycle
// context dies (leak-tested under Server.Close).
func (s *Server) collectRuntime() {
	defer s.bg.Done()
	t := time.NewTicker(metricsCollectEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.metrics.goroutines.Store(int64(runtime.NumGoroutine()))
		}
	}
}

// --- rendering ---

func fmtFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type promWriter struct {
	b []byte
}

func (p *promWriter) family(name, help, typ string) {
	p.b = append(p.b, "# HELP "+name+" "+help+"\n"...)
	p.b = append(p.b, "# TYPE "+name+" "+typ+"\n"...)
}

func (p *promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		name += "{" + labels + "}"
	}
	p.b = append(p.b, name+" "+fmtFloat(v)+"\n"...)
}

// hist renders one histogram under an already-declared family, with
// labels (may be empty) merged before the le label.
func (p *promWriter) hist(name, labels string, h *histogram) {
	cum := uint64(0)
	le := func(bound string) string {
		if labels == "" {
			return `le="` + bound + `"`
		}
		return labels + `,le="` + bound + `"`
	}
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		p.sample(name+"_bucket", le(fmtFloat(b)), float64(cum))
	}
	cum += h.buckets[len(h.bounds)].Load()
	p.sample(name+"_bucket", le("+Inf"), float64(cum))
	p.sample(name+"_sum", labels, h.sum.Load())
	p.sample(name+"_count", labels, float64(cum))
}

// renderMetrics builds the full exposition. Live-state gauges are sampled
// here so the scrape is always consistent with the serving structures.
func (s *Server) renderMetrics() []byte {
	m := s.metrics
	m.goroutines.Store(int64(runtime.NumGoroutine()))
	p := &promWriter{b: make([]byte, 0, 8<<10)}

	p.family("lesmd_http_requests_total", "Requests handled, by route.", "counter")
	for _, r := range routeNames {
		p.sample("lesmd_http_requests_total", `route="`+r+`"`, float64(m.routes[r].requests.Load()))
	}

	p.family("lesmd_http_errors_total", "Responses with status >= 400, by route and status code.", "counter")
	for _, r := range routeNames {
		st := m.routes[r]
		st.mu.Lock()
		codes := make([]int, 0, len(st.errors))
		for c := range st.errors {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			p.sample("lesmd_http_errors_total", fmt.Sprintf(`route=%q,code="%d"`, r, c), float64(st.errors[c]))
		}
		st.mu.Unlock()
	}

	p.family("lesmd_http_request_duration_seconds", "Request wall time, by route.", "histogram")
	for _, r := range routeNames {
		p.hist("lesmd_http_request_duration_seconds", `route="`+r+`"`, m.routes[r].latency)
	}

	p.family("lesmd_infer_requests_total", "/infer requests that reached fold-in.", "counter")
	p.sample("lesmd_infer_requests_total", "", float64(s.inferRequests.Load()))
	p.family("lesmd_infer_shed_total", "/infer requests shed by admission control (503 + Retry-After).", "counter")
	p.sample("lesmd_infer_shed_total", "", float64(m.shed.Load()))

	p.family("lesmd_infer_batch_docs", "Documents per /infer request.", "histogram")
	p.hist("lesmd_infer_batch_docs", "", m.inferDocs)

	admitted := s.admitted.Load()
	inflight := int64(len(s.inferSem))
	queue := admitted - inflight
	if queue < 0 {
		queue = 0
	}
	p.family("lesmd_infer_admitted", "/infer requests in the system (waiting or running).", "gauge")
	p.sample("lesmd_infer_admitted", "", float64(admitted))
	p.family("lesmd_infer_in_flight", "Busy in-flight fold-in slots (of max-inflight).", "gauge")
	p.sample("lesmd_infer_in_flight", "", float64(inflight))
	p.family("lesmd_infer_queue_depth", "/infer requests waiting for an in-flight slot.", "gauge")
	p.sample("lesmd_infer_queue_depth", "", float64(queue))

	// Index-size gauges are sampled from the current artifact at scrape
	// time, so after a hot reload they describe exactly the generation
	// lesmd_reload_generation names.
	cur := s.cur.Load()
	p.family("lesmd_search_index_entries", "Named entries (words, phrases, authors) in the current generation's search index.", "gauge")
	p.sample("lesmd_search_index_entries", "", float64(cur.index.Entries()))
	p.family("lesmd_search_index_terms", "Distinct tokens in the current generation's search index dictionary.", "gauge")
	p.sample("lesmd_search_index_terms", "", float64(cur.index.Terms()))
	p.family("lesmd_search_index_postings", "Total postings in the current generation's search index.", "gauge")
	p.sample("lesmd_search_index_postings", "", float64(cur.index.Postings()))

	p.family("lesmd_reload_generation", "Current snapshot artifact generation.", "gauge")
	p.sample("lesmd_reload_generation", "", float64(cur.gen))
	p.family("lesmd_reloads_total", "Successful snapshot hot reloads.", "counter")
	p.sample("lesmd_reloads_total", "", float64(m.reloads.Load()))
	p.family("lesmd_reload_failures_total", "Failed snapshot reload attempts.", "counter")
	p.sample("lesmd_reload_failures_total", "", float64(m.reloadFailures.Load()))
	p.family("lesmd_panics_total", "Handler panics recovered by the instrumentation wrapper.", "counter")
	p.sample("lesmd_panics_total", "", float64(m.panics.Load()))

	p.family("lesmd_goroutines", "runtime.NumGoroutine at collection time.", "gauge")
	p.sample("lesmd_goroutines", "", float64(m.goroutines.Load()))

	p.family("lesmd_sampler_records_total", "Sampler sweep/batch records received from fold-in work.", "counter")
	p.sample("lesmd_sampler_records_total", "", float64(m.samplerRecords.Load()))
	p.family("lesmd_sampler_tokens_total", "Token-sweep visits sampled by fold-in work.", "counter")
	p.sample("lesmd_sampler_tokens_total", "", float64(m.samplerTokens.Load()))
	p.family("lesmd_sampler_changed_total", "Sampled visits whose topic assignment changed.", "counter")
	p.sample("lesmd_sampler_changed_total", "", float64(m.samplerChanged.Load()))
	p.family("lesmd_sampler_proposals_total", "Non-trivial Metropolis-Hastings proposals, by proposal kind.", "counter")
	p.sample("lesmd_sampler_proposals_total", `proposal="word"`, float64(m.wordProposals.Load()))
	p.sample("lesmd_sampler_proposals_total", `proposal="doc"`, float64(m.docProposals.Load()))
	p.family("lesmd_sampler_accepts_total", "Accepted Metropolis-Hastings proposals, by proposal kind.", "counter")
	p.sample("lesmd_sampler_accepts_total", `proposal="word"`, float64(m.wordAccepts.Load()))
	p.sample("lesmd_sampler_accepts_total", `proposal="doc"`, float64(m.docAccepts.Load()))

	p.family("lesmd_pool_passes_total", "Parallel worker-pool passes observed.", "counter")
	p.sample("lesmd_pool_passes_total", "", float64(m.poolPasses.Load()))
	p.family("lesmd_pool_wait_seconds_total", "Sum over chunks of time from pass start to chunk dequeue.", "counter")
	p.sample("lesmd_pool_wait_seconds_total", "", m.poolWait.Load())
	p.family("lesmd_pool_exec_seconds_total", "Sum over chunks of chunk body wall time.", "counter")
	p.sample("lesmd_pool_exec_seconds_total", "", m.poolExec.Load())

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.family("go_goroutines", "Number of goroutines that currently exist.", "gauge")
	p.sample("go_goroutines", "", float64(runtime.NumGoroutine()))
	p.family("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter")
	p.sample("go_gc_pause_seconds_total", "", float64(ms.PauseTotalNs)/1e9)
	p.family("go_heap_bytes", "Bytes of allocated heap objects.", "gauge")
	p.sample("go_heap_bytes", "", float64(ms.HeapAlloc))
	return p.b
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(s.renderMetrics())
}
