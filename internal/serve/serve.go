package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lesm/internal/core"
	"lesm/internal/lda"
	"lesm/internal/linalg"
	"lesm/internal/search"
	"lesm/internal/store"
	"lesm/internal/textkit"
	"lesm/internal/tpfg"
)

// Options configure a Server.
type Options struct {
	// P bounds the fold-in worker count per /infer request (0 = GOMAXPROCS).
	P int
	// MaxInFlight caps concurrent /infer fold-ins; further requests wait
	// until a slot frees or their context is cancelled (default 4).
	MaxInFlight int
	// Sweeps is the fold-in sweep count (default 30).
	Sweeps int
	// Alpha is the fold-in document prior (default
	// lda.DefaultFoldInAlpha). The snapshot's fitted alpha (50/K by
	// convention) is deliberately NOT the default: it is calibrated for
	// whole training documents and bounds a short query document's theta
	// to near-uniform; pass it explicitly to get posterior-mean behavior.
	Alpha float64

	// SnapshotPath is the on-disk snapshot backing hot reload: POST
	// /admin/reload (and the ReloadPoll poller) re-reads it and swaps the
	// serving artifact atomically. Empty disables path-driven reload;
	// Reload with an explicit snapshot still works.
	SnapshotPath string
	// ReloadPoll, when > 0 and SnapshotPath is set, polls the snapshot
	// file's (size, mtime) stamp at this interval and hot-reloads on
	// change. Zero disables polling.
	ReloadPoll time.Duration
	// MMap routes path-driven (re)loads through store.OpenMapped: the big
	// sections serve zero-copy from the mapping, and replaced mappings are
	// retired (kept mapped) until Close so in-flight requests never fault.
	MMap bool
	// MaxQueue bounds the /infer admission queue: at most
	// MaxInFlight+MaxQueue requests may be in the system (running or
	// waiting for a slot); beyond that, requests are shed immediately
	// with 503 + Retry-After instead of queueing without bound (default
	// 64).
	MaxQueue int
	// RouteTimeout, when > 0, cancels any request's context after this
	// long, on every route: a queued /infer drops out of its queue, a
	// running fold-in aborts at its next cancellation check, and the
	// client gets a 503. Zero disables.
	RouteTimeout time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ and the expvar
	// handler at /debug/vars on the serving mux. Off by default: the
	// endpoints expose stacks, heap contents, and command lines, so they
	// belong behind the same network boundary as /admin. When off the
	// paths 404 like any unregistered route.
	Pprof bool
	// Ctx, when cancelled, shuts down the server's background machinery
	// (reload poller, runtime-metrics collector) exactly like Close (nil =
	// background). Mapped snapshots are only released by an explicit
	// Close, which must come after the HTTP server has drained.
	Ctx context.Context
}

// withDefaults fills defaults and clamps nonsensical negatives (a negative
// MaxInFlight would panic in make(chan); a negative Sweeps would silently
// skip all refinement sweeps).
func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4
	}
	if o.Sweeps <= 0 {
		o.Sweeps = 30
	}
	if o.Sweeps > maxInferSweeps {
		o.Sweeps = maxInferSweeps
	}
	if o.Alpha <= 0 {
		o.Alpha = lda.DefaultFoldInAlpha
	}
	if o.ReloadPoll < 0 {
		o.ReloadPoll = 0
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.RouteTimeout < 0 {
		o.RouteTimeout = 0
	}
	return o
}

// phraseHit is a phrase entry of the search index as the phrase lookups
// render it.
type phraseHit struct {
	Path    string  `json:"path"`
	Display string  `json:"display"`
	Score   float64 `json:"score"`
}

// authorNode is one hierarchy placement of an author entity.
type authorNode struct {
	Path  string  `json:"path"`
	Score float64 `json:"score"`
}

// artifact is everything derived from one snapshot: the immutable unit a
// hot reload swaps. Handlers load the current artifact exactly once per
// request and use only it afterwards, so a swap never mixes generations
// within a response and in-flight requests finish on the artifact they
// started with. All fields are initialized in buildArtifact and never
// written afterwards; reads need no locking.
type artifact struct {
	gen    uint64
	snap   *store.Snapshot
	vocab  *textkit.Vocabulary
	foldIn *lda.FoldInModel
	// preorder lists the hierarchy's nodes in pre-order; nodes maps a
	// path to its node for /hierarchy/node lookups. A decoded hierarchy
	// may repeat a path, and the map keeps only the last such node, so
	// everything that walks the hierarchy walks preorder.
	preorder []*core.TopicNode
	nodes    map[string]*core.TopicNode
	advisor  *tpfg.Result
	// predicted[i] and predictedScore[i] are advisor.Best(i), computed
	// once at build so /advisor lookups don't redo the argmax per request.
	predicted      []int
	predictedScore []float64
	// advisees[v] lists the authors whose predicted advisor is v,
	// ascending — the reverse edge set of predicted, for entity profiles.
	advisees map[int][]int
	// index is the generation's entity search index (always built, possibly
	// empty); it is immutable and rides the same atomic swap as the rest of
	// the artifact, so its readers are lock-free. It holds the generation's
	// one phrase list.
	index *search.Index
	// authorNodes[id] lists the hierarchy placements of author id — the
	// nodes carrying an author-typed entity with that id (search.AuthorTypes
	// detection), in pre-order with the entity's score.
	authorNodes map[int][]authorNode
	// closer releases the snapshot's backing mapping (store.Mapped); nil
	// for heap-decoded snapshots. Closed by Server.Close, never on swap —
	// an in-flight request may still read the old mapping.
	closer io.Closer
}

// buildArtifact validates a snapshot and precomputes the serving state for
// it. The snapshot must carry at least one section; endpoints whose
// section is absent answer 404 with an explanatory error.
func buildArtifact(snap *store.Snapshot, opt Options, gen uint64, closer io.Closer) (*artifact, error) {
	if snap == nil {
		return nil, errors.New("serve: nil snapshot")
	}
	if len(snap.Sections()) == 0 {
		return nil, errors.New("serve: empty snapshot (no sections)")
	}
	// CRC-valid files can still be shape-inconsistent (e.g. rank vectors
	// disagreeing with candidate lists); reject them here instead of
	// panicking at query time.
	if err := snap.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid snapshot: %w", err)
	}
	a := &artifact{gen: gen, snap: snap, closer: closer}

	if snap.Vocab != nil {
		a.vocab = textkit.VocabularyFromWords(snap.Vocab)
	}
	a.foldIn = snap.FoldInModel(opt.Alpha)
	if a.foldIn != nil {
		// Without tables adopted from the snapshot's foldin section
		// (stored at Alpha), pay the O(K·V) alias build at load, not on
		// the first /infer request against this artifact.
		a.foldIn.PrecomputeSparse()
	}
	if h := snap.Hierarchy; h != nil {
		a.nodes = map[string]*core.TopicNode{}
		h.Root.Walk(func(n *core.TopicNode) {
			a.preorder = append(a.preorder, n)
			a.nodes[n.Path] = n
		})
	}
	if adv := snap.Advisor; adv != nil {
		a.advisor = &tpfg.Result{Net: adv.Net, Rank: adv.Rank}
		a.predicted = make([]int, adv.Net.NumAuthors)
		a.predictedScore = make([]float64, adv.Net.NumAuthors)
		a.advisees = map[int][]int{}
		for i := range a.predicted {
			best, score := a.advisor.Best(i)
			a.predicted[i], a.predictedScore[i] = best, score
			if best >= 0 {
				a.advisees[best] = append(a.advisees[best], i)
			}
		}
	}
	if h := snap.Hierarchy; h != nil {
		a.authorNodes = map[int][]authorNode{}
		authorTypes := search.AuthorTypes(h)
		for _, n := range a.preorder {
			for _, x := range authorTypes {
				for _, e := range n.Entities[x] {
					a.authorNodes[e.ID] = append(a.authorNodes[e.ID], authorNode{Path: n.Path, Score: e.Score})
				}
			}
		}
	}
	// The entity search index is built once per generation here, so it
	// rides the same atomic artifact swap as everything else: a hot reload
	// replaces index and snapshot together, and readers never lock.
	a.index = search.FromSnapshot(snap)
	return a, nil
}

// Server answers queries over the current snapshot artifact. Structure
// lookups are lock-free reads of the atomically-swapped artifact pointer;
// /infer runs on the shared pool behind a bounded in-flight semaphore.
type Server struct {
	opt      Options
	cur      atomic.Pointer[artifact]
	inferSem chan struct{}
	mux      *http.ServeMux

	// Background machinery lifecycle: ctx is cancelled by Close (or by
	// Options.Ctx); bg tracks the reload poller and the runtime-metrics
	// collector.
	ctx    context.Context
	cancel context.CancelFunc
	bg     sync.WaitGroup

	// reloadMu serializes artifact swaps; lastStamp is the stamp of the
	// last snapshot loaded from SnapshotPath.
	reloadMu  sync.Mutex
	nextGen   uint64
	lastStamp fileStamp
	reloadErr atomic.Value // string: last path-reload failure ("" = none)

	// retired holds closers of replaced artifacts until Close: an
	// in-flight request may still be reading the old mapping, so swaps
	// must never unmap. The closers hold mappings only, never the decoded
	// snapshots, so what a retired generation costs is address space over
	// clean, evictable file pages — not heap.
	mu      sync.Mutex
	retired []io.Closer
	closed  bool

	// inferRequests counts /infer requests that reached fold-in, surfaced
	// on /healthz and /metrics.
	inferRequests atomic.Uint64

	// metrics is the /metrics registry (metrics.go); admitted is the
	// admission-control gauge: /infer requests in the system, bounded by
	// MaxInFlight+MaxQueue.
	metrics  *metrics
	admitted atomic.Int64
}

// New builds a server over the snapshot and starts its background
// machinery (runtime-metrics collector, plus the reload poller when
// SnapshotPath + ReloadPoll are set). Callers must Close the server when
// done serving; cancelling Options.Ctx stops the background goroutines
// early but releases no mappings.
func New(snap *store.Snapshot, opt Options) (*Server, error) {
	opt = opt.withDefaults()
	a, err := buildArtifact(snap, opt, 1, nil)
	if err != nil {
		return nil, err
	}
	base := opt.Ctx
	if base == nil {
		base = context.Background()
	}
	s := &Server{opt: opt, inferSem: make(chan struct{}, opt.MaxInFlight), nextGen: 1, metrics: newMetrics()}
	s.ctx, s.cancel = context.WithCancel(base)
	s.cur.Store(a)
	s.reloadErr.Store("")
	if opt.SnapshotPath != "" {
		// Best-effort initial stamp, so a poller doesn't reload a file
		// that hasn't changed since the snapshot we were handed.
		if st, err := stampPath(opt.SnapshotPath); err == nil {
			s.lastStamp = st
		}
	}

	// Every route is registered through instrument (metrics.go): per-route
	// request/error counters, latency histogram, per-route timeout.
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealth))
	mux.HandleFunc("/topics", s.instrument("topics", s.handleTopics))
	mux.HandleFunc("/topics/", s.instrument("top_words", s.handleTopicTopWords))
	mux.HandleFunc("/hierarchy/node/", s.instrument("hierarchy_node", s.handleHierarchyNode))
	mux.HandleFunc("/phrases/search", s.instrument("phrases_search", s.handlePhraseSearch))
	mux.HandleFunc("/search", s.instrument("search", s.handleSearch))
	mux.HandleFunc("/entity/", s.instrument("entity", s.handleEntity))
	mux.HandleFunc("/advisor/", s.instrument("advisor", s.handleAdvisor))
	mux.HandleFunc("/infer", s.instrument("infer", s.handleInfer))
	mux.HandleFunc("/admin/reload", s.instrument("admin_reload", s.handleAdminReload))
	mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	if opt.Pprof {
		// Deliberately NOT instrumented: the debug routes are outside the
		// fixed route-label universe, and a long CPU profile would distort
		// the latency histograms it exists to explain.
		registerDebug(mux)
	}
	s.mux = mux

	if opt.SnapshotPath != "" && opt.ReloadPoll > 0 {
		s.bg.Add(1)
		go s.pollReload()
	}
	s.bg.Add(1)
	go s.collectRuntime()
	return s, nil
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// AdoptCloser attaches the initial snapshot's backing resource (typically
// the mapping closer LoadSnapshot returns) to the server, releasing it on
// Close like the mappings of reloaded generations. The server keeps it
// past the first reload, so it should hold the mapping alone
// (store.Mapped.Mapping), not the decoded snapshot. Call it right after
// New, before serving.
func (s *Server) AdoptCloser(c io.Closer) {
	if c == nil {
		return
	}
	s.mu.Lock()
	s.retired = append(s.retired, c)
	s.mu.Unlock()
}

// Generation returns the current artifact generation (1 for the snapshot
// New was given; +1 per successful reload).
func (s *Server) Generation() uint64 { return s.cur.Load().gen }

// Close shuts the server down: it stops the reload poller and the
// runtime-metrics collector and releases every snapshot mapping (current
// and retired). Call it after the HTTP server wrapping Handler has
// drained — handlers must not run concurrently with the unmapping.
// Idempotent.
func (s *Server) Close() error {
	s.cancel()
	s.bg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if c := s.cur.Load().closer; c != nil {
		first = c.Close()
	}
	for _, c := range s.retired {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.retired = nil
	return first
}

// --- helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return false
	}
	return true
}

// queryInt parses an integer query parameter with a default.
func queryInt(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

// searchParams reads the parameters of /search and /phrases/search: q,
// trimmed and required, and limit, a positive integer (default 20). On a
// bad one it writes the 400 and reports false.
func searchParams(w http.ResponseWriter, r *http.Request) (q string, limit int, ok bool) {
	q = strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		writeErr(w, http.StatusBadRequest, "missing query parameter q")
		return "", 0, false
	}
	limit, err := queryInt(r, "limit", 20)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return "", 0, false
	}
	if limit <= 0 {
		writeErr(w, http.StatusBadRequest, "parameter \"limit\" must be positive, got %d", limit)
		return "", 0, false
	}
	return q, limit, true
}

// --- conditional GET (ETag = snapshot generation) ---
//
// Structure routes answer from one immutable artifact, and identical
// requests against one generation are bit-identical — so the artifact
// generation IS the entity tag. A client that re-validates with
// If-None-Match gets a body-free 304 until a hot reload bumps the
// generation, at which point the tag stops matching and the route serves
// the new generation's content with its new tag.

// etagOf formats generation gen as a strong ETag.
func etagOf(gen uint64) string { return `"gen-` + strconv.FormatUint(gen, 10) + `"` }

// clientHasGen reports whether the request's If-None-Match names tag.
// Weak validators compare equal (`W/"gen-3"` matches `"gen-3"`): equal
// generations are byte-equal content, which is stronger than weak
// equivalence requires.
func clientHasGen(r *http.Request, tag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, c := range strings.Split(inm, ",") {
		c = strings.TrimSpace(c)
		if c == "*" {
			return true
		}
		if strings.TrimPrefix(c, "W/") == tag {
			return true
		}
	}
	return false
}

// condGET runs the conditional-GET protocol for a structure route pinned
// to artifact a: it reports true after writing a 304 (the caller returns
// immediately), and otherwise stamps the ETag for the 200 the caller is
// about to write. Handlers call it only once the request has resolved to
// servable content — error responses carry no ETag.
func condGET(w http.ResponseWriter, r *http.Request, a *artifact) bool {
	tag := etagOf(a.gen)
	w.Header().Set("ETag", tag)
	if clientHasGen(r, tag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// --- /healthz ---

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	a := s.cur.Load()
	resp := map[string]any{
		"status":         "ok",
		"sections":       a.snap.Sections(),
		"generation":     a.gen,
		"infer_requests": s.inferRequests.Load(),
	}
	if a.snap.Topics != nil {
		resp["topics"] = a.snap.Topics.K
	}
	if a.vocab != nil {
		resp["vocab"] = a.vocab.Size()
	}
	if a.snap.Hierarchy != nil {
		resp["hierarchy_nodes"] = len(a.preorder)
	}
	if s.opt.SnapshotPath != "" {
		resp["snapshot_path"] = s.opt.SnapshotPath
		if msg := s.reloadErr.Load().(string); msg != "" {
			resp["reload_error"] = msg
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- /topics and /topics/:k/top-words ---

func (s *Server) handleTopics(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	a := s.cur.Load()
	t := a.snap.Topics
	if t == nil {
		writeErr(w, http.StatusNotFound, "snapshot has no topics section")
		return
	}
	if condGET(w, r, a) {
		return
	}
	type topicInfo struct {
		Topic  int     `json:"topic"`
		Weight float64 `json:"weight,omitempty"`
	}
	out := make([]topicInfo, 0, len(t.Phi))
	for k := range t.Phi {
		ti := topicInfo{Topic: k}
		if k < len(t.Weight) {
			ti.Weight = t.Weight[k]
		}
		out = append(out, ti)
	}
	writeJSON(w, http.StatusOK, map[string]any{"topics": out})
}

func (s *Server) handleTopicTopWords(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	a := s.cur.Load()
	t := a.snap.Topics
	if t == nil {
		writeErr(w, http.StatusNotFound, "snapshot has no topics section")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/topics/")
	parts := strings.Split(rest, "/")
	if len(parts) != 2 || parts[1] != "top-words" {
		writeErr(w, http.StatusNotFound, "unknown topics endpoint %q (want /topics/{k}/top-words)", r.URL.Path)
		return
	}
	k, err := strconv.Atoi(parts[0])
	if err != nil || k < 0 || k >= len(t.Phi) {
		writeErr(w, http.StatusNotFound, "topic %q out of range [0, %d)", parts[0], len(t.Phi))
		return
	}
	n, err := queryInt(r, "n", 10)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if condGET(w, r, a) {
		return
	}
	phi := t.Phi[k]
	if n > len(phi) {
		n = len(phi)
	}
	if n < 0 {
		n = 0
	}
	type wordInfo struct {
		ID   int     `json:"id"`
		Word string  `json:"word,omitempty"`
		P    float64 `json:"p"`
	}
	words := make([]wordInfo, 0, n)
	for _, id := range linalg.TopK(phi, n) {
		wi := wordInfo{ID: id, P: phi[id]}
		if a.vocab != nil && id < a.vocab.Size() {
			wi.Word = a.vocab.Word(id)
		}
		words = append(words, wi)
	}
	writeJSON(w, http.StatusOK, map[string]any{"topic": k, "words": words})
}

// --- /hierarchy/node/:id ---

func (s *Server) handleHierarchyNode(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	a := s.cur.Load()
	if a.nodes == nil {
		writeErr(w, http.StatusNotFound, "snapshot has no hierarchy section")
		return
	}
	// Node ids are topic paths ("o", "o/1/2"); dots are accepted as
	// separators too ("o.1.2") for clients that keep slashes out of ids.
	id := strings.TrimPrefix(r.URL.Path, "/hierarchy/node/")
	path := strings.ReplaceAll(id, ".", "/")
	n := a.nodes[path]
	if n == nil {
		writeErr(w, http.StatusNotFound, "no hierarchy node %q", id)
		return
	}
	if condGET(w, r, a) {
		return
	}
	type phraseInfo struct {
		Display string  `json:"display"`
		Score   float64 `json:"score"`
	}
	type entityInfo struct {
		ID      int     `json:"id"`
		Display string  `json:"display"`
		Score   float64 `json:"score"`
	}
	type entityGroup struct {
		Type     int          `json:"type"`
		Name     string       `json:"name,omitempty"`
		Entities []entityInfo `json:"entities"`
	}
	phrases := make([]phraseInfo, 0, len(n.Phrases))
	for _, p := range n.Phrases {
		phrases = append(phrases, phraseInfo{p.Display, p.Score})
	}
	children := make([]string, 0, len(n.Children))
	for _, c := range n.Children {
		children = append(children, c.Path)
	}
	var groups []entityGroup
	typeIDs := make([]core.TypeID, 0, len(n.Entities))
	for x := range n.Entities {
		typeIDs = append(typeIDs, x)
	}
	sort.Slice(typeIDs, func(a, b int) bool { return typeIDs[a] < typeIDs[b] })
	for _, x := range typeIDs {
		g := entityGroup{Type: int(x), Name: a.snap.Hierarchy.TypeNames[x]}
		for _, e := range n.Entities[x] {
			g.Entities = append(g.Entities, entityInfo{e.ID, e.Display, e.Score})
		}
		groups = append(groups, g)
	}
	parent := ""
	if p := n.Parent(); p != nil {
		parent = p.Path
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"path": n.Path, "level": n.Level, "rho": n.Rho,
		"parent": parent, "children": children,
		"phrases": phrases, "entities": groups,
	})
}

// --- /phrases/search ---

// handlePhraseSearch is GET /phrases/search?q=&limit= — the phrases whose
// folded display contains the folded q, ranked by rankPhrases.
func (s *Server) handlePhraseSearch(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	a := s.cur.Load()
	lo, folded := a.index.Phrases()
	if len(folded) == 0 {
		writeErr(w, http.StatusNotFound, "snapshot has no phrases (roles or hierarchy section required)")
		return
	}
	q, limit, ok := searchParams(w, r)
	if !ok {
		return
	}
	q = textkit.Fold(q)
	if condGET(w, r, a) {
		return
	}
	var ids []int32
	for i, f := range folded {
		if strings.Contains(f, q) {
			ids = append(ids, int32(lo+i))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"query": q, "hits": rankPhrases(phraseHits(a.index, ids), limit)})
}

// rankPhrases orders phrase hits by descending score, then display and
// path ascending, keeping the input order of full ties, and caps them at
// limit.
func rankPhrases(hits []phraseHit, limit int) []phraseHit {
	sort.SliceStable(hits, func(a, b int) bool {
		if hits[a].Score != hits[b].Score {
			return hits[a].Score > hits[b].Score
		}
		if hits[a].Display != hits[b].Display {
			return hits[a].Display < hits[b].Display
		}
		return hits[a].Path < hits[b].Path
	})
	if len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// phraseHits renders the phrase entries among the index entries ids, in
// id order, which is the snapshot's phrase order; never nil.
func phraseHits(ix *search.Index, ids []int32) []phraseHit {
	out := []phraseHit{}
	for _, id := range ids {
		if e := ix.Entry(int(id)); e.Kind == search.KindPhrase {
			out = append(out, phraseHit{Path: e.Path, Display: e.Name, Score: e.Weight})
		}
	}
	return out
}

// --- /advisor/:author ---

func (s *Server) handleAdvisor(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	a := s.cur.Load()
	if a.advisor == nil {
		writeErr(w, http.StatusNotFound, "snapshot has no advisor section")
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/advisor/")
	author, err := strconv.Atoi(raw)
	if err != nil {
		// Distinct from out-of-range: "/advisor/3/x" or "/advisor/smith"
		// never names an author index, and the old range message sent
		// clients hunting for a numeric bound that wasn't the problem.
		// Name lookups belong to /entity/:name.
		writeErr(w, http.StatusNotFound, "author %q is not a numeric author id (fuzzy name lookup is /entity/:name)", raw)
		return
	}
	if author < 0 || author >= a.advisor.Net.NumAuthors {
		writeErr(w, http.StatusNotFound, "author %q out of range [0, %d)", raw, a.advisor.Net.NumAuthors)
		return
	}
	if condGET(w, r, a) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"author": author, "advisor": a.predicted[author], "score": a.predictedScore[author],
		"candidates": candidatesOf(a, author),
	})
}

// candInfo is one advisor candidate in /advisor and /entity responses.
type candInfo struct {
	Advisor int     `json:"advisor"`
	Rank    float64 `json:"rank"`
	Start   int     `json:"start"`
	End     int     `json:"end"`
}

// candidatesOf renders author's candidate list with rank mass. Rank[v+1]
// corresponds to Cands[v]; Rank[0] is the virtual no-advisor node.
func candidatesOf(a *artifact, author int) []candInfo {
	cands := make([]candInfo, 0, len(a.advisor.Net.Cands[author]))
	for v, c := range a.advisor.Net.Cands[author] {
		cands = append(cands, candInfo{c.Advisor, a.advisor.Rank[author][v+1], c.Start, c.End})
	}
	return cands
}

// --- /search and /entity/:name ---

// searchHit is the JSON form of one /search result.
type searchHit struct {
	Kind     string  `json:"kind"`
	Name     string  `json:"name"`
	ID       int     `json:"id"`
	Path     string  `json:"path,omitempty"`
	Weight   float64 `json:"weight,omitempty"`
	Score    float64 `json:"score"`
	Distance int     `json:"distance"`
	Matched  int     `json:"matched"`
	Of       int     `json:"of"`
}

func toSearchHit(h search.Hit) searchHit {
	return searchHit{
		Kind: h.Kind.String(), Name: h.Name, ID: h.ID, Path: h.Path,
		Weight: h.Weight, Score: h.Score, Distance: h.Distance,
		Matched: h.Matched, Of: h.Of,
	}
}

// handleSearch is GET /search?q=&limit= — ranked, typed, fuzzy hits over
// everything the snapshot knows by name (vocabulary words, phrase
// displays, author ids/labels).
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	a := s.cur.Load()
	q, limit, ok := searchParams(w, r)
	if !ok {
		return
	}
	if condGET(w, r, a) {
		return
	}
	hits := []searchHit{}
	for _, h := range a.index.Search(q, limit) {
		hits = append(hits, toSearchHit(h))
	}
	writeJSON(w, http.StatusOK, map[string]any{"query": q, "hits": hits})
}

// profileCap bounds the per-section list lengths of an entity profile
// (topic mixture entries, hierarchy placements, related phrases).
const profileCap = 10

// handleEntity is GET /entity/:name — fuzzy name resolution (exact and
// edit-distance-1/2 per token) plus one composed response with everything
// the engines know about the matched entity.
func (s *Server) handleEntity(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	a := s.cur.Load()
	name := strings.TrimPrefix(r.URL.Path, "/entity/")
	if strings.TrimSpace(name) == "" {
		writeErr(w, http.StatusBadRequest, "missing entity name (want /entity/:name)")
		return
	}
	hit, ok := a.index.Resolve(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "no entity matching %q (within edit distance of any indexed name)", name)
		return
	}
	if condGET(w, r, a) {
		return
	}
	resp := map[string]any{
		"query":      name,
		"resolved":   toSearchHit(hit),
		"generation": a.gen,
	}
	switch hit.Kind {
	case search.KindWord:
		s.profileWord(a, hit.ID, resp)
	case search.KindPhrase:
		s.profilePhrase(a, hit.Name, resp)
	case search.KindAuthor:
		s.profileAuthor(a, hit.ID, resp)
	}
	writeJSON(w, http.StatusOK, resp)
}

// topicShare is one entry of a topic mixture.
type topicShare struct {
	Topic int     `json:"topic"`
	P     float64 `json:"p"`
}

// nodeShare is one hierarchy placement of a word.
type nodeShare struct {
	Path string  `json:"path"`
	P    float64 `json:"p"`
}

// mixtureOf computes p(k|words) ∝ sum_w Phi[k][w] · weight_k over the
// flat topic model, normalized — the posterior topic share of the word
// set under the fitted model, descending, capped at profileCap.
func mixtureOf(t *store.Topics, words []int) []topicShare {
	if t == nil || t.Phi == nil {
		return nil
	}
	mass := make([]float64, len(t.Phi))
	total := 0.0
	for k, phi := range t.Phi {
		wk := 1.0
		if k < len(t.Weight) && t.Weight[k] > 0 {
			wk = t.Weight[k]
		}
		for _, w := range words {
			if w >= 0 && w < len(phi) {
				mass[k] += phi[w] * wk
			}
		}
		total += mass[k]
	}
	if total <= 0 {
		return nil
	}
	out := make([]topicShare, 0, len(mass))
	for k, m := range mass {
		if m > 0 {
			out = append(out, topicShare{Topic: k, P: m / total})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].P > out[b].P })
	if len(out) > profileCap {
		out = out[:profileCap]
	}
	return out
}

// wordNodes ranks the hierarchy nodes word w loads on by the node's term
// distribution, descending, capped at profileCap.
func wordNodes(a *artifact, w int) []nodeShare {
	var out []nodeShare
	for _, n := range a.preorder {
		phi := n.Phi[core.TermType]
		if w >= 0 && w < len(phi) && phi[w] > 0 {
			out = append(out, nodeShare{Path: n.Path, P: phi[w]})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].P > out[b].P })
	if len(out) > profileCap {
		out = out[:profileCap]
	}
	return out
}

func (s *Server) profileWord(a *artifact, w int, resp map[string]any) {
	if m := mixtureOf(a.snap.Topics, []int{w}); m != nil {
		resp["topic_mixture"] = m
	}
	if nodes := wordNodes(a, w); nodes != nil {
		resp["nodes"] = nodes
	}
	if a.vocab != nil && w < a.vocab.Size() {
		// The phrases holding the word as a whole token: its postings.
		ids := a.index.WithToken(textkit.Fold(a.vocab.Word(w)))
		if ph := rankPhrases(phraseHits(a.index, ids), profileCap); len(ph) > 0 {
			resp["phrases"] = ph
		}
	}
}

func (s *Server) profilePhrase(a *artifact, display string, resp map[string]any) {
	// Every phrase entry whose folded display equals this one's, in the
	// snapshot's phrase order; the resolved entry itself is among them.
	resp["occurrences"] = phraseHits(a.index, a.index.WithName(display))
	// The phrase's constituent words, resolved to vocabulary ids where the
	// snapshot knows them, and the composed topic mixture over those ids.
	// Tokens are folded and a vocabulary need not be, so a token resolves
	// to the first word entry whose folded name it is.
	type wordRef struct {
		Word string `json:"word"`
		ID   int    `json:"id"`
	}
	var words []wordRef
	var ids []int
	for _, tok := range textkit.Tokenize(display) {
		ref := wordRef{Word: tok, ID: -1}
		for _, i := range a.index.WithName(tok) {
			if e := a.index.Entry(int(i)); e.Kind == search.KindWord {
				ref.ID = e.ID
				ids = append(ids, e.ID)
				break
			}
		}
		words = append(words, ref)
	}
	if words != nil {
		resp["words"] = words
	}
	if m := mixtureOf(a.snap.Topics, ids); m != nil {
		resp["topic_mixture"] = m
	}
}

func (s *Server) profileAuthor(a *artifact, id int, resp map[string]any) {
	if a.advisor != nil && id >= 0 && id < a.advisor.Net.NumAuthors {
		resp["advisor"] = map[string]any{
			"advisor": a.predicted[id], "score": a.predictedScore[id],
			"candidates": candidatesOf(a, id),
		}
		advisees := []map[string]any{}
		for _, j := range a.advisees[id] {
			advisees = append(advisees, map[string]any{"author": j, "score": a.predictedScore[j]})
		}
		resp["advisees"] = advisees
	}
	if nodes := a.authorNodes[id]; nodes != nil {
		resp["nodes"] = nodes
	}
}

// --- /infer ---

// maxInferSweeps caps the per-request sweep count (client-supplied or
// operator default alike) so one request cannot monopolize the pool.
const maxInferSweeps = 500

// inferRequest is the fold-in request body. Documents arrive either as
// token strings (resolved through the snapshot vocabulary; unknown words
// are dropped) or as raw vocabulary ids.
type inferRequest struct {
	Seed   int64      `json:"seed"`
	Docs   [][]string `json:"docs,omitempty"`
	IDs    [][]int    `json:"ids,omitempty"`
	Sweeps int        `json:"sweeps,omitempty"`
}

// resolveDocs turns a request's documents into vocabulary-id batches
// against one artifact's vocabulary. The error string is a client error
// (400) when non-empty.
func resolveDocs(a *artifact, req *inferRequest) ([][]int, string) {
	if req.IDs != nil {
		return req.IDs, ""
	}
	if a.vocab == nil {
		return nil, "snapshot has no vocab section; send ids instead of docs"
	}
	batch := make([][]int, len(req.Docs))
	for i, doc := range req.Docs {
		ids := make([]int, 0, len(doc))
		for _, tok := range doc {
			if id, ok := a.vocab.ID(tok); ok {
				ids = append(ids, id)
			}
		}
		batch[i] = ids
	}
	return batch, ""
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.cur.Load().foldIn == nil {
		writeErr(w, http.StatusNotFound, "snapshot has no topics section (fold-in unavailable)")
		return
	}
	// Admission control: bound the number of /infer requests in the
	// system — running plus waiting for a slot — at MaxInFlight+MaxQueue.
	// Beyond that the server is past the load it can usefully queue for,
	// so shed immediately (503 + Retry-After) before even reading the
	// body: queue depth stays bounded, shed requests cost ~nothing, and
	// admitted requests keep their latency instead of everyone timing out
	// together.
	limit := int64(s.opt.MaxInFlight + s.opt.MaxQueue)
	if n := s.admitted.Add(1); n > limit {
		s.admitted.Add(-1)
		s.metrics.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable,
			"overloaded: %d /infer requests already in the system (max-inflight %d + max-queue %d)",
			limit, s.opt.MaxInFlight, s.opt.MaxQueue)
		return
	}
	defer s.admitted.Add(-1)
	var req inferRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if (req.Docs == nil) == (req.IDs == nil) {
		writeErr(w, http.StatusBadRequest, "exactly one of docs (token strings) or ids (vocabulary ids) required")
		return
	}
	sweeps := req.Sweeps
	if sweeps <= 0 {
		sweeps = s.opt.Sweeps
	}
	if sweeps > maxInferSweeps {
		sweeps = maxInferSweeps
	}

	// The artifact is pinned once, so a hot reload mid-request is
	// invisible.
	a := s.cur.Load()
	if a.foldIn == nil {
		writeErr(w, http.StatusNotFound, "snapshot has no topics section (fold-in unavailable)")
		return
	}
	docs, errmsg := resolveDocs(a, &req)
	if errmsg != "" {
		writeErr(w, http.StatusBadRequest, "%s", errmsg)
		return
	}

	// Bounded in-flight fold-in: at most MaxInFlight requests sample at
	// once; waiters drop out when their request is cancelled. A free slot
	// is taken without consulting the context, because select picks at
	// random among ready cases: a single blocking select would blame a
	// deadline that expired during body decode on a slot wait that never
	// happened. FoldIn checks the context before its first chunk and
	// reports that request as aborted instead.
	select {
	case s.inferSem <- struct{}{}:
	default:
		select {
		case s.inferSem <- struct{}{}:
		case <-r.Context().Done():
			writeErr(w, http.StatusServiceUnavailable, "request cancelled while waiting for an inference slot")
			return
		}
	}
	defer func() { <-s.inferSem }()

	s.inferRequests.Add(1)
	s.metrics.inferDocs.Observe(float64(len(docs)))
	theta, err := lda.FoldIn(a.foldIn, docs, lda.FoldInConfig{
		Seed: req.Seed, Sweeps: sweeps, P: s.opt.P, Ctx: r.Context(),
		Rec: s.metrics,
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "inference aborted: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"topics": a.foldIn.K(), "seed": req.Seed, "sweeps": sweeps,
		"generation": a.gen, "theta": theta,
	})
}
