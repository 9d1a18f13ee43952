package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lesm/internal/core"
	"lesm/internal/lda"
	"lesm/internal/store"
	"lesm/internal/tpfg"
)

// testSnapshot fits a real two-topic Gibbs model over a 10-word vocabulary
// and packages it with a hierarchy, role phrases and an advisor result.
func testSnapshot(t testing.TB) *store.Snapshot {
	t.Helper()
	vocab := []string{"query", "processing", "index", "database", "storage",
		"neural", "network", "learning", "gradient", "descent"}
	var docs [][]int
	for i := 0; i < 30; i++ {
		docs = append(docs, []int{0, 1, 2, 3, 4, 0, 1, 3}, []int{5, 6, 7, 8, 9, 5, 7, 8})
	}
	m, err := lda.Run(docs, len(vocab), lda.Config{K: 2, Seed: 3, Iters: 50})
	if err != nil {
		t.Fatal(err)
	}

	h := core.NewHierarchy()
	h.Root.Phi = map[core.TypeID][]float64{core.TermType: m.Phi[0]}
	a := h.Root.AddChild()
	b := h.Root.AddChild()
	a.Rho, b.Rho = 0.5, 0.5
	a.Phi = map[core.TypeID][]float64{core.TermType: m.Phi[0]}
	b.Phi = map[core.TypeID][]float64{core.TermType: m.Phi[1]}
	a.Phrases = []core.RankedPhrase{{Words: []int{0, 1}, Display: "query processing", Score: 3}}
	b.Phrases = []core.RankedPhrase{{Words: []int{6, 7}, Display: "network learning", Score: 2}}

	totalTokens := 0
	counts := make([]int, len(vocab))
	for _, d := range docs {
		totalTokens += len(d)
		for _, w := range d {
			counts[w]++
		}
	}
	return &store.Snapshot{
		Vocab:  vocab,
		Corpus: &store.CorpusMeta{NumDocs: len(docs), TotalTokens: totalTokens, WordCounts: counts},
		// Alpha is the *fitting* prior (50/K = 25); the server must not use
		// it for fold-in by default or short-doc theta goes near-uniform.
		Topics: &store.Topics{
			K: m.K, V: m.V, Weight: m.Rho, Phi: m.Phi,
			Alpha: m.Alpha, Beta: m.Beta, NKV: m.NKV, NK: m.NK,
		},
		Hierarchy: h,
		RolePhrases: []store.TopicPhrases{
			{Path: "o/1", Phrases: []core.RankedPhrase{{Words: []int{0, 1}, Display: "query processing", Score: 3}}},
			{Path: "o/2", Phrases: []core.RankedPhrase{{Words: []int{6, 7}, Display: "network learning", Score: 2}}},
		},
		Advisor: &store.Advisor{
			Net: &tpfg.Network{
				NumAuthors: 3,
				First:      []int{1995, 2003, 2004},
				Cands: [][]tpfg.Candidate{
					nil,
					{{Advisor: 0, Start: 2003, End: 2007, Local: 0.8}},
					{{Advisor: 0, Start: 2004, End: 2008, Local: 0.5}, {Advisor: 1, Start: 2005, End: 2008, Local: 0.4}},
				},
			},
			Rank: [][]float64{{1}, {0.2, 0.8}, {0.1, 0.6, 0.3}},
		},
	}
}

func newTestServer(t testing.TB, opt Options) *httptest.Server {
	t.Helper()
	ts, _ := newTestServerPair(t, opt)
	return ts
}

// newTestServerPair also returns the Server for tests that drive reloads
// or read internals. The HTTP listener is closed before the Server so no
// handler runs concurrently with Close.
func newTestServerPair(t testing.TB, opt Options) (*httptest.Server, *Server) {
	t.Helper()
	s, err := New(testSnapshot(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

func getJSON(t testing.TB, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return out
}

func postJSON(t testing.TB, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: bad JSON: %v", url, err)
	}
	return out
}

// inferBody builds a canonical /infer request body.
func inferBody(t testing.TB, seed int64, ids [][]int, sweeps int) []byte {
	t.Helper()
	m := map[string]any{"seed": seed, "ids": ids}
	if sweeps > 0 {
		m["sweeps"] = sweeps
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postInfer posts an /infer body and returns (status, decoded response).
func postInfer(t testing.TB, url string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	return resp.StatusCode, out
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Options{})
	got := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if got["status"] != "ok" {
		t.Fatalf("healthz = %v", got)
	}
	if int(got["topics"].(float64)) != 2 || int(got["vocab"].(float64)) != 10 {
		t.Fatalf("healthz counts = %v", got)
	}
	secs := got["sections"].([]any)
	if len(secs) != 6 {
		t.Fatalf("sections = %v", secs)
	}
}

func TestTopWords(t *testing.T) {
	ts := newTestServer(t, Options{})
	got := getJSON(t, ts.URL+"/topics/0/top-words?n=3", http.StatusOK)
	words := got["words"].([]any)
	if len(words) != 3 {
		t.Fatalf("words = %v", words)
	}
	first := words[0].(map[string]any)
	if first["word"] == "" || first["p"].(float64) <= 0 {
		t.Fatalf("first word = %v", first)
	}
	// n larger than the vocabulary clamps instead of failing.
	got = getJSON(t, ts.URL+"/topics/1/top-words?n=1000", http.StatusOK)
	if len(got["words"].([]any)) != 10 {
		t.Fatalf("clamped words = %d", len(got["words"].([]any)))
	}
	// The two fitted topics should surface different head words.
	w0 := getJSON(t, ts.URL+"/topics/0/top-words?n=1", http.StatusOK)["words"].([]any)[0].(map[string]any)["word"]
	w1 := getJSON(t, ts.URL+"/topics/1/top-words?n=1", http.StatusOK)["words"].([]any)[0].(map[string]any)["word"]
	if w0 == w1 {
		t.Fatalf("both topics head with %q", w0)
	}
	getJSON(t, ts.URL+"/topics/7/top-words", http.StatusNotFound)
	getJSON(t, ts.URL+"/topics/0/bogus", http.StatusNotFound)
	getJSON(t, ts.URL+"/topics/0/top-words?n=zap", http.StatusBadRequest)
}

func TestNewRejectsShapeInconsistentSnapshot(t *testing.T) {
	// CRC-valid but semantically broken: a rank vector shorter than the
	// candidate list + the no-advisor node. Must be a New error, not a
	// query-time panic.
	snap := testSnapshot(t)
	snap.Advisor.Rank[2] = []float64{0.5}
	if _, err := New(snap, Options{}); err == nil || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("inconsistent advisor accepted: err = %v", err)
	}
	snap = testSnapshot(t)
	snap.Topics.NK = snap.Topics.NK[:1]
	if _, err := New(snap, Options{}); err == nil {
		t.Fatal("inconsistent topic counts accepted")
	}
}

func TestHierarchyNode(t *testing.T) {
	ts := newTestServer(t, Options{})
	got := getJSON(t, ts.URL+"/hierarchy/node/o/1", http.StatusOK)
	if got["path"] != "o/1" || got["parent"] != "o" {
		t.Fatalf("node = %v", got)
	}
	phrases := got["phrases"].([]any)
	if len(phrases) != 1 || phrases[0].(map[string]any)["display"] != "query processing" {
		t.Fatalf("phrases = %v", phrases)
	}
	// Dotted ids resolve to the same node; the root lists its children.
	if dotted := getJSON(t, ts.URL+"/hierarchy/node/o.1", http.StatusOK); dotted["path"] != "o/1" {
		t.Fatalf("dotted id = %v", dotted)
	}
	root := getJSON(t, ts.URL+"/hierarchy/node/o", http.StatusOK)
	if ch := root["children"].([]any); len(ch) != 2 || ch[0] != "o/1" {
		t.Fatalf("root children = %v", ch)
	}
	getJSON(t, ts.URL+"/hierarchy/node/o/9", http.StatusNotFound)
}

func TestPhraseSearch(t *testing.T) {
	ts := newTestServer(t, Options{})
	got := getJSON(t, ts.URL+"/phrases/search?q=PROCESSING", http.StatusOK)
	hits := got["hits"].([]any)
	if len(hits) != 1 {
		t.Fatalf("hits = %v", hits)
	}
	hit := hits[0].(map[string]any)
	if hit["display"] != "query processing" || hit["path"] != "o/1" {
		t.Fatalf("hit = %v", hit)
	}
	if empty := getJSON(t, ts.URL+"/phrases/search?q=zzz", http.StatusOK); len(empty["hits"].([]any)) != 0 {
		t.Fatalf("expected no hits: %v", empty)
	}
	getJSON(t, ts.URL+"/phrases/search", http.StatusBadRequest)
}

// TestPhraseSearchLimitValidation pins the limit contract: non-positive
// limits are client errors like any other bad query param (they used to be
// silently coerced to the default 20), boundary values behave, and an
// absent limit still means the default cap.
func TestPhraseSearchLimitValidation(t *testing.T) {
	ts := newTestServer(t, Options{})
	for _, bad := range []string{"-1", "0", "-999"} {
		got := getJSON(t, ts.URL+"/phrases/search?q=n&limit="+bad, http.StatusBadRequest)
		if msg, _ := got["error"].(string); !strings.Contains(msg, "must be positive") {
			t.Fatalf("limit=%s error = %v", bad, got)
		}
	}
	// limit=1 truncates to exactly one hit; a huge limit returns all.
	if one := getJSON(t, ts.URL+"/phrases/search?q=n&limit=1", http.StatusOK); len(one["hits"].([]any)) != 1 {
		t.Fatalf("limit=1 hits = %v", one["hits"])
	}
	if all := getJSON(t, ts.URL+"/phrases/search?q=n&limit=1000", http.StatusOK); len(all["hits"].([]any)) != 2 {
		t.Fatalf("limit=1000 hits = %v", all["hits"])
	}
	if def := getJSON(t, ts.URL+"/phrases/search?q=n", http.StatusOK); len(def["hits"].([]any)) != 2 {
		t.Fatalf("default-limit hits = %v", def["hits"])
	}
	getJSON(t, ts.URL+"/phrases/search?q=n&limit=zap", http.StatusBadRequest)
}

// TestPhraseSearchEmptyHitsShape pins the JSON shape of a no-hit response:
// "hits" must be the empty array, never null — clients range over it.
func TestPhraseSearchEmptyHitsShape(t *testing.T) {
	ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/phrases/search?q=zzz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"hits":[]`) {
		t.Fatalf("empty result did not serialize hits as []: %s", buf.String())
	}
}

// TestPhraseSearchCaseFolding is the regression test for the fold
// mismatch: the phrase index folded displays with strings.ToLower while
// tokenization folded with unicode case mapping — both keep the Greek
// final sigma apart from the medial form, so an uppercase query could
// miss a phrase it plainly names. Both sides now fold through
// textkit.Fold; an uppercase query must match a display holding 'ς'.
func TestPhraseSearchCaseFolding(t *testing.T) {
	snap := testSnapshot(t)
	snap.RolePhrases = append(snap.RolePhrases, store.TopicPhrases{
		Path:    "o/2",
		Phrases: []core.RankedPhrase{{Display: "Σίσυφος learning", Score: 1}},
	})
	s, err := New(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	// "ΣΊΣΥΦΟΣ" lowercases to a trailing medial sigma while the display's
	// final sigma stays 'ς' — strings.ToLower on both sides never matches.
	got := getJSON(t, ts.URL+"/phrases/search?q="+url.QueryEscape("ΣΊΣΥΦΟΣ"), http.StatusOK)
	hits := got["hits"].([]any)
	if len(hits) != 1 || hits[0].(map[string]any)["display"] != "Σίσυφος learning" {
		t.Fatalf("folded query missed the phrase: %v", got)
	}
}

func TestAdvisor(t *testing.T) {
	ts := newTestServer(t, Options{})
	got := getJSON(t, ts.URL+"/advisor/2", http.StatusOK)
	if int(got["advisor"].(float64)) != 0 {
		t.Fatalf("advisor = %v", got)
	}
	if got["score"].(float64) != 0.6 {
		t.Fatalf("score = %v", got)
	}
	if cands := got["candidates"].([]any); len(cands) != 2 {
		t.Fatalf("candidates = %v", cands)
	}
	// Author 0 has no candidates: the virtual no-advisor node wins.
	got = getJSON(t, ts.URL+"/advisor/0", http.StatusOK)
	if int(got["advisor"].(float64)) != -1 {
		t.Fatalf("rootless author advisor = %v", got)
	}
	getJSON(t, ts.URL+"/advisor/99", http.StatusNotFound)
	getJSON(t, ts.URL+"/advisor/xyz", http.StatusNotFound)
}

// TestAdvisorNonNumericMessage pins the error for paths that never name an
// author index ("/advisor/3/x", "/advisor/smith"): still 404, but saying
// the id is not numeric instead of the misleading out-of-range bound.
func TestAdvisorNonNumericMessage(t *testing.T) {
	ts := newTestServer(t, Options{})
	for _, p := range []string{"/advisor/3/x", "/advisor/smith"} {
		got := getJSON(t, ts.URL+p, http.StatusNotFound)
		msg, _ := got["error"].(string)
		if !strings.Contains(msg, "not a numeric author id") {
			t.Fatalf("GET %s error = %q, want non-numeric message", p, msg)
		}
		if strings.Contains(msg, "out of range") {
			t.Fatalf("GET %s still reports out-of-range: %q", p, msg)
		}
	}
	// Genuinely numeric but out of range keeps the range message.
	got := getJSON(t, ts.URL+"/advisor/99", http.StatusNotFound)
	if msg, _ := got["error"].(string); !strings.Contains(msg, "out of range") {
		t.Fatalf("numeric out-of-range error = %q", msg)
	}
}

// TestAdvisorScoreWithDuplicateCandidates is the regression test for the
// score fallback: the handler used to rediscover the predicted advisor's
// rank by scanning the candidate list for a matching advisor id, so a
// duplicated candidate made the *last* duplicate's rank win — here 0.3
// instead of the argmax mass 0.6. The score must be the argmax entry of
// the rank vector itself.
func TestAdvisorScoreWithDuplicateCandidates(t *testing.T) {
	snap := testSnapshot(t)
	snap.Advisor = &store.Advisor{
		Net: &tpfg.Network{
			NumAuthors: 3,
			First:      []int{1995, 2003, 2004},
			Cands: [][]tpfg.Candidate{
				nil,
				{{Advisor: 0, Start: 2003, End: 2007}},
				// Author 0 appears twice (distinct candidate intervals).
				{{Advisor: 0, Start: 2004, End: 2006}, {Advisor: 0, Start: 2006, End: 2008}},
			},
		},
		Rank: [][]float64{{1}, {0.2, 0.8}, {0.1, 0.6, 0.3}},
	}
	s, err := New(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	got := getJSON(t, ts.URL+"/advisor/2", http.StatusOK)
	if int(got["advisor"].(float64)) != 0 {
		t.Fatalf("advisor = %v", got)
	}
	if score := got["score"].(float64); score != 0.6 {
		t.Fatalf("score = %v, want the argmax mass 0.6 (duplicate-candidate scan reported the last match)", score)
	}
}

func TestInferTokensAndIDs(t *testing.T) {
	ts := newTestServer(t, Options{})
	byTokens := postJSON(t, ts.URL+"/infer", map[string]any{
		"seed": 7,
		"docs": [][]string{{"query", "processing", "database", "index"}, {"neural", "learning", "gradient"}},
	}, http.StatusOK)
	byIDs := postJSON(t, ts.URL+"/infer", map[string]any{
		"seed": 7,
		"ids":  [][]int{{0, 1, 3, 2}, {5, 7, 8}},
	}, http.StatusOK)
	if !reflect.DeepEqual(byTokens["theta"], byIDs["theta"]) {
		t.Fatalf("token and id requests disagree:\n%v\n%v", byTokens["theta"], byIDs["theta"])
	}
	theta := byTokens["theta"].([]any)
	d0 := theta[0].([]any)
	d1 := theta[1].([]any)
	// The two docs are from opposite topics: argmax must differ.
	if (d0[0].(float64) > d0[1].(float64)) == (d1[0].(float64) > d1[1].(float64)) {
		t.Fatalf("both docs landed on the same topic: %v %v", d0, d1)
	}
	// The default serving prior must keep short-document theta
	// evidence-driven: a clearly topical 4-token doc should be decisive,
	// not the near-uniform the fitted 50/K prior would force.
	peak := d0[0].(float64)
	if other := d0[1].(float64); other > peak {
		peak = other
	}
	if peak < 0.7 {
		t.Fatalf("default fold-in prior swamped the evidence: %v", d0)
	}
	// Unknown words are dropped, not an error.
	postJSON(t, ts.URL+"/infer", map[string]any{
		"seed": 1, "docs": [][]string{{"zzzz", "query"}},
	}, http.StatusOK)
}

func TestOptionsClampNegatives(t *testing.T) {
	// A negative MaxInFlight must not panic make(chan); negative sweeps
	// must not silently disable refinement.
	s, err := New(testSnapshot(t), Options{MaxInFlight: -1, Sweeps: -5, MaxQueue: -3, RouteTimeout: -time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if cap(s.inferSem) != 4 || s.opt.Sweeps != 30 {
		t.Fatalf("negative options not clamped: inflight=%d sweeps=%d", cap(s.inferSem), s.opt.Sweeps)
	}
	if s.opt.MaxQueue != 64 || s.opt.RouteTimeout != 0 {
		t.Fatalf("negative traffic options not clamped: queue=%d timeout=%s", s.opt.MaxQueue, s.opt.RouteTimeout)
	}
	s2, err := New(testSnapshot(t), Options{Sweeps: 99999})
	if err != nil || s2.opt.Sweeps != maxInferSweeps {
		t.Fatalf("oversized default sweeps not capped, err=%v", err)
	}
	s2.Close()
}

func TestInferBadRequests(t *testing.T) {
	ts := newTestServer(t, Options{})
	postJSON(t, ts.URL+"/infer", map[string]any{"seed": 1}, http.StatusBadRequest)
	postJSON(t, ts.URL+"/infer", map[string]any{
		"seed": 1, "docs": [][]string{{"a"}}, "ids": [][]int{{0}},
	}, http.StatusBadRequest)
	resp, err := http.Get(ts.URL + "/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /infer status = %d", resp.StatusCode)
	}
}

// TestInferDeterministicAcrossServerParallelism is the serving half of the
// determinism contract: a P=1 server and a P=NumCPU+2 server must return
// byte-identical theta for the same (seed, docs) request.
func TestInferDeterministicAcrossServerParallelism(t *testing.T) {
	req := map[string]any{
		"seed": 42,
		"ids":  [][]int{{0, 1, 2}, {5, 6, 7, 8}, {0, 9}, {}, {3, 3, 3, 3}},
	}
	var bodies []string
	for _, p := range []int{1, runtime.GOMAXPROCS(0) + 2} {
		ts := newTestServer(t, Options{P: p})
		got := postJSON(t, ts.URL+"/infer", req, http.StatusOK)
		b, _ := json.Marshal(got["theta"])
		bodies = append(bodies, string(b))
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("theta differs across server parallelism:\n%s\n%s", bodies[0], bodies[1])
	}
}

// TestConcurrentMixedQueries hammers every endpoint from many goroutines;
// run under -race this is the handlers' lock-free-reads proof.
func TestConcurrentMixedQueries(t *testing.T) {
	ts := newTestServer(t, Options{MaxInFlight: 2})
	urls := []string{
		ts.URL + "/healthz",
		ts.URL + "/topics",
		ts.URL + "/topics/0/top-words?n=5",
		ts.URL + "/hierarchy/node/o/1",
		ts.URL + "/phrases/search?q=query",
		ts.URL + "/search?q=databse",
		ts.URL + "/entity/query",
		ts.URL + "/advisor/1",
	}
	inferBody, _ := json.Marshal(map[string]any{"seed": 3, "ids": [][]int{{0, 1, 2, 3}}, "sweeps": 5})
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if i%4 == 0 {
					resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(inferBody))
					if err != nil {
						errs <- err
						continue
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("infer status %d", resp.StatusCode)
					}
					resp.Body.Close()
					continue
				}
				u := urls[(g+i)%len(urls)]
				resp, err := http.Get(u)
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", u, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInferCancelledWhileQueued verifies the bounded in-flight gate
// releases waiters whose request context dies.
func TestInferCancelledWhileQueued(t *testing.T) {
	s, err := New(testSnapshot(t), Options{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only slot directly.
	s.inferSem <- struct{}{}
	defer func() { <-s.inferSem }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(map[string]any{"seed": 1, "ids": [][]int{{0}}})
	req := httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued+cancelled infer status = %d, body %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "inference slot") {
		t.Fatalf("unexpected body: %s", rec.Body.String())
	}
}

func TestMissingSections(t *testing.T) {
	s, err := New(&store.Snapshot{Vocab: []string{"a"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	getJSON(t, ts.URL+"/topics", http.StatusNotFound)
	getJSON(t, ts.URL+"/topics/0/top-words", http.StatusNotFound)
	getJSON(t, ts.URL+"/hierarchy/node/o", http.StatusNotFound)
	getJSON(t, ts.URL+"/phrases/search?q=a", http.StatusNotFound)
	getJSON(t, ts.URL+"/advisor/0", http.StatusNotFound)
	postJSON(t, ts.URL+"/infer", map[string]any{"seed": 1, "ids": [][]int{{0}}}, http.StatusNotFound)

	if _, err := New(&store.Snapshot{}, Options{}); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

// TestInferMatchesFoldIn: /infer theta is bit for bit in-process
// lda.FoldIn on the model the snapshot yields at the serving prior, both
// for a small model (K=2, V=10) and for a larger one (K=32, V=96).
func TestInferMatchesFoldIn(t *testing.T) {
	cases := []struct {
		name string
		snap *store.Snapshot
		ids  [][]int
	}{
		{"K=2", testSnapshot(t), [][]int{{3, 8, 3, 8, 3, 8, 0, 5}, {8, 3, 8, 3}}},
		{"K=32", wideSnapshot(t), [][]int{{3, 8, 3, 40, 41, 95, 8}, {17}, {60, 61, 62, 63, 64, 65, 66, 67, 68}}},
	}
	const seed, sweeps = 4, 3
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fm := c.snap.FoldInModel(lda.DefaultFoldInAlpha)
			want, err := lda.FoldIn(fm, c.ids, lda.FoldInConfig{Seed: seed, Sweeps: sweeps})
			if err != nil {
				t.Fatal(err)
			}

			s, err := New(c.snap, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				s.Close()
			}()
			out := postJSON(t, ts.URL+"/infer", map[string]any{"seed": seed, "sweeps": sweeps, "ids": c.ids}, http.StatusOK)
			rows := out["theta"].([]any)
			got := make([][]float64, len(rows))
			for d, r := range rows {
				for _, v := range r.([]any) {
					got[d] = append(got[d], v.(float64))
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("/infer theta %v, lda.FoldIn gives %v", got, want)
			}
		})
	}
}
