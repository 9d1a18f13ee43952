// Black-box serving harness: everything in this file goes through the
// public fit/persist surface (package lesm) and the HTTP surface
// (serve.Handler over httptest) — no internal state. It is the PR-5
// acceptance harness: every route answers over a really-fitted snapshot,
// and concurrent /infer traffic across hot-reload swaps sees zero 5xx and
// bit-deterministic theta per artifact generation.
package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lesm"
	"lesm/internal/serve"
	"lesm/internal/store"
)

// fitArtifact fits a tiny two-cluster corpus end to end (hierarchy,
// phrases, Gibbs topics, advisor) and returns the persistable artifact.
// The Gibbs seed differentiates refits.
func fitArtifact(t testing.TB, gibbsSeed int64) *lesm.Artifact {
	t.Helper()
	corpus := lesm.NewCorpus()
	a := []string{"query", "processing", "index", "database", "storage", "engine"}
	b := []string{"neural", "network", "learning", "gradient", "descent", "training"}
	for i := 0; i < 30; i++ {
		corpus.AddTokens(append(append([]string{}, a...), a[:3]...))
		corpus.AddTokens(append(append([]string{}, b...), b[:3]...))
	}
	h, err := lesm.BuildTextHierarchy(corpus, lesm.HierarchyOptions{K: 2, Levels: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lesm.AttachPhrases(corpus, nil, h, lesm.PhraseOptions{MinSupport: 5, TopN: 8}); err != nil {
		t.Fatal(err)
	}
	topics, err := lesm.InferTopicsGibbs(corpus, 2, gibbsSeed)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := lesm.MineAdvisorTree([]lesm.RelPaper{
		{Year: 2001, Authors: []int{0, 1}},
		{Year: 2002, Authors: []int{0, 1, 2}},
		{Year: 2004, Authors: []int{1, 2}},
	}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &lesm.Artifact{
		Hierarchy:   h,
		Topics:      topics,
		Vocab:       corpus.Vocab,
		Corpus:      lesm.NewCorpusMeta(corpus),
		RolePhrases: lesm.RolePhrasesOf(h),
		Advisor:     adv,
	}
}

func mustGet(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func mustPost(t *testing.T, url string, body []byte) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServingEndToEnd is the full production-shaped loop: fit → Save →
// mmap-load → serve → exercise every route → hammer
// /infer from concurrent clients while hot-reload swaps land, asserting
// zero 5xx and per-generation deterministic outputs.
func TestServingEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.lesm")
	artA := fitArtifact(t, 11)
	if err := lesm.Save(path, artA); err != nil {
		t.Fatal(err)
	}

	snap, err := store.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(snap, serve.Options{
		SnapshotPath: path,
		MMap:         true,
		MaxInFlight:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	// --- every route answers over the fitted snapshot ---
	h := mustGet(t, ts.URL+"/healthz")
	if h["status"] != "ok" || h["generation"].(float64) != 1 {
		t.Fatalf("healthz = %v", h)
	}
	if len(h["sections"].([]any)) != 7 {
		t.Fatalf("sections = %v", h["sections"])
	}
	if got := mustGet(t, ts.URL+"/topics"); len(got["topics"].([]any)) != 2 {
		t.Fatalf("topics = %v", got)
	}
	words := mustGet(t, ts.URL+"/topics/0/top-words?n=4")["words"].([]any)
	if len(words) != 4 || words[0].(map[string]any)["word"] == "" {
		t.Fatalf("top-words = %v", words)
	}
	root := mustGet(t, ts.URL+"/hierarchy/node/o")
	if root["path"] != "o" {
		t.Fatalf("root node = %v", root)
	}
	if hits := mustGet(t, ts.URL+"/phrases/search?q=que")["hits"].([]any); len(hits) == 0 {
		t.Fatal("phrase search found nothing for 'que'")
	}
	if adv := mustGet(t, ts.URL+"/advisor/2"); adv["advisor"] == nil {
		t.Fatalf("advisor = %v", adv)
	}
	// Entity search over the fitted snapshot: a typo'd word resolves
	// fuzzily, and /entity composes the profile in one response.
	if hits := mustGet(t, ts.URL+"/search?q=databse")["hits"].([]any); len(hits) == 0 ||
		hits[0].(map[string]any)["name"] != "database" {
		t.Fatalf("fuzzy /search over fitted snapshot: %v", hits)
	}
	ent := mustGet(t, ts.URL+"/entity/query")
	if ent["resolved"].(map[string]any)["kind"] != "word" || ent["topic_mixture"] == nil {
		t.Fatalf("entity profile = %v", ent)
	}
	byDocs := mustPost(t, ts.URL+"/infer", []byte(`{"seed":3,"docs":[["query","processing","index"],["gradient","descent"]]}`))
	theta := byDocs["theta"].([]any)
	if len(theta) != 2 {
		t.Fatalf("theta = %v", theta)
	}

	// --- per-generation determinism probes ---
	probe := []byte(`{"seed":42,"ids":[[0,1,2,3],[7,8,9]],"sweeps":20}`)
	thetaOf := func() (string, uint64) {
		out := mustPost(t, ts.URL+"/infer", probe)
		b, _ := json.Marshal(out["theta"])
		return string(b), uint64(out["generation"].(float64))
	}
	tA, gen := thetaOf()
	if gen != 1 {
		t.Fatalf("probe generation = %d", gen)
	}
	artB := fitArtifact(t, 77) // a refit with a different Gibbs trajectory
	if err := lesm.Save(path, artB); err != nil {
		t.Fatal(err)
	}
	if out := mustPost(t, ts.URL+"/admin/reload", nil); out["reloaded"] != true {
		t.Fatalf("reload = %v", out)
	}
	tB, gen := thetaOf()
	if gen != 2 {
		t.Fatalf("post-reload probe generation = %d", gen)
	}

	// --- the reload race ---
	// A writer alternates refits (A at odd generations, B at even) through
	// atomic snapshot replaces + forced reloads while clients hammer
	// /infer and readers sweep the structure routes. The black-box
	// contract under the race: zero non-200 anywhere, and every /infer
	// response's theta is exactly the one its reported generation's
	// artifact produces.
	const (
		clients   = 4
		perClient = 30
		reloads   = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient+reloads+64)
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			// Generation 2 (pre-race) is fit B; the race keeps alternating
			// A, B, A, ... so odd generations always serve A and even ones B.
			art := artB
			if (i % 2) == 0 {
				art = artA
			}
			if err := lesm.Save(path, art); err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("reload %d: status %d", i, resp.StatusCode)
			}
			resp.Body.Close()
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) { // infer clients
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(probe))
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: /infer status %d during reload race", c, resp.StatusCode)
					resp.Body.Close()
					continue
				}
				var out map[string]any
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					errs <- err
					resp.Body.Close()
					continue
				}
				resp.Body.Close()
				b, _ := json.Marshal(out["theta"])
				gen := uint64(out["generation"].(float64))
				// Generations 1, 3, 5, ... serve fit A; 2, 4, 6, ... fit B
				// (the writer alternates B, A, B, ... from generation 3).
				want := tA
				if gen%2 == 0 {
					want = tB
				}
				if string(b) != want {
					errs <- fmt.Errorf("client %d: generation %d answered a different theta than its artifact", c, gen)
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() { // structure reader
		defer wg.Done()
		urls := []string{ts.URL + "/healthz", ts.URL + "/topics", ts.URL + "/topics/1/top-words?n=3",
			ts.URL + "/hierarchy/node/o", ts.URL + "/phrases/search?q=e", ts.URL + "/advisor/1",
			ts.URL + "/search?q=trainng", ts.URL + "/entity/network",
			ts.URL + "/metrics"}
		for i := 0; i < 60; i++ {
			resp, err := http.Get(urls[i%len(urls)])
			if err != nil {
				errs <- err
				continue
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d during reload race", urls[i%len(urls)], resp.StatusCode)
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The final generation count reflects every successful swap.
	h = mustGet(t, ts.URL+"/healthz")
	if got := uint64(h["generation"].(float64)); got != 2+reloads {
		t.Fatalf("final generation = %d, want %d", got, 2+reloads)
	}

	// --- observability over the public surface ---
	// /metrics serves Prometheus text format and survived the storm with
	// the generation gauge tracking the final swap.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`lesmd_http_requests_total{route="infer"}`,
		"lesmd_http_request_duration_seconds_bucket",
		fmt.Sprintf("lesmd_reload_generation %d", 2+reloads),
		fmt.Sprintf("lesmd_reloads_total %d", 1+reloads),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}

	// Conditional GET over the public surface: the current generation's
	// tag revalidates to a 304; any earlier one gets a full 200 with the
	// current tag.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/topics", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tag := resp.Header.Get("ETag")
	if want := fmt.Sprintf(`"gen-%d"`, 2+reloads); tag != want {
		t.Fatalf("post-race ETag = %q, want %q", tag, want)
	}
	req.Header.Set("If-None-Match", tag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("current-tag revalidation: status %d, want 304", resp.StatusCode)
	}
	req.Header.Set("If-None-Match", `"gen-1"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != tag {
		t.Fatalf("stale-tag revalidation: status %d etag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
}

// TestEntitySearchAcrossHotReload verifies over the public surface that
// the search index is rebuilt on every snapshot swap: a name only the
// replacement snapshot carries becomes resolvable exactly when the
// generation bumps, and the replaced name stops matching.
func TestEntitySearchAcrossHotReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.lesm")
	if err := lesm.Save(path, fitArtifact(t, 11)); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(snap, serve.Options{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	ent := mustGet(t, ts.URL+"/entity/training")
	if ent["resolved"].(map[string]any)["kind"] != "word" || ent["generation"].(float64) != 1 {
		t.Fatalf("generation 1 entity = %v", ent)
	}

	// Replace one vocabulary word on disk and hot-reload.
	snap2, err := store.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range snap2.Vocab {
		if w == "training" {
			snap2.Vocab[i] = "quantum"
		}
	}
	if err := store.Write(path, snap2); err != nil {
		t.Fatal(err)
	}
	if out := mustPost(t, ts.URL+"/admin/reload", nil); out["reloaded"] != true {
		t.Fatalf("reload = %v", out)
	}

	ent = mustGet(t, ts.URL+"/entity/quantum")
	if ent["resolved"].(map[string]any)["name"] != "quantum" || ent["generation"].(float64) != 2 {
		t.Fatalf("generation 2 entity = %v", ent)
	}
	// The replaced word's vocabulary entry left the index with its
	// generation ("training" can still match phrase displays, which kept
	// the token — but no word entry may remain).
	for _, h := range mustGet(t, ts.URL+"/search?q=training")["hits"].([]any) {
		if m := h.(map[string]any); m["kind"] == "word" {
			t.Fatalf("replaced vocabulary word still indexed: %v", m)
		}
	}
}
