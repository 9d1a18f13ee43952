package serve

import (
	"net/http"
	"testing"
)

// getStatus GETs a path and returns only the status code — the debug
// routes' bodies (pprof HTML, expvar JSON) are not worth parsing here.
func getStatus(t testing.TB, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestPprofGating locks the admin-scoped debug surface: with Options.Pprof
// the pprof index and expvar are served; without it (the default) the
// routes do not exist — 404, not 403, so the closed state is
// indistinguishable from a server that never had the feature.
func TestPprofGating(t *testing.T) {
	for _, tc := range []struct {
		name string
		on   bool
		want int
	}{
		{"enabled", true, http.StatusOK},
		{"disabled", false, http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := newTestServer(t, Options{Pprof: tc.on})
			for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/vars"} {
				if got := getStatus(t, ts.URL+path); got != tc.want {
					t.Errorf("GET %s with Pprof=%v: status %d, want %d", path, tc.on, got, tc.want)
				}
			}
			// The regular API is unaffected either way.
			if got := getStatus(t, ts.URL+"/healthz"); got != http.StatusOK {
				t.Errorf("GET /healthz: status %d", got)
			}
		})
	}
}

// TestMetricsSamplerFamilies: the fold-in sampler feeds the Recorder-backed
// counters, so after /infer traffic the scrape exposes non-zero sampler and
// pool telemetry, plus the Go runtime basics. Exact token accounting:
// the fold-in records len(toks) x (sweeps+1) tokens per request (the +1 is
// the deterministic init pass).
func TestMetricsSamplerFamilies(t *testing.T) {
	ts := newTestServer(t, Options{})
	postJSON(t, ts.URL+"/infer", map[string]any{"seed": 1, "ids": [][]int{{0, 1, 2}}, "sweeps": 3}, http.StatusOK)
	postJSON(t, ts.URL+"/infer", map[string]any{"seed": 2, "ids": [][]int{{5, 6}, {7}}, "sweeps": 4}, http.StatusOK)

	got := scrape(t, ts.URL)
	if v := got[`lesmd_sampler_records_total`]; v != 2 {
		t.Errorf("sampler_records_total = %g, want 2", v)
	}
	want := float64(3*(3+1) + 3*(4+1)) // 3 tokens x 4 passes + 3 tokens x 5 passes
	if v := got[`lesmd_sampler_tokens_total`]; v != want {
		t.Errorf("sampler_tokens_total = %g, want %g", v, want)
	}
	if v := got[`lesmd_pool_passes_total`]; v <= 0 {
		t.Errorf("pool_passes_total = %g, want > 0", v)
	}
	// Presence-only families: their values depend on the sampler core and
	// the runtime, but a scrape must always carry them.
	for _, key := range []string{
		`lesmd_sampler_changed_total`,
		`lesmd_sampler_proposals_total{proposal="word"}`,
		`lesmd_sampler_proposals_total{proposal="doc"}`,
		`lesmd_sampler_accepts_total{proposal="word"}`,
		`lesmd_sampler_accepts_total{proposal="doc"}`,
		`lesmd_pool_wait_seconds_total`,
		`lesmd_pool_exec_seconds_total`,
	} {
		if _, ok := got[key]; !ok {
			t.Errorf("scrape missing %s", key)
		}
	}
	// Go runtime basics.
	if v := got[`go_goroutines`]; v <= 0 {
		t.Errorf("go_goroutines = %g, want > 0", v)
	}
	if v := got[`go_heap_bytes`]; v <= 0 {
		t.Errorf("go_heap_bytes = %g, want > 0", v)
	}
	if _, ok := got[`go_gc_pause_seconds_total`]; !ok {
		t.Error("scrape missing go_gc_pause_seconds_total")
	}
}
