package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lesm/internal/store"
)

// --- promtool-style pure-Go lint of the text exposition format ---
//
// promLint parses a Prometheus text-format (0.0.4) payload, enforcing the
// rules `promtool check metrics` would (no external binary): HELP/TYPE
// precede samples, names and labels are well-formed, values parse, no
// duplicate series, histogram le-series are cumulative and agree with
// _count, every sample belongs to a declared family. It returns every
// sample keyed exactly as rendered (name{labels} or bare name).

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type promSample struct {
	name   string            // family member name (may carry _bucket/_sum/_count)
	labels map[string]string // parsed label set
	value  float64
}

// parsePromLine splits one sample line into (sample, render key).
func parsePromLine(line string) (promSample, string, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	var labelPart string
	if brace := strings.IndexByte(rest, '{'); brace >= 0 {
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return s, "", fmt.Errorf("unbalanced braces")
		}
		s.name = rest[:brace]
		labelPart = rest[brace+1 : end]
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return s, "", fmt.Errorf("no value")
		}
		s.name = rest[:sp]
		rest = strings.TrimSpace(rest[sp+1:])
	}
	if !metricNameRe.MatchString(s.name) {
		return s, "", fmt.Errorf("bad metric name %q", s.name)
	}
	if labelPart != "" {
		for _, pair := range strings.Split(labelPart, ",") {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return s, "", fmt.Errorf("label %q missing '='", pair)
			}
			k, v := pair[:eq], pair[eq+1:]
			if !labelNameRe.MatchString(k) {
				return s, "", fmt.Errorf("bad label name %q", k)
			}
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return s, "", fmt.Errorf("label value %q not quoted", v)
			}
			if _, dup := s.labels[k]; dup {
				return s, "", fmt.Errorf("duplicate label %q", k)
			}
			s.labels[k] = v[1 : len(v)-1]
		}
	}
	v, err := strconv.ParseFloat(strings.Replace(rest, "+Inf", "Inf", 1), 64)
	if err != nil {
		return s, "", fmt.Errorf("bad value %q: %v", rest, err)
	}
	s.value = v
	key := s.name
	if labelPart != "" {
		key += "{" + labelPart + "}"
	}
	return s, key, nil
}

// promLint validates text and returns samples keyed as rendered.
func promLint(t testing.TB, text string) map[string]float64 {
	t.Helper()
	types := map[string]string{} // family -> counter|gauge|histogram
	helped := map[string]bool{}
	samples := map[string]float64{}
	var parsed []promSample
	// A sample belongs to the family it names, or — for histograms — to
	// the family its _bucket/_sum/_count suffix strips down to.
	family := func(name string) (string, bool) {
		if _, ok := types[name]; ok {
			return name, true
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name {
				if typ, ok := types[base]; ok && typ == "histogram" {
					return base, true
				}
			}
		}
		return "", false
	}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 { // # HELP name text...
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if helped[f[2]] {
				t.Fatalf("line %d: duplicate HELP for %q", ln+1, f[2])
			}
			helped[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := f[2], f[3]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			if !helped[name] {
				t.Fatalf("line %d: TYPE for %q precedes its HELP", ln+1, name)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", ln+1, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		s, key, err := parsePromLine(line)
		if err != nil {
			t.Fatalf("line %d: %v (%q)", ln+1, err, line)
		}
		fam, ok := family(s.name)
		if !ok {
			t.Fatalf("line %d: sample %q has no declared family", ln+1, s.name)
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, key)
		}
		if types[fam] == "counter" && s.value < 0 {
			t.Fatalf("line %d: counter %q is negative", ln+1, key)
		}
		samples[key] = s.value
		parsed = append(parsed, s)
	}

	// Histogram consistency: group the _bucket series by (family, labels
	// minus le); the le-sequence must be cumulative (non-decreasing in
	// ascending bound order), end in +Inf, and the +Inf bucket must equal
	// the matching _count; a _sum must exist.
	type series struct {
		les  []float64
		vals map[float64]float64
	}
	hists := map[string]*series{}
	groupKey := func(s promSample) string {
		base := strings.TrimSuffix(s.name, "_bucket")
		keys := make([]string, 0, len(s.labels))
		for k := range s.labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for i, k := range keys {
			keys[i] = k + `="` + s.labels[k] + `"`
		}
		return base + "{" + strings.Join(keys, ",") + "}"
	}
	for _, s := range parsed {
		if !strings.HasSuffix(s.name, "_bucket") {
			continue
		}
		le, err := strconv.ParseFloat(strings.Replace(s.labels["le"], "+Inf", "Inf", 1), 64)
		if err != nil {
			t.Fatalf("series %s: bad le %q", s.name, s.labels["le"])
		}
		g := hists[groupKey(s)]
		if g == nil {
			g = &series{vals: map[float64]float64{}}
			hists[groupKey(s)] = g
		}
		g.les = append(g.les, le)
		g.vals[le] = s.value
	}
	for key, g := range hists {
		sort.Float64s(g.les)
		if len(g.les) == 0 || !math.IsInf(g.les[len(g.les)-1], +1) {
			t.Fatalf("histogram %s: no +Inf bucket", key)
		}
		prev := -1.0
		for _, le := range g.les {
			if g.vals[le] < prev {
				t.Fatalf("histogram %s: bucket le=%g (%g) below predecessor (%g) — not cumulative", key, le, g.vals[le], prev)
			}
			prev = g.vals[le]
		}
		// Rebuild the rendered keys of the matching _count/_sum series
		// from the group key.
		base := key[:strings.IndexByte(key, '{')]
		labels := strings.Trim(key[strings.IndexByte(key, '{'):], "{}")
		countKey, sumKey := base+"_count", base+"_sum"
		if labels != "" {
			countKey += "{" + labels + "}"
			sumKey += "{" + labels + "}"
		}
		count, ok := samples[countKey]
		if !ok {
			t.Fatalf("histogram %s: missing %s", key, countKey)
		}
		if inf := g.vals[math.Inf(+1)]; inf != count {
			t.Fatalf("histogram %s: +Inf bucket %g != count %g", key, inf, count)
		}
		if _, ok := samples[sumKey]; !ok {
			t.Fatalf("histogram %s: missing %s", key, sumKey)
		}
	}
	return samples
}

// scrape GETs /metrics, checks the content type, lints the payload and
// returns the parsed samples.
func scrape(t testing.TB, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return promLint(t, string(body))
}

// TestMetricsScrapeMatchesRequests is the scrape-correctness lock-in: the
// counters on /metrics must exactly equal the traffic this test generated,
// route by route and error by error, and the whole payload must survive
// the promtool-style lint.
func TestMetricsScrapeMatchesRequests(t *testing.T) {
	ts := newTestServer(t, Options{})

	// Exact traffic, covering success and error paths on several routes.
	for i := 0; i < 3; i++ {
		getJSON(t, ts.URL+"/topics", http.StatusOK)
	}
	getJSON(t, ts.URL+"/topics/0/top-words?n=3", http.StatusOK)
	getJSON(t, ts.URL+"/topics/0/top-words?n=5", http.StatusOK)
	getJSON(t, ts.URL+"/topics/9/top-words", http.StatusNotFound)
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
	getJSON(t, ts.URL+"/hierarchy/node/o", http.StatusOK)
	getJSON(t, ts.URL+"/hierarchy/node/o/9", http.StatusNotFound)
	getJSON(t, ts.URL+"/phrases/search?q=query", http.StatusOK)
	getJSON(t, ts.URL+"/advisor/1", http.StatusOK)
	postJSON(t, ts.URL+"/infer", map[string]any{"seed": 1, "ids": [][]int{{0, 1, 2}}, "sweeps": 3}, http.StatusOK)
	postJSON(t, ts.URL+"/infer", map[string]any{"seed": 2, "ids": [][]int{{5, 6}, {7}}, "sweeps": 3}, http.StatusOK)
	postJSON(t, ts.URL+"/infer", map[string]any{"seed": 3}, http.StatusBadRequest)

	got := scrape(t, ts.URL)
	want := map[string]float64{
		`lesmd_http_requests_total{route="topics"}`:         3,
		`lesmd_http_requests_total{route="top_words"}`:      3,
		`lesmd_http_requests_total{route="healthz"}`:        1,
		`lesmd_http_requests_total{route="hierarchy_node"}`: 2,
		`lesmd_http_requests_total{route="phrases_search"}`: 1,
		`lesmd_http_requests_total{route="advisor"}`:        1,
		`lesmd_http_requests_total{route="infer"}`:          3,
		`lesmd_http_requests_total{route="admin_reload"}`:   0,
		// A scrape records itself only after rendering: the first scrape
		// reports zero metrics-route requests.
		`lesmd_http_requests_total{route="metrics"}`:                 0,
		`lesmd_http_errors_total{route="top_words",code="404"}`:      1,
		`lesmd_http_errors_total{route="hierarchy_node",code="404"}`: 1,
		`lesmd_http_errors_total{route="infer",code="400"}`:          1,
		`lesmd_infer_requests_total`:                                 2,
		`lesmd_infer_shed_total`:                                     0,
		`lesmd_infer_admitted`:                                       0,
		`lesmd_infer_in_flight`:                                      0,
		`lesmd_infer_queue_depth`:                                    0,
		`lesmd_reload_generation`:                                    1,
		`lesmd_reloads_total`:                                        0,
		`lesmd_reload_failures_total`:                                0,
		`lesmd_http_request_duration_seconds_count{route="infer"}`:   3,
		`lesmd_http_request_duration_seconds_count{route="topics"}`:  3,
		`lesmd_infer_batch_docs_count`:                               2,
		`lesmd_infer_batch_docs_sum`:                                 3, // a 1-doc and a 2-doc request
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if got[`lesmd_goroutines`] <= 0 {
		t.Errorf("lesmd_goroutines = %g", got[`lesmd_goroutines`])
	}

	// The second scrape sees exactly the first one, and nothing drifts.
	got = scrape(t, ts.URL)
	if v := got[`lesmd_http_requests_total{route="metrics"}`]; v != 1 {
		t.Errorf("second scrape: metrics route count = %g, want 1", v)
	}
	if v := got[`lesmd_http_requests_total{route="infer"}`]; v != 3 {
		t.Errorf("second scrape: infer count drifted to %g", v)
	}
}

// TestMetricsInferBatchDocsHistogram pins the documents-per-request
// histogram: each /infer request that reaches fold-in is one observation
// of its document count, in cumulative buckets, and a rejected request is
// not observed at all.
func TestMetricsInferBatchDocsHistogram(t *testing.T) {
	ts := newTestServer(t, Options{})
	for _, n := range []int{1, 3, 6} {
		ids := make([][]int, n)
		for i := range ids {
			ids[i] = []int{i % 10, (i + 1) % 10}
		}
		if status, out := postInfer(t, ts.URL, inferBody(t, int64(n), ids, 3)); status != http.StatusOK {
			t.Fatalf("%d-doc request: status %d (%v)", n, status, out)
		}
	}
	postJSON(t, ts.URL+"/infer", map[string]any{"seed": 1}, http.StatusBadRequest)

	got := scrape(t, ts.URL)
	want := map[string]float64{
		`lesmd_infer_batch_docs_count`:          3,
		`lesmd_infer_batch_docs_sum`:            10,
		`lesmd_infer_batch_docs_bucket{le="1"}`: 1,
		`lesmd_infer_batch_docs_bucket{le="2"}`: 1,
		`lesmd_infer_batch_docs_bucket{le="4"}`: 2,
		`lesmd_infer_batch_docs_bucket{le="8"}`: 3,
		`lesmd_infer_requests_total`:            3,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
}

// TestMetricsReloadGeneration: the generation gauge and the reload
// counters track hot reloads, including failed ones.
func TestMetricsReloadGeneration(t *testing.T) {
	path := t.TempDir() + "/model.lesm"
	if err := store.Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	ts, s := newTestServerPair(t, Options{SnapshotPath: path})
	if err := s.Reload(altSnapshot(t), nil); err != nil {
		t.Fatal(err)
	}
	if err := writeCorrupt(path); err != nil {
		t.Fatal(err)
	}
	if rec := s.serveOnce(t, http.MethodPost, "/admin/reload", nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("corrupt reload: %d", rec.Code)
	}
	got := scrape(t, ts.URL)
	if got[`lesmd_reload_generation`] != 2 {
		t.Fatalf("reload_generation = %g, want 2", got[`lesmd_reload_generation`])
	}
	if got[`lesmd_reloads_total`] != 1 {
		t.Fatalf("reloads_total = %g, want 1", got[`lesmd_reloads_total`])
	}
	if got[`lesmd_reload_failures_total`] != 1 {
		t.Fatalf("reload_failures_total = %g, want 1", got[`lesmd_reload_failures_total`])
	}
}

// TestPromLintCatchesBadPayloads turns the linter on itself: hand-built
// payloads violating the format rules must fail, so a green lint of the
// live scrape means something.
func TestPromLintCatchesBadPayloads(t *testing.T) {
	good := "# HELP m ok then\n# TYPE m counter\nm 1\n"
	if v := promLint(t, good)["m"]; v != 1 {
		t.Fatalf("good payload: m = %g", v)
	}
	bad := []struct{ name, text string }{
		{"sample without family", "m 1\n"},
		{"type before help", "# TYPE m counter\n# HELP m ok then\nm 1\n"},
		{"duplicate series", "# HELP m ok then\n# TYPE m counter\nm 1\nm 2\n"},
		{"negative counter", "# HELP m ok then\n# TYPE m counter\nm -1\n"},
		{"unquoted label", "# HELP m ok then\n# TYPE m counter\nm{a=b} 1\n"},
		{"bad value", "# HELP m ok then\n# TYPE m counter\nm x\n"},
		{"unknown type", "# HELP m ok then\n# TYPE m summary\nm 1\n"},
		{"histogram without +Inf",
			"# HELP h ok then\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n"},
		{"non-cumulative histogram",
			"# HELP h ok then\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 2` + "\n" + `h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n"},
		{"histogram count mismatch",
			"# HELP h ok then\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 1` + "\n" + `h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 3\n"},
		{"histogram missing sum",
			"# HELP h ok then\n# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 1` + "\nh_count 1\n"},
	}
	for _, tc := range bad {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// promLint fails via t.Fatalf (which kills its goroutine): run
			// it against a throwaway T on a sub-goroutine so the failure is
			// observable without killing this test.
			failed := make(chan bool, 1)
			go func() {
				probe := &testing.T{}
				defer func() { failed <- probe.Failed() }()
				promLint(probe, tc.text)
			}()
			if !<-failed {
				t.Fatalf("lint accepted invalid payload:\n%s", tc.text)
			}
		})
	}
}
