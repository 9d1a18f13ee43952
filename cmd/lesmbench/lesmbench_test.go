package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyConfig runs every stage of a workload on a corpus small enough for
// the whole suite to finish in seconds.
func tinyConfig(t *testing.T) config {
	return config{
		smallPapers: 150, largePapers: 200, seconds: 300 * time.Millisecond,
		setupReps: 2, publishes: 2, inferPool: 24, lookupPool: 96,
		probes: 4, replays: 16, workDir: t.TempDir(),
	}
}

// TestWorkloadsSmoke runs each workload traced (which measures the
// end-to-end metrics too) with every output check on. The workloads run
// side by side to keep the suite short; nothing here checks a speed.
func TestWorkloadsSmoke(t *testing.T) {
	cfg := tinyConfig(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(cfg, w, 3, newTracer(true))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s not measured", d.Name)
					continue
				}
				if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v %s, want a finite value in %s", d.Name, m.Value, m.Unit, d.Unit)
				}
			}
			for _, d := range endToEnd {
				// serve_heap_mb is a difference of process-wide live heaps,
				// which the side-by-side subtests move for one another.
				if d.Name == "serve_heap_mb" {
					continue
				}
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
			if wall, other := res.Metrics["fit.wall_s"].Value, res.Metrics["fit.other_s"].Value; other < 0 || other > 0.1*wall {
				t.Errorf("fit rows leave %.3fs of %.3fs unaccounted", other, wall)
			}
		})
	}
}

// TestBenchmarkJSONMatchesSchema holds BENCHMARK.json and the metric
// tables of metrics.go together.
func TestBenchmarkJSONMatchesSchema(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.go %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestCompareIgnoresTracedEndToEnd feeds -compare files that mix timed and
// traced runs: the traced runs' end-to-end values must not enter the
// medians, while their per-layer values do.
func TestCompareIgnoresTracedEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...runResult) string {
		var b []byte
		for _, l := range lines {
			j, err := json.Marshal(resultLine{runResult: &l})
			if err != nil {
				t.Fatal(err)
			}
			b = append(append(b, j...), '\n')
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	timed := func(p50 float64) runResult {
		return runResult{Workload: "infer", Metrics: map[string]metric{"p50_ms": {p50, "ms"}}}
	}
	traced := func(p50, foldin float64) runResult {
		return runResult{Workload: "infer", Trace: true, Metrics: map[string]metric{
			"p50_ms": {p50, "ms"}, "lda.foldin_ms_p50": {foldin, "ms"}}}
	}
	a := write("a.jsonl", timed(1.0), timed(1.1), traced(50, 0.2))
	b := write("b.jsonl", timed(1.05), traced(100, 0.3), traced(100, 0.3))
	var out bytes.Buffer
	if err := runCompare(&out, a, b, "../../BENCHMARK.json"); err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	// Each row reads: workload, metric, A median, unit, (n), B median, unit, (n), ...
	want := map[string]string{
		"p50_ms":            "1.05 ms (2) 1.05 ms (1)",
		"lda.foldin_ms_p50": "0.2 ms (1) 0.3 ms (2)",
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 8 || want[f[1]] == "" {
			continue
		}
		if got := strings.Join(f[2:8], " "); got != want[f[1]] {
			t.Errorf("%s: medians %q, want %q", f[1], got, want[f[1]])
		}
		delete(want, f[1])
	}
	for name := range want {
		t.Errorf("no row for %s:\n%s", name, &out)
	}
}

// TestQuartilesMatchPython pins the -compare spread to Python's
// statistics.quantiles(xs, n=4), the spread the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(append([]float64(nil), c.xs...))
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
