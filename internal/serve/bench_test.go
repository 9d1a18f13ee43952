package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// benchInfer measures /infer requests per second end to end (HTTP decode,
// semaphore, fold-in, JSON encode) at a given fold-in parallelism.
func benchInfer(b *testing.B, p int) {
	s, err := New(testSnapshot(b), Options{P: p, MaxInFlight: 8})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// A 32-document batch of 8-token docs per request.
	ids := make([][]int, 32)
	for i := range ids {
		ids[i] = []int{i % 10, (i + 1) % 10, (i + 2) % 10, (i + 3) % 10, i % 10, (i + 5) % 10, (i + 6) % 10, (i + 7) % 10}
	}
	body, _ := json.Marshal(map[string]any{"seed": 7, "ids": ids, "sweeps": 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func BenchmarkInferP1(b *testing.B)      { benchInfer(b, 1) }
func BenchmarkInferPNumCPU(b *testing.B) { benchInfer(b, runtime.GOMAXPROCS(0)) }

// benchInferConcurrent measures /infer under concurrent single-document
// clients and reports p50 and p99 request latency alongside the standard
// throughput numbers.
func benchInferConcurrent(b *testing.B, opt Options) {
	s, err := New(testSnapshot(b), opt)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]any{"seed": 7, "ids": [][]int{{0, 1, 2, 3, 5, 6, 7, 8}}, "sweeps": 20})
	var mu sync.Mutex
	var lats []time.Duration
	// 8 client goroutines per GOMAXPROCS, so requests overlap even on
	// 1-CPU runners.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			t0 := time.Now()
			resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
			resp.Body.Close()
			d := time.Since(t0)
			mu.Lock()
			lats = append(lats, d)
			mu.Unlock()
		}
	})
	b.StopTimer()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		b.ReportMetric(float64(lats[len(lats)/2])/1e6, "p50-ms")
		b.ReportMetric(float64(lats[len(lats)*99/100])/1e6, "p99-ms")
	}
}

// BenchmarkInferConcurrent: 8 in-flight slots with head room.
func BenchmarkInferConcurrent(b *testing.B) {
	benchInferConcurrent(b, Options{MaxInFlight: 8})
}

// BenchmarkInferSaturated: a single in-flight slot models a pool with no
// head room, so requests queue for it.
func BenchmarkInferSaturated(b *testing.B) {
	benchInferConcurrent(b, Options{MaxInFlight: 1})
}
